// The rule density curve read from a live SequiturBuilder must be
// bitwise-equal to the curve of the Grammar that builder.Build() extracts,
// and the builder's grammar statistics must match the artifact's.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/gi.h"
#include "datasets/random_walk.h"
#include "grammar/density.h"
#include "grammar/sequitur.h"
#include "sax/multires_encoder.h"
#include "util/rng.h"

namespace egi::grammar {
namespace {

void ExpectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(double)));
}

// Compares every builder-path output against the Build() path, with and
// without boundary (coverage) correction.
void ExpectMatchesBuild(const SequiturBuilder& builder,
                        std::span<const size_t> offsets, size_t series_length,
                        size_t window_length) {
  const Grammar g = builder.Build();
  EXPECT_EQ(builder.num_rules(), g.rules.size());
  EXPECT_EQ(builder.grammar_symbols(), g.TotalRhsSymbols());
  for (const bool normalize : {false, true}) {
    SCOPED_TRACE(normalize ? "normalized" : "raw");
    ExpectBitwiseEqual(
        BuildRuleDensityCurve(builder, offsets, series_length, window_length,
                              normalize),
        BuildRuleDensityCurve(g, offsets, series_length, window_length,
                              normalize));
  }
}

std::vector<int32_t> RandomTokens(size_t n, int alphabet, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> tokens(n);
  for (auto& t : tokens)
    t = static_cast<int32_t>(rng.UniformInt(0, alphabet - 1));
  return tokens;
}

std::vector<int32_t> PeriodicTokens(size_t n, int period) {
  std::vector<int32_t> tokens(n);
  for (size_t i = 0; i < n; ++i)
    tokens[i] = static_cast<int32_t>(i % static_cast<size_t>(period));
  return tokens;
}

struct TokenCase {
  const char* name;
  std::vector<int32_t> tokens;
};

std::vector<TokenCase> TokenCases() {
  return {
      {"random_a26", RandomTokens(3000, 26, 11)},
      {"random_a3", RandomTokens(3000, 3, 13)},
      {"periodic_p7", PeriodicTokens(3000, 7)},
      {"all_same", std::vector<int32_t>(1000, 0)},
      {"empty", {}},
      {"single", {5}},
  };
}

// Offsets of the kept tokens: every position (no numerosity reduction) or
// seeded gaps of 1-4 positions (runs collapsed by numerosity reduction).
std::vector<size_t> Offsets(size_t n, bool reduced, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> offsets(n);
  size_t at = 0;
  for (size_t i = 0; i < n; ++i) {
    offsets[i] = at;
    at += reduced ? 1 + static_cast<size_t>(rng.UniformInt(0, 3)) : 1;
  }
  return offsets;
}

// Series length with the last kept window ending at the last point; at
// least one window for the empty input.
size_t SeriesLength(std::span<const size_t> offsets, size_t window) {
  return (offsets.empty() ? 1 : offsets.back() + 1) + window - 1;
}

TEST(SequiturDensityTest, LiveCurveMatchesBuiltGrammar) {
  for (const auto& input : TokenCases()) {
    SequiturBuilder builder;
    builder.AppendAll(input.tokens);
    for (const bool reduced : {false, true}) {
      const auto offsets = Offsets(input.tokens.size(), reduced, 3);
      for (const size_t window : {size_t{1}, size_t{8}}) {
        SCOPED_TRACE(std::string(input.name) + (reduced ? " reduced" : "") +
                     " window " + std::to_string(window));
        const size_t series_length = SeriesLength(offsets, window);
        ExpectMatchesBuild(builder, offsets, series_length, window);
      }
    }
  }
}

TEST(SequiturDensityTest, ReusedBuilderMatchesAfterLargerInput) {
  // The builder's arenas still hold nodes and rules of the larger run; only
  // the live grammar may be read.
  SequiturBuilder builder;
  builder.AppendAll(RandomTokens(20000, 4, 17));
  for (const auto& input : TokenCases()) {
    SCOPED_TRACE(input.name);
    builder.Reset();
    builder.AppendAll(input.tokens);
    const auto offsets = Offsets(input.tokens.size(), /*reduced=*/true, 5);
    const size_t window = 4;
    const size_t series_length = SeriesLength(offsets, window);
    ExpectMatchesBuild(builder, offsets, series_length, window);

    SequiturBuilder fresh;
    fresh.AppendAll(input.tokens);
    for (const bool normalize : {false, true}) {
      ExpectBitwiseEqual(
          BuildRuleDensityCurve(builder, offsets, series_length, window,
                                normalize),
          BuildRuleDensityCurve(fresh, offsets, series_length, window,
                                normalize));
    }
  }
}

TEST(SequiturDensityTest, GiRunMatchesBuiltGrammarOnSaxTokens) {
  // RunGrammarInductionOnTokens reads the curve and statistics from the
  // live builder; they must equal the Build() path on real discretizations.
  Rng rng(23);
  std::vector<double> sine(1500);
  for (size_t i = 0; i < sine.size(); ++i)
    sine[i] = std::sin(static_cast<double>(i) * 0.1);
  const std::vector<std::pair<const char*, std::vector<double>>> series = {
      {"random_walk", datasets::MakeRandomWalk(1500, rng)},
      {"sine", sine},
      {"constant", std::vector<double>(600, 2.5)},
  };
  for (const auto& [name, values] : series) {
    for (const bool numerosity : {false, true}) {
      const sax::MultiResSaxEncoder encoder(values, /*window_length=*/40,
                                            /*amax=*/6,
                                            ts::kDefaultNormThreshold,
                                            numerosity);
      auto discretized = encoder.Encode(/*paa_size=*/4, /*alphabet_size=*/5);
      ASSERT_TRUE(discretized.ok());
      const auto& d = *discretized;
      const Grammar g = InduceGrammar(d.seq.tokens);
      for (const bool correction : {false, true}) {
        SCOPED_TRACE(std::string(name) + (numerosity ? " nr" : "") +
                     (correction ? " corrected" : ""));
        const core::GiRun run =
            core::RunGrammarInductionOnTokens(d, correction);
        EXPECT_EQ(run.num_rules, g.rules.size());
        EXPECT_EQ(run.grammar_symbols, g.TotalRhsSymbols());
        ExpectBitwiseEqual(
            run.density,
            BuildRuleDensityCurve(g, d.seq.offsets, d.series_length,
                                  d.window_length, correction));
      }
    }
  }
}

}  // namespace
}  // namespace egi::grammar
