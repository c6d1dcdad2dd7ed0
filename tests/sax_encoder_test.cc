#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sax/breakpoints.h"
#include "sax/fast_paa.h"
#include "sax/multires_encoder.h"
#include "sax/numerosity.h"
#include "sax/token_table.h"
#include "ts/prefix_stats.h"
#include "util/rng.h"

namespace egi::sax {
namespace {

// ------------------------------------------------------------ token table

TEST(TokenTableTest, InternAssignsDenseIds) {
  const WordCodec codec(2, 4);
  TokenTable t(codec);
  EXPECT_EQ(t.Intern(codec.PackText("ab")), 0);
  EXPECT_EQ(t.Intern(codec.PackText("bc")), 1);
  EXPECT_EQ(t.Intern(codec.PackText("ab")), 0);  // idempotent
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.Word(0), "ab");
  EXPECT_EQ(t.Word(1), "bc");
}

TEST(TokenTableTest, FindWithoutInsert) {
  const WordCodec codec(2, 26);
  TokenTable t(codec);
  t.Intern(codec.PackText("xy"));
  EXPECT_EQ(t.Find(codec.PackText("xy")), 0);
  EXPECT_EQ(t.Find(codec.PackText("zz")), -1);
}

TEST(TokenTableTest, CodeStringRoundTripsThroughTable) {
  // Every interned id renders back to the word it was packed from, and the
  // rendered word re-packs to a code that finds the same id.
  const WordCodec codec(5, 8);
  TokenTable t(codec);
  Rng rng(21);
  std::vector<std::string> words;
  for (int k = 0; k < 200; ++k) {
    std::string w(5, 'a');
    for (auto& ch : w)
      ch = static_cast<char>('a' + rng.UniformInt(0, 7));
    words.push_back(w);
    t.Intern(codec.PackText(w));
  }
  for (const auto& w : words) {
    const int32_t id = t.Find(codec.PackText(w));
    ASSERT_GE(id, 0);
    EXPECT_EQ(t.Word(id), w);
    EXPECT_EQ(t.Find(t.CodeAt(id)), id);
  }
}

TEST(TokenTableTest, ManyWordsSurviveTableGrowth) {
  // 2000 distinct codes force several open-addressing growths; ids must
  // stay dense, stable, and findable throughout.
  const WordCodec codec(8, 16);
  TokenTable t(codec);
  std::vector<WordCode> codes;
  for (int i = 0; i < 2000; ++i) {
    std::vector<int> syms(8);
    int v = i;
    for (auto& s : syms) {
      s = v & 15;
      v >>= 4;
    }
    codes.push_back(codec.Pack(syms));
    EXPECT_EQ(t.Intern(codes.back()), i);
  }
  EXPECT_EQ(t.size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(t.Find(codes[static_cast<size_t>(i)]), i);
    EXPECT_EQ(t.CodeAt(i), codes[static_cast<size_t>(i)]);
  }
}

// ------------------------------------------------------ numerosity (Eq. 2/3)

TEST(NumerosityTest, PaperExampleEq2ToEq3) {
  // S = ba,ba,ba,dc,dc,aa,ac,ac with ids ba=0, dc=1, aa=2, ac=3.
  std::vector<int32_t> raw{0, 0, 0, 1, 1, 2, 3, 3};
  auto reduced = NumerosityReduce(raw);
  EXPECT_EQ(reduced.tokens, (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(reduced.offsets, (std::vector<size_t>{0, 3, 5, 6}));
}

TEST(NumerosityTest, DisabledIsIdentity) {
  std::vector<int32_t> raw{0, 0, 1, 1};
  auto reduced = NumerosityReduce(raw, /*enabled=*/false);
  EXPECT_EQ(reduced.tokens, raw);
  EXPECT_EQ(reduced.offsets, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(NumerosityTest, EmptyInput) {
  auto reduced = NumerosityReduce(std::vector<int32_t>{});
  EXPECT_TRUE(reduced.tokens.empty());
}

TEST(NumerosityTest, ExpandRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int32_t> raw;
    const int runs = 1 + static_cast<int>(rng.UniformInt(0, 20));
    for (int r = 0; r < runs; ++r) {
      const auto tok = static_cast<int32_t>(rng.UniformInt(0, 4));
      const auto rep = static_cast<int>(rng.UniformInt(1, 5));
      for (int i = 0; i < rep; ++i) raw.push_back(tok);
    }
    auto reduced = NumerosityReduce(raw);
    EXPECT_EQ(NumerosityExpand(reduced, raw.size()), raw);
  }
}

TEST(NumerosityTest, AlternatingTokensNotReduced) {
  std::vector<int32_t> raw{0, 1, 0, 1};
  auto reduced = NumerosityReduce(raw);
  EXPECT_EQ(reduced.tokens, raw);
}

// ---------------------------------------------------------------- encoder

TEST(SaxWordTest, KnownSubsequenceWord) {
  // Ramp: z-normalized PAA coefficients ascend, so the word's symbols must
  // be non-decreasing and span the alphabet extremes.
  std::vector<double> ramp{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  auto word = SaxWordForSubsequence(ramp, 4, 4);
  ASSERT_TRUE(word.ok());
  EXPECT_EQ(word.value(), "abcd");
}

TEST(SaxWordTest, FlatSubsequenceMapsToMiddleSymbols) {
  std::vector<double> flat(16, 3.0);
  auto w3 = SaxWordForSubsequence(flat, 4, 3);
  ASSERT_TRUE(w3.ok());
  EXPECT_EQ(w3.value(), "bbbb");  // 0 falls in the middle region for a=3
  auto w4 = SaxWordForSubsequence(flat, 4, 4);
  ASSERT_TRUE(w4.ok());
  EXPECT_EQ(w4.value(), "cccc");  // boundary 0 belongs to the upper region
}

TEST(SaxWordTest, InvalidParamsRejected) {
  std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_FALSE(SaxWordForSubsequence(v, 5, 4).ok());   // w > n
  EXPECT_FALSE(SaxWordForSubsequence(v, 2, 1).ok());   // a < 2
  EXPECT_FALSE(SaxWordForSubsequence(v, 2, 100).ok()); // a > max
}

TEST(DiscretizeTest, RejectsUnpackableWordConfigurations) {
  // The encoder enforces w * BitsPerSymbol(a) <= 128 so every layer
  // downstream may assume words pack into one WordCode.
  std::vector<double> v(300, 0.0);
  const MultiResSaxEncoder encoder(v, 100, 64);
  EXPECT_FALSE(encoder.Encode(22, 64).ok());  // 22 * 6 = 132 bits
  EXPECT_TRUE(encoder.Encode(21, 64).ok());   // 126: widest a=64 word
  EXPECT_FALSE(encoder.Encode(26, 20).ok());  // 26 * 5 = 130 bits
  EXPECT_TRUE(encoder.Encode(25, 20).ok());   // 125 bits
}

TEST(DiscretizeTest, ValidatesParams) {
  std::vector<double> v(100, 0.0);
  EXPECT_FALSE(MultiResSaxEncoder(v, 0, 4).Encode(4, 4).ok());
  EXPECT_FALSE(MultiResSaxEncoder(v, 101, 4).Encode(4, 4).ok());
  EXPECT_FALSE(MultiResSaxEncoder(v, 10, 4).Encode(11, 4).ok());
  // An amax outside [2, 64] is reported by Encode, not at construction.
  EXPECT_FALSE(MultiResSaxEncoder(v, 10, 1).Encode(4, 1).ok());
  EXPECT_FALSE(MultiResSaxEncoder(v, 10, 100).Encode(4, 100).ok());
}

TEST(DiscretizeTest, OffsetsStrictlyIncreaseAndStartAtZero) {
  Rng rng(4);
  std::vector<double> v(500);
  for (auto& x : v) x = rng.Gaussian();
  auto d = MultiResSaxEncoder(v, 50, 4).Encode(4, 4);
  ASSERT_TRUE(d.ok());
  ASSERT_FALSE(d->seq.tokens.empty());
  EXPECT_EQ(d->seq.offsets.front(), 0u);
  for (size_t i = 1; i < d->seq.offsets.size(); ++i) {
    EXPECT_LT(d->seq.offsets[i - 1], d->seq.offsets[i]);
  }
  EXPECT_LE(d->seq.offsets.back(), d->num_positions() - 1);
}

TEST(DiscretizeTest, NumerosityReductionCollapsesConstantSeries) {
  std::vector<double> v(200, 1.0);
  auto d = MultiResSaxEncoder(v, 20, 4).Encode(4, 4);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->seq.size(), 1u);  // one token after reduction
}

TEST(DiscretizeTest, WithoutReductionOneTokenPerPosition) {
  std::vector<double> v(100, 1.0);
  const MultiResSaxEncoder encoder(v, 10, 2, ts::kDefaultNormThreshold,
                                   /*numerosity_reduction=*/false);
  auto d = encoder.Encode(2, 2);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->seq.size(), 91u);
}

TEST(DiscretizeTest, PeriodicSeriesYieldsRepeatingTokens) {
  std::vector<double> v(400);
  for (size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 40.0);
  auto d = MultiResSaxEncoder(v, 40, 3).Encode(4, 3);
  ASSERT_TRUE(d.ok());
  // Perfectly periodic data: far fewer distinct words than tokens.
  EXPECT_LT(d->table.size(), d->seq.size());
}

// ----------------------------------------------------- multi-res encoder

// Scalar single-resolution reference: per position, FastPaa::Compute, then
// SymbolForValue over the alphabet's own GaussianBreakpoints, then
// numerosity reduction. The encoder resolves symbols through the merged
// breakpoint summary in blocked kernels; this checks it against
// per-alphabet breakpoints. Returns the rendered word of each token.
std::vector<std::string> ReferenceWords(const std::vector<double>& v,
                                        size_t n, int w, int a,
                                        std::vector<size_t>* offsets) {
  const ts::PrefixStats stats(v);
  const FastPaa fast_paa(&stats);
  const auto bps = GaussianBreakpoints(a);
  std::vector<double> coeffs(static_cast<size_t>(w));
  std::vector<std::string> vocabulary;
  std::map<std::string, int32_t> ids;
  std::vector<int32_t> raw;
  for (size_t p = 0; p + n <= v.size(); ++p) {
    fast_paa.Compute(p, n, w, coeffs);
    std::string word;
    for (double c : coeffs) word += SymbolToChar(SymbolForValue(c, bps));
    const auto [it, inserted] =
        ids.emplace(word, static_cast<int32_t>(vocabulary.size()));
    if (inserted) vocabulary.push_back(word);
    raw.push_back(it->second);
  }
  const TokenSequence reduced = NumerosityReduce(raw);
  *offsets = reduced.offsets;
  std::vector<std::string> words;
  for (int32_t t : reduced.tokens)
    words.push_back(vocabulary[static_cast<size_t>(t)]);
  return words;
}

class MultiResEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MultiResEquivalenceTest, MatchesSingleResolutionEncoder) {
  const auto [w, a] = GetParam();
  Rng rng(static_cast<uint64_t>(w) * 31 + static_cast<uint64_t>(a));
  std::vector<double> v(600);
  for (size_t i = 0; i < v.size(); ++i)
    v[i] = rng.Gaussian() + std::sin(static_cast<double>(i) / 15.0);

  const size_t n = 60;
  std::vector<size_t> offsets;
  const auto words = ReferenceWords(v, n, w, a, &offsets);

  MultiResSaxEncoder encoder(v, n, /*amax=*/20);
  auto multi = encoder.Encode(w, a);
  ASSERT_TRUE(multi.ok());

  ASSERT_EQ(multi->seq.size(), words.size());
  EXPECT_EQ(multi->seq.offsets, offsets);
  for (size_t i = 0; i < multi->seq.size(); ++i) {
    EXPECT_EQ(multi->table.Word(multi->seq.tokens[i]), words[i])
        << "token " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiResEquivalenceTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 7, 10, 15, 20),
                       ::testing::Values(2, 3, 4, 7, 10, 15, 20)));

TEST(MultiResEncoderTest, EncodeAllMatchesIndividualEncodes) {
  Rng rng(77);
  std::vector<double> v(400);
  for (auto& x : v) x = rng.Gaussian();
  MultiResSaxEncoder encoder(v, 40, 10);

  std::vector<WaParam> params{{2, 5}, {4, 4}, {4, 9}, {7, 2}, {10, 10}};
  auto batch = encoder.EncodeAll(params);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    auto single = encoder.Encode(params[i].paa_size, params[i].alphabet_size);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[i].seq.tokens, single->seq.tokens) << "param " << i;
    EXPECT_EQ((*batch)[i].seq.offsets, single->seq.offsets) << "param " << i;
  }
}

TEST(MultiResEncoderTest, RejectsAlphabetBeyondAmax) {
  std::vector<double> v(100, 0.0);
  MultiResSaxEncoder encoder(v, 10, 8);
  EXPECT_FALSE(encoder.Encode(4, 9).ok());
  EXPECT_TRUE(encoder.Encode(4, 8).ok());
}

TEST(MultiResEncoderTest, RejectsInvalidPaaSize) {
  std::vector<double> v(100, 0.0);
  MultiResSaxEncoder encoder(v, 10, 8);
  EXPECT_FALSE(encoder.Encode(11, 4).ok());  // w > window
  EXPECT_FALSE(encoder.Encode(0, 4).ok());
}

}  // namespace
}  // namespace egi::sax
