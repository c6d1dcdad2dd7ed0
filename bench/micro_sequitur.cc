// Micro-benchmarks for Sequitur grammar induction: the paper's pipeline is
// linear-time overall, which requires Sequitur to stay amortized O(1) per
// appended token on both random and highly repetitive inputs. Also measures
// the builder-reuse path (Reset() + flat digram table) against a
// from-scratch builder per grammar, and the path the ensemble and streaming
// refits run: a reused builder whose rule density curve is read from its
// live grammar, with no Grammar extracted.
//
// EGI_BENCH_QUICK=1 shrinks the sweep (CI smoke mode); --json (or
// EGI_BENCH_JSON=1) emits one JSON object per line for BENCH_*.json
// tracking instead of the human-readable table.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "grammar/density.h"
#include "grammar/sequitur.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace egi;

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

}  // namespace

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const bool json = bench::JsonOutputEnabled(argc, argv);
  const bool quick = GetEnvBool("EGI_BENCH_QUICK", false);
  const int reps = quick ? 3 : 5;
  const std::vector<size_t> sizes =
      quick ? std::vector<size_t>{4096, 32768}
            : std::vector<size_t>{4096, 32768, 131072};

  struct Input {
    const char* name;
    std::vector<int32_t> (*make)(size_t);
  };
  const Input inputs[] = {
      {"random_a26", [](size_t n) { return RandomTokens(n, 26, 11); }},
      {"periodic_p7", [](size_t n) { return PeriodicTokens(n, 7); }},
      {"random_a3", [](size_t n) { return RandomTokens(n, 3, 13); }},
  };

  if (!json) {
    std::printf("== Sequitur grammar induction throughput ==\n");
    std::printf("best of %d reps per cell%s\n\n", reps,
                quick ? " [QUICK]" : "");
  }

  // Window of the live_density rows' curve (perfbench's stream shape);
  // tokens map to positions one to one.
  constexpr size_t kWindow = 64;

  TextTable table("sequitur induction throughput");
  table.SetHeader({"Input", "Tokens", "Builder", "Time (s)", "Tokens/sec"});

  for (const auto& input : inputs) {
    for (const size_t n : sizes) {
      const auto tokens = input.make(n);

      // Fresh builder per grammar (the one-shot InduceGrammar path).
      const double fresh_s = bench::BestSeconds(reps, [&] {
        auto g = grammar::InduceGrammar(tokens);
        bench::KeepAlive(g);
      });

      // Reused builder (the ensemble / streaming-refit path): arenas and
      // the digram table survive across grammars via Reset().
      grammar::SequiturBuilder builder;
      const double reused_s = bench::BestSeconds(reps, [&] {
        builder.Reset();
        builder.AppendAll(tokens);
        auto g = builder.Build();
        bench::KeepAlive(g);
      });

      // The ensemble member's path (core::RunGrammarInductionOnTokens).
      std::vector<size_t> offsets(n);
      for (size_t i = 0; i < n; ++i) offsets[i] = i;
      const double live_density_s = bench::BestSeconds(reps, [&] {
        builder.Reset();
        builder.AppendAll(tokens);
        auto curve = grammar::BuildRuleDensityCurve(
            builder, offsets, n + kWindow - 1, kWindow,
            /*normalize_by_coverage=*/true);
        bench::KeepAlive(curve);
      });

      for (const auto& [mode, secs] :
           {std::pair<const char*, double>{"fresh", fresh_s},
            std::pair<const char*, double>{"reused", reused_s},
            std::pair<const char*, double>{"live_density", live_density_s}}) {
        const double tps = static_cast<double>(n) / std::max(secs, 1e-12);
        if (json) {
          bench::JsonRecord("micro_sequitur")
              .Add("input", input.name)
              .Add("tokens", static_cast<int64_t>(n))
              .Add("builder", mode)
              .Add("seconds", secs)
              .Add("tokens_per_sec", tps)
              .Add("quick", quick)
              .Emit(std::cout);
        } else {
          table.AddRow({input.name, std::to_string(n), mode,
                        FormatDouble(secs, 4), FormatDouble(tps, 0)});
        }
      }
    }
  }

  if (!json) {
    table.Print(std::cout);
    std::printf(
        "\nthe live_density rows are the hot configuration: the ensemble's N "
        "members\nand every streaming refit run through Reset() builders and "
        "read the\ncurve from the live grammar.\n");
  }
  return 0;
}
