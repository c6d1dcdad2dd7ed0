#include "core/gi.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "grammar/density.h"
#include "grammar/sequitur.h"
#include "sax/breakpoints.h"
#include "sax/fast_paa.h"
#include "ts/prefix_stats.h"

namespace egi::core {

GiRun RunGrammarInductionOnTokens(const sax::DiscretizedSeries& discretized,
                                  bool boundary_correction) {
  auto builder = grammar::AcquireScratchBuilder();
  builder->Reset();
  builder->AppendAll(discretized.seq.tokens);

  GiRun run;
  run.num_tokens = discretized.seq.size();
  run.vocabulary = discretized.table.size();
  run.num_rules = builder->num_rules();
  run.grammar_symbols = builder->grammar_symbols();
  run.density = grammar::BuildRuleDensityCurve(
      *builder, discretized.seq.offsets, discretized.series_length,
      discretized.window_length, boundary_correction);
  return run;
}

Result<GiRun> RunGrammarInduction(std::span<const double> series,
                                  const GiParams& params) {
  const sax::MultiResSaxEncoder encoder(
      series, params.window_length, params.alphabet_size,
      params.norm_threshold, params.numerosity_reduction);
  EGI_ASSIGN_OR_RETURN(auto discretized,
                       encoder.Encode(params.paa_size, params.alphabet_size));
  return RunGrammarInductionOnTokens(discretized, params.boundary_correction);
}

namespace {

// Average squared residual between the z-normalized training windows and
// their SAX reconstruction (PAA segment value replaced by the Gaussian
// region centroid of its symbol). Measures how much signal a (w, a)
// discretization throws away.
double SaxResidualVariance(std::span<const double> prefix,
                           const ts::PrefixStats& stats,
                           const sax::FastPaa& fast_paa, size_t n, int w,
                           const std::vector<double>& breakpoints,
                           const std::vector<double>& centroids) {
  const size_t positions = prefix.size() - n + 1;
  const size_t stride = std::max<size_t>(1, n / 4);
  std::vector<double> coeffs(static_cast<size_t>(w));

  double err = 0.0;
  size_t count = 0;
  for (size_t p = 0; p < positions; p += stride) {
    const double mu = stats.RangeMean(p, n);
    const double sigma = stats.RangeStdDev(p, n);
    fast_paa.Compute(p, n, w, coeffs);
    for (size_t i = 0; i < n; ++i) {
      const size_t seg = std::min<size_t>(
          static_cast<size_t>(w) - 1,
          i * static_cast<size_t>(w) / n);
      const double recon =
          centroids[static_cast<size_t>(sax::SymbolForValue(
              coeffs[seg], breakpoints))];
      const double z = sigma < fast_paa.norm_threshold()
                           ? 0.0
                           : (prefix[p + i] - mu) / sigma;
      const double d = z - recon;
      err += d * d;
      ++count;
    }
  }
  return count == 0 ? 0.0 : err / static_cast<double>(count);
}

}  // namespace

Result<GiParams> SelectGiParams(std::span<const double> series,
                                size_t window_length, int wmax, int amax,
                                double train_fraction) {
  // The paper trains on 10% of the normal series; we floor the prefix at
  // four windows so that repetition is observable at all (a prefix holding
  // fewer than ~2 instances makes every grammar incompressible and the MDL
  // objective degenerate).
  const size_t train_len = std::min(
      series.size(),
      std::max(4 * window_length + 1,
               static_cast<size_t>(static_cast<double>(series.size()) *
                                   train_fraction)));
  if (train_len <= window_length) {
    return Status::InvalidArgument(
        "series too short for GI-Select training prefix");
  }
  auto prefix = series.subspan(0, train_len);
  const ts::PrefixStats stats(prefix);
  const sax::FastPaa fast_paa(&stats);

  const int wmax_clamped = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(wmax), window_length));

  // The whole grid is discretized in one EncodeAll: one PAA pass per w,
  // shared across every a (paper Section 6.2).
  std::vector<sax::WaParam> grid;
  for (int w = 2; w <= wmax_clamped; ++w) {
    for (int a = 2; a <= amax; ++a) grid.push_back(sax::WaParam{w, a});
  }
  const sax::MultiResSaxEncoder encoder(prefix, window_length, amax);
  EGI_ASSIGN_OR_RETURN(auto encoded, encoder.EncodeAll(grid));

  // Two-part MDL over the grid: bits to describe the grammar (the model)
  // plus bits to describe what the discretization discarded (the residual,
  // via the differential entropy of a Gaussian with the measured variance).
  // Coarse parameters get tiny models but large residuals; fine parameters
  // the reverse; the minimum balances the two (our stand-in for the
  // optimization procedure of GrammarViz 3.0 — see DESIGN.md).
  double best_cost = std::numeric_limits<double>::infinity();
  GiParams best;
  best.window_length = window_length;
  for (size_t i = 0; i < grid.size(); ++i) {
    const auto [w, a] = grid[i];
    const GiRun run = RunGrammarInductionOnTokens(encoded[i]);

    const double vocab =
        static_cast<double>(run.vocabulary + run.num_rules + 1);
    const double model_bits_per_point =
        static_cast<double>(run.grammar_symbols) *
        std::log2(std::max(2.0, vocab)) / static_cast<double>(prefix.size());

    const auto breakpoints = sax::GaussianBreakpoints(a);
    const auto centroids = sax::GaussianRegionCentroids(a);
    const double var = SaxResidualVariance(
        prefix, stats, fast_paa, window_length, w, breakpoints, centroids);
    const double residual_bits_per_point =
        0.5 * std::log2(2.0 * M_PI * M_E * (var + 1e-12));

    const double cost = model_bits_per_point + residual_bits_per_point;
    if (cost < best_cost) {
      best_cost = cost;
      best.paa_size = w;
      best.alphabet_size = a;
    }
  }
  return best;
}

}  // namespace egi::core
