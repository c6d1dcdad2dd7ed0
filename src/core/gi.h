#pragma once

#include <span>
#include <vector>

#include "egi/result.h"
#include "sax/multires_encoder.h"
#include "ts/stats.h"

namespace egi::core {

/// Parameters of a single grammar-induction anomaly-detection run
/// (GrammarViz-style; paper Section 5).
struct GiParams {
  size_t window_length = 0;  ///< sliding window length n
  int paa_size = 4;          ///< w
  int alphabet_size = 4;     ///< a
  double norm_threshold = ts::kDefaultNormThreshold;
  bool numerosity_reduction = true;
  /// Divide each density value by the number of windows covering the point,
  /// removing the structural dip at the series boundaries (see
  /// grammar/density.h). On by default; ablated in bench/ablation_ensemble.
  bool boundary_correction = true;
};

/// Output of one discretize -> Sequitur -> density run.
struct GiRun {
  std::vector<double> density;  ///< rule density curve, one value per point
  size_t num_tokens = 0;        ///< tokens after numerosity reduction
  size_t num_rules = 0;         ///< induced grammar rules
  size_t grammar_symbols = 0;   ///< description length (|root| + sum |rhs|)
  size_t vocabulary = 0;        ///< distinct SAX words observed
};

/// Runs the full single-parameter pipeline: SAX discretization with
/// numerosity reduction, Sequitur, and the rule density curve.
Result<GiRun> RunGrammarInduction(std::span<const double> series,
                                  const GiParams& params);

/// Same pipeline starting from an already-discretized series (used by the
/// ensemble and GI-Select so discretization can be shared through the
/// multi-resolution encoder). Induction runs on a builder leased from the
/// scratch pool (grammar::AcquireScratchBuilder), and the curve and grammar
/// statistics are read from its live rules; no Grammar is extracted.
GiRun RunGrammarInductionOnTokens(const sax::DiscretizedSeries& discretized,
                                  bool boundary_correction = true);

/// GI-Select's parameter choice: a grid search over w in [2, min(wmax,
/// window_length)] and a in [2, amax] on the leading `train_fraction` of
/// the series (floored at four windows), returning the (w, a) that minimizes
/// a two-part MDL cost — grammar description bits plus the bits of the
/// residual the SAX discretization discards. This stands in for the
/// GrammarViz 3.0 optimization procedure (the paper's [19]; see DESIGN.md,
/// "GI-Select substitution").
Result<GiParams> SelectGiParams(std::span<const double> series,
                                size_t window_length, int wmax, int amax,
                                double train_fraction);

}  // namespace egi::core
