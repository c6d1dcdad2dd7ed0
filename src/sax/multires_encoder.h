#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "egi/result.h"
#include "sax/breakpoints.h"
#include "sax/fast_paa.h"
#include "sax/numerosity.h"
#include "sax/token_table.h"
#include "ts/prefix_stats.h"
#include "ts/stats.h"

namespace egi::sax {

/// A discretized time series: the numerosity-reduced token sequence plus the
/// token table mapping ids to packed word codes (strings are rendered
/// lazily, only for display — see sax/word_code.h).
struct DiscretizedSeries {
  TokenSequence seq;
  TokenTable table;
  size_t series_length = 0;
  size_t window_length = 0;
  int paa_size = 0;
  int alphabet_size = 0;

  /// Number of sliding-window positions in the original series.
  size_t num_positions() const { return series_length - window_length + 1; }
};

/// One (w, a) discretization request for the multi-resolution encoder.
struct WaParam {
  int paa_size = 0;       ///< w
  int alphabet_size = 0;  ///< a

  bool operator==(const WaParam&) const = default;
};

/// Rejects series containing NaN or Inf (applied by every public entry
/// point that consumes raw series data).
Status ValidateSeriesValues(std::span<const double> series);

/// Multi-resolution SAX encoder (paper Section 6.2), the library's one batch
/// SAX discretizer: it encodes the same series under one or many (w, a)
/// parameter combinations while sharing all the expensive work — the
/// ESumx/ESumxx prefix statistics (FastPAA, §6.2.1) and the merged-
/// breakpoint symbol matrix (§6.2.2). For the ensemble's N members this
/// reduces discretization cost from O(n·wmax·amax + ...) per subsequence to
/// O(w) per distinct w plus one binary search per coefficient.
class MultiResSaxEncoder {
 public:
  /// Prepares prefix stats for `series` and the breakpoint summary for
  /// alphabet sizes up to `amax`. The series data is copied into the
  /// internal prefix structure; the span need not outlive the encoder.
  /// Never fails: a non-finite series or an `amax` outside [2, 64] is
  /// reported by Encode/EncodeAll.
  MultiResSaxEncoder(std::span<const double> series, size_t window_length,
                     int amax,
                     double norm_threshold = ts::kDefaultNormThreshold,
                     bool numerosity_reduction = true);

  /// Discretizes under a single (w, a) — EncodeAll with one request.
  Result<DiscretizedSeries> Encode(int paa_size, int alphabet_size) const;

  /// Batch-discretizes all requested combinations in one sliding-window
  /// sweep per distinct w. Results align 1:1 with `params`. Fails with
  /// InvalidArgument, before any work, when the series holds NaN/Inf or a
  /// request is out of range: window in [2, series length], w in [1,
  /// window], a in [2, amax], w * bits(a) within the 128-bit word code.
  Result<std::vector<DiscretizedSeries>> EncodeAll(
      std::span<const WaParam> params) const;

  size_t series_length() const { return stats_.size(); }
  size_t window_length() const { return window_length_; }
  int amax() const { return summary_.amax(); }

 private:
  size_t window_length_;
  double norm_threshold_;
  bool numerosity_reduction_;
  bool finite_;
  ts::PrefixStats stats_;
  BreakpointSummary summary_;
};

/// SAX word (letters) for a single, standalone subsequence — the Figure 3
/// operation: z-normalize, PAA, map through Gaussian breakpoints. Encodes
/// the one window through MultiResSaxEncoder and renders its token.
Result<std::string> SaxWordForSubsequence(std::span<const double> values,
                                          int paa_size, int alphabet_size,
                                          double norm_threshold =
                                              ts::kDefaultNormThreshold);

}  // namespace egi::sax
