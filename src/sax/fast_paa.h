#pragma once

#include <span>

#include "ts/prefix_stats.h"
#include "ts/stats.h"

namespace egi::sax {

/// FastPAA (paper Algorithm 2): computes the z-normalized PAA coefficients of
/// any subsequence of a fixed series in O(w), using the precomputed ESumx /
/// ESumxx prefix statistics. The mean/stddev of the subsequence come in O(1);
/// each PAA segment sum is an O(1) fractional prefix-sum lookup.
///
/// Matches z-normalize-then-Paa (sax/paa.h) to floating-point accumulation
/// error; the equivalence is covered by parameterized tests.
class FastPaa {
 public:
  /// `stats` must outlive this object.
  explicit FastPaa(const ts::PrefixStats* stats,
                   double norm_threshold = ts::kDefaultNormThreshold)
      : stats_(stats), norm_threshold_(norm_threshold) {}

  /// Computes the w z-normalized PAA coefficients of series[start, start+n).
  /// If the subsequence is flat (stddev below the normalization threshold),
  /// all coefficients are zero. Requires 1 <= w <= n and the range in bounds.
  void Compute(size_t start, size_t n, int w, std::span<double> out) const;

  /// Batch form: coefficients for `count` consecutive window start positions
  /// [start, start + count), written row-major by position into `out`
  /// (count * w doubles). Routes through the runtime-dispatched encode
  /// kernels (sax/simd/) — AVX2 where available, scalar otherwise — with
  /// bitwise-identical rows either way; row p equals Compute(start + p, ...).
  void ComputeBlock(size_t start, size_t count, size_t n, int w,
                    std::span<double> out) const;

  double norm_threshold() const { return norm_threshold_; }

 private:
  const ts::PrefixStats* stats_;
  double norm_threshold_;
};

}  // namespace egi::sax
