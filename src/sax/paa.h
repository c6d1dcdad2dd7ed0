#pragma once

#include <span>

namespace egi::sax {

/// Piecewise Aggregate Approximation of an (already normalized) subsequence:
/// splits `values` into `w` equal real-width segments (fractional boundaries
/// handled exactly by weighting boundary samples) and averages each segment.
/// Requires 1 <= w <= values.size(). Used by the streaming detector's
/// provisional scorer on its already-normalized window; batch encoding goes
/// through FastPaa (sax/fast_paa.h), which tests check against this.
void Paa(std::span<const double> values, int w, std::span<double> out);

}  // namespace egi::sax
