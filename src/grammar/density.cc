#include "grammar/density.h"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "util/check.h"

namespace egi::grammar {

namespace {

// Both curve overloads: `for_each_occurrence(add)` calls add(p, e) for every
// rule occurrence starting at token p and spanning e tokens; each adds its
// time interval to one int64 difference array, finished here.
template <typename ForEachOccurrence>
std::vector<double> DensityFromOccurrences(
    ForEachOccurrence&& for_each_occurrence, size_t input_length,
    std::span<const size_t> offsets, size_t series_length,
    size_t window_length, bool normalize_by_coverage) {
  EGI_CHECK(offsets.size() == input_length)
      << "offsets (" << offsets.size() << ") must match grammar input length ("
      << input_length << ")";
  EGI_CHECK(window_length >= 1 && window_length <= series_length);

  std::vector<int64_t> diff(series_length + 1, 0);
  for_each_occurrence([&](size_t p, size_t e) {
    EGI_DCHECK(e >= 1);
    EGI_DCHECK(p + e <= offsets.size());
    const size_t start = offsets[p];
    const size_t end =
        std::min(series_length - 1, offsets[p + e - 1] + window_length - 1);
    EGI_DCHECK(start <= end);
    diff[start] += 1;
    diff[end + 1] -= 1;
  });

  std::vector<double> density(series_length);
  int64_t running = 0;
  const size_t last_start = series_length - window_length;
  for (size_t t = 0; t < series_length; ++t) {
    running += diff[t];
    EGI_DCHECK(running >= 0);
    density[t] = static_cast<double>(running);
    if (normalize_by_coverage) {
      // Number of sliding-window start positions p with p <= t <= p+n-1.
      const size_t lo = t >= window_length - 1 ? t - (window_length - 1) : 0;
      const size_t hi = std::min(t, last_start);
      const double coverage = static_cast<double>(hi - lo + 1);
      density[t] /= coverage;
    }
  }
  return density;
}

}  // namespace

std::vector<double> BuildRuleDensityCurve(const Grammar& grammar,
                                          std::span<const size_t> offsets,
                                          size_t series_length,
                                          size_t window_length,
                                          bool normalize_by_coverage) {
  return DensityFromOccurrences(
      [&](auto&& add) {
        for (const auto& rule : grammar.rules) {
          for (size_t p : rule.occurrences) add(p, rule.expansion_length);
        }
      },
      grammar.input_length, offsets, series_length, window_length,
      normalize_by_coverage);
}

std::vector<double> BuildRuleDensityCurve(const SequiturBuilder& builder,
                                          std::span<const size_t> offsets,
                                          size_t series_length,
                                          size_t window_length,
                                          bool normalize_by_coverage) {
  return DensityFromOccurrences(
      [&](auto&& add) { builder.ForEachRuleOccurrence(std::ref(add)); },
      builder.num_appended(), offsets, series_length, window_length,
      normalize_by_coverage);
}

}  // namespace egi::grammar
