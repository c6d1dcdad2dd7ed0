#include "sax/paa.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace egi::sax {

void Paa(std::span<const double> values, int w, std::span<double> out) {
  const size_t n = values.size();
  EGI_CHECK(w >= 1 && static_cast<size_t>(w) <= n)
      << "PAA size " << w << " invalid for subsequence of length " << n;
  EGI_CHECK(out.size() == static_cast<size_t>(w));

  const double seg = static_cast<double>(n) / static_cast<double>(w);
  for (int i = 0; i < w; ++i) {
    const double from = seg * static_cast<double>(i);
    const double to = seg * static_cast<double>(i + 1);
    // Integrate the sample step function over [from, to).
    double acc = 0.0;
    size_t lo = static_cast<size_t>(std::floor(from));
    size_t hi = std::min(n, static_cast<size_t>(std::ceil(to)));
    for (size_t k = lo; k < hi; ++k) {
      const double cell_lo = std::max(from, static_cast<double>(k));
      const double cell_hi = std::min(to, static_cast<double>(k) + 1.0);
      if (cell_hi > cell_lo) acc += values[k] * (cell_hi - cell_lo);
    }
    out[static_cast<size_t>(i)] = acc / seg;
  }
}

}  // namespace egi::sax
