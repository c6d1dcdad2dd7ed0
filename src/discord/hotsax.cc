#include "discord/hotsax.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "discord/internal.h"
#include "exec/parallel.h"
#include "sax/multires_encoder.h"
#include "util/rng.h"

namespace egi::discord {

namespace {

// z-normalized squared distance between windows i and j with early abandon:
// returns +inf as soon as the partial sum exceeds `cap_sq`. Flat-window
// conventions match internal::PairDistance.
double PairDistSqAbandon(std::span<const double> series, size_t i, size_t j,
                         size_t m, const std::vector<double>& means,
                         const std::vector<double>& stds, double cap_sq) {
  const bool flat_i = stds[i] < kFlatSigmaThreshold;
  const bool flat_j = stds[j] < kFlatSigmaThreshold;
  if (flat_i && flat_j) return 0.0;
  if (flat_i || flat_j) return static_cast<double>(m);

  const double mu_i = means[i], inv_i = 1.0 / stds[i];
  const double mu_j = means[j], inv_j = 1.0 / stds[j];
  double acc = 0.0;
  for (size_t k = 0; k < m; ++k) {
    const double zi = (series[i + k] - mu_i) * inv_i;
    const double zj = (series[j + k] - mu_j) * inv_j;
    const double d = zi - zj;
    acc += d * d;
    if (acc > cap_sq) return std::numeric_limits<double>::infinity();
  }
  return acc;
}

// Monotonically raises `target` to at least `value` (the shared pruning
// threshold of the parallel outer loop).
void AtomicFetchMax(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// Best candidate within one chunk of the outer order: the largest exact
// nearest-neighbour distance, earliest outer rank on ties.
struct ChunkBest {
  double nn_sq = -1.0;
  size_t rank = std::numeric_limits<size_t>::max();
  size_t pos = 0;
};

}  // namespace

Result<std::vector<Discord>> FindDiscordsHotSax(std::span<const double> series,
                                                size_t window_length,
                                                size_t k,
                                                const HotSaxOptions& options) {
  EGI_RETURN_IF_ERROR(
      internal::ValidateMatrixProfileInput(series, window_length));

  const auto centered = internal::CenterSeries(series);
  const std::span<const double> data(centered);

  const size_t m = window_length;
  const size_t count = data.size() - m + 1;
  const size_t exclusion = DefaultExclusionRadius(m);

  // SAX word per position (no numerosity reduction: HOTSAX needs all).
  const sax::MultiResSaxEncoder encoder(series, m, options.alphabet_size,
                                        ts::kDefaultNormThreshold,
                                        /*numerosity_reduction=*/false);
  EGI_ASSIGN_OR_RETURN(
      auto discretized,
      encoder.Encode(std::min<int>(options.paa_size, static_cast<int>(m)),
                     options.alphabet_size));
  EGI_CHECK(discretized.seq.size() == count);
  const std::vector<int32_t>& word_of = discretized.seq.tokens;

  // Bucket positions by word.
  std::unordered_map<int32_t, std::vector<size_t>> buckets;
  for (size_t i = 0; i < count; ++i) buckets[word_of[i]].push_back(i);

  // Outer order: rarest words first (classic HOTSAX heuristic).
  std::vector<size_t> outer(count);
  std::iota(outer.begin(), outer.end(), size_t{0});
  std::stable_sort(outer.begin(), outer.end(), [&](size_t a, size_t b) {
    return buckets[word_of[a]].size() < buckets[word_of[b]].size();
  });

  // Inner random order (deterministic given the seed).
  std::vector<size_t> random_order(count);
  std::iota(random_order.begin(), random_order.end(), size_t{0});
  Rng rng(options.seed);
  rng.Shuffle(std::span<size_t>(random_order));

  std::vector<double> means, stds;
  internal::WindowMeanStd(data, m, &means, &stds);

  std::vector<bool> masked(count, false);
  std::vector<Discord> out;

  // Chunk boundaries over the outer rank order depend only on the candidate
  // count, so the chunk-local bests (and their rank-ordered merge below) are
  // identical for every thread count.
  const size_t grain = std::max<size_t>(32, (count + 63) / 64);

  while (out.size() < k) {
    // Largest completed nearest-neighbour distance of this round, shared
    // across chunks as a pruning threshold. A candidate abandons only when
    // its running distance drops strictly below a completed value, so every
    // candidate tied for the maximum finishes exactly and the merge's rank
    // order resolves the tie deterministically.
    std::atomic<double> round_best{-1.0};
    std::vector<ChunkBest> bests(exec::NumChunks(count, grain));

    exec::ParallelForRanges(
        options.parallelism, 0, count, grain,
        [&](size_t rank_begin, size_t rank_end) {
          ChunkBest& local = bests[rank_begin / grain];
          for (size_t rank = rank_begin; rank < rank_end; ++rank) {
            const size_t i = outer[rank];
            if (masked[i]) continue;
            const double prune = std::max(
                round_best.load(std::memory_order_relaxed), local.nn_sq);
            double nn_sq = std::numeric_limits<double>::infinity();
            bool abandoned = false;

            auto visit = [&](size_t j) {
              if (abandoned) return;
              const size_t gap = i > j ? i - j : j - i;
              if (gap < exclusion) return;
              const double cap =
                  std::min(nn_sq, std::numeric_limits<double>::max());
              const double d_sq =
                  PairDistSqAbandon(data, i, j, m, means, stds, cap);
              if (d_sq < nn_sq) nn_sq = d_sq;
              // A neighbour strictly closer than a completed candidate's
              // distance rules i out as the discord: abandon.
              if (nn_sq < prune) abandoned = true;
            };

            // Same-word neighbours first: most likely to be close,
            // triggering the abandon early.
            const int32_t w = word_of[i];
            for (size_t j : buckets[w]) visit(j);
            if (!abandoned) {
              for (size_t j : random_order) {
                if (word_of[j] == w) continue;  // already visited
                visit(j);
                if (abandoned) break;
              }
            }
            if (!abandoned && std::isfinite(nn_sq)) {
              AtomicFetchMax(round_best, nn_sq);
              if (nn_sq > local.nn_sq) {
                local.nn_sq = nn_sq;
                local.rank = rank;
                local.pos = i;
              }
            }
          }
        });

    // Merge: earliest outer rank wins ties, matching the serial
    // first-achiever semantics.
    ChunkBest best;
    for (const ChunkBest& cb : bests) {
      if (cb.nn_sq > best.nn_sq ||
          (cb.nn_sq == best.nn_sq && cb.rank < best.rank)) {
        best = cb;
      }
    }
    if (best.nn_sq < 0.0) break;
    out.push_back(Discord{best.pos, std::sqrt(best.nn_sq)});
    const size_t lo = best.pos > m - 1 ? best.pos - (m - 1) : 0;
    const size_t hi = std::min(count - 1, best.pos + m - 1);
    for (size_t i = lo; i <= hi; ++i) masked[i] = true;
  }
  return out;
}

}  // namespace egi::discord
