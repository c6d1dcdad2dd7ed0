// Golden digest of the multi-stream hub's observable output: every per-point
// result delivered by callbacks during batch Ingest and returned by
// single-stream Ingest, plus the bytes of StreamHub::Checkpoint(), over a
// fixed 3-stream workload at threads=1 and threads=4, under both refit
// policies. tests/data/hub_digests.txt pins them; any change to how the hub
// shards, scores or frames its checkpoint shows up here as a byte
// difference. Run with EGI_UPDATE_GOLDEN=1 to regenerate the file.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "egi/session.h"
#include "util/env.h"
#include "util/rng.h"

namespace egi {
namespace {

constexpr size_t kStreams = 3;
constexpr size_t kPoints = 720;
constexpr size_t kChunk = 60;
constexpr size_t kBatchPoints = 480;  // batch Ingest first, then per stream

std::string HubDigestPath() {
  return std::string(EGI_TEST_DATA_DIR) + "/hub_digests.txt";
}

// FNV-1a, folded over the raw bytes of each value.
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Point(const StreamPoint& p) {
    U64(p.index);
    U64(std::bit_cast<uint64_t>(p.value));
    U64(std::bit_cast<uint64_t>(p.score));
    U64((p.scored ? 1u : 0u) | (p.provisional ? 2u : 0u) |
        (p.refit ? 4u : 0u));
  }
  std::string Hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

// Three differently shaped streams: a noisy sine with a planted flat spot,
// a random walk, and a square wave with one rejected (NaN) value.
std::vector<std::vector<double>> Workload() {
  Rng rng(2024);
  std::vector<std::vector<double>> data(kStreams,
                                        std::vector<double>(kPoints));
  double walk = 0.0;
  for (size_t i = 0; i < kPoints; ++i) {
    const double t = static_cast<double>(i);
    data[0][i] = (i >= 400 && i < 430)
                     ? 0.0
                     : std::sin(2.0 * M_PI * t / 29.0) + 0.1 * rng.Gaussian();
    walk += rng.Gaussian();
    data[1][i] = walk;
    data[2][i] = ((i / 17) % 2 == 0 ? 1.0 : -1.0) + 0.05 * rng.Gaussian();
  }
  data[2][333] = std::numeric_limits<double>::quiet_NaN();
  return data;
}

std::string HubDigest(int threads, RefitPolicy policy) {
  const auto data = Workload();
  auto session = Session::Open("ensemble:wmax=6,amax=6,n=8,seed=11,threads=" +
                               std::to_string(threads));
  EXPECT_TRUE(session.ok()) << session.status();
  if (!session.ok()) return "";
  StreamOptions options;
  options.window_length = 24;
  options.buffer_capacity = 160;
  options.refit_interval = 40;
  options.refit_policy = policy;
  options.refit_interval_max = 160;
  auto hub = session->OpenHub(options);
  EXPECT_TRUE(hub.ok()) << hub.status();
  if (!hub.ok()) return "";

  std::vector<Fnv> callback_digest(kStreams);
  std::vector<size_t> callback_points(kStreams, 0);
  for (size_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(hub->AddStream(), s);
    hub->SetCallback(s, [&callback_digest, &callback_points](
                            size_t id, const StreamPoint& p) {
      callback_digest[id].Point(p);
      ++callback_points[id];
    });
  }
  for (size_t off = 0; off < kBatchPoints; off += kChunk) {
    std::vector<HubBatch> batches;
    for (size_t s = 0; s < kStreams; ++s) {
      batches.push_back(
          HubBatch{s, std::span<const double>(data[s]).subspan(off, kChunk)});
    }
    hub->Ingest(batches);
  }
  Fnv mid_checkpoint;
  const std::vector<uint8_t> mid = hub->Checkpoint();
  mid_checkpoint.Bytes(mid.data(), mid.size());

  // Single-stream Ingest with callbacks cleared: the returned points are
  // the only delivery.
  std::vector<Fnv> ingest_digest(kStreams);
  for (size_t s = 0; s < kStreams; ++s) {
    hub->SetCallback(s, nullptr);
    const auto rest = std::span<const double>(data[s]).subspan(kBatchPoints);
    for (const StreamPoint& p : hub->Ingest(s, rest)) ingest_digest[s].Point(p);
  }
  Fnv end_checkpoint;
  const std::vector<uint8_t> end = hub->Checkpoint();
  end_checkpoint.Bytes(end.data(), end.size());

  const std::string prefix =
      "hub threads=" + std::to_string(threads) + " policy=" +
      (policy == RefitPolicy::kAdaptive ? "adaptive" : "fixed");
  std::string out;
  for (size_t s = 0; s < kStreams; ++s) {
    out += prefix + " stream=" + std::to_string(s) +
           " callback_points=" + std::to_string(callback_points[s]) +
           " callbacks=" + callback_digest[s].Hex() +
           " ingest=" + ingest_digest[s].Hex() +
           " refits=" + std::to_string(hub->Stats(s).refit_count) + "\n";
  }
  out += prefix + " checkpoint_mid=" + mid_checkpoint.Hex() + " bytes=" +
         std::to_string(mid.size()) + "\n";
  out += prefix + " checkpoint_end=" + end_checkpoint.Hex() + " bytes=" +
         std::to_string(end.size()) + "\n";
  return out;
}

TEST(HubDigestTest, MatchesRecordedOutputs) {
  std::string digest;
  for (const int threads : {1, 4}) {
    for (const RefitPolicy policy :
         {RefitPolicy::kFixed, RefitPolicy::kAdaptive}) {
      digest += HubDigest(threads, policy);
    }
  }

  if (GetEnvBool("EGI_UPDATE_GOLDEN", false)) {
    std::ofstream out(HubDigestPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << HubDigestPath();
    out << digest;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "hub digests regenerated at " << HubDigestPath();
  }
  std::ifstream in(HubDigestPath());
  ASSERT_TRUE(in.good()) << "missing " << HubDigestPath()
                         << " (run with EGI_UPDATE_GOLDEN=1 to create it)";
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(digest, expected);
}

}  // namespace
}  // namespace egi
