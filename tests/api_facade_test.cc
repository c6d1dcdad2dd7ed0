// Façade-vs-direct equality: everything the public Session front door
// returns must be bitwise-identical to driving the internal layers
// directly — batch density curves, detections, streaming scores, and
// checkpoint blobs — at 1 and 4 threads (the acceptance bar of the
// public-API redesign).

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "core/anomaly.h"
#include "core/ensemble.h"
#include "core/gi.h"
#include "datasets/planted.h"
#include "egi/egi.h"
#include "serialize/format.h"
#include "stream/detector.h"
#include "util/env.h"
#include "util/rng.h"

namespace egi {
namespace {

constexpr size_t kWindow = 82;

const std::vector<double>& TestSeries() {
  static const std::vector<double> series = [] {
    Rng rng(7);
    return datasets::MakePlantedSeries(datasets::UcrDataset::kTwoLeadEcg, rng)
        .values;
  }();
  return series;
}

// Bitwise double equality (NaN patterns included).
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameCurve(const std::vector<double>& facade,
                     const std::vector<double>& direct) {
  ASSERT_EQ(facade.size(), direct.size());
  for (size_t i = 0; i < facade.size(); ++i) {
    ASSERT_TRUE(SameBits(facade[i], direct[i])) << "index " << i;
  }
}

core::EnsembleParams DirectEnsembleParams(int threads) {
  core::EnsembleParams p;
  p.wmax = 10;
  p.amax = 10;
  p.ensemble_size = 10;
  p.selectivity = 0.4;
  p.seed = 42;
  p.parallelism = exec::Parallelism::Fixed(threads);
  return p;
}

std::string EnsembleSpec(int threads) {
  return "ensemble:wmax=10,amax=10,n=10,tau=0.4,seed=42,threads=" +
         std::to_string(threads);
}

class FacadeEquivalenceTest : public ::testing::TestWithParam<int> {};

// ------------------------------------------------------------------- batch

TEST_P(FacadeEquivalenceTest, BatchDensityMatchesDirect) {
  const int threads = GetParam();
  auto session = Session::Open(EnsembleSpec(threads));
  ASSERT_TRUE(session.ok());
  auto facade = session->Score(TestSeries(), kWindow);
  ASSERT_TRUE(facade.ok());

  core::EnsembleParams p = DirectEnsembleParams(threads);
  p.window_length = kWindow;
  auto direct = core::ComputeEnsembleDensity(TestSeries(), p);
  ASSERT_TRUE(direct.ok());
  ExpectSameCurve(*facade, direct->density);
}

TEST_P(FacadeEquivalenceTest, DetectMatchesDirect) {
  const int threads = GetParam();
  auto session = Session::Open(EnsembleSpec(threads));
  ASSERT_TRUE(session.ok());
  auto facade = session->Detect(TestSeries(), kWindow, 3);
  ASSERT_TRUE(facade.ok());

  auto density = core::ComputeEnsembleDensity(
      TestSeries(),
      core::EnsembleParamsForWindow(DirectEnsembleParams(threads), kWindow));
  ASSERT_TRUE(density.ok());
  const auto direct = core::FindDensityAnomalies(density->density, kWindow, 3);

  ASSERT_EQ(facade->size(), direct.size());
  for (size_t i = 0; i < facade->size(); ++i) {
    EXPECT_EQ((*facade)[i].position, direct[i].position);
    EXPECT_EQ((*facade)[i].length, direct[i].length);
    EXPECT_TRUE(SameBits((*facade)[i].severity, direct[i].severity));
    EXPECT_EQ((*facade)[i].run_length, direct[i].run_length);
  }
}

TEST(FacadeTest, GiFixScoreMatchesDirect) {
  auto session = Session::Open("gi-fix:w=5,a=4");
  ASSERT_TRUE(session.ok());
  auto facade = session->Score(TestSeries(), kWindow);
  ASSERT_TRUE(facade.ok());

  core::GiParams p;
  p.window_length = kWindow;
  p.paa_size = 5;
  p.alphabet_size = 4;
  auto direct = core::RunGrammarInduction(TestSeries(), p);
  ASSERT_TRUE(direct.ok());
  ExpectSameCurve(*facade, direct->density);
}

// --------------------------------------------------------------- streaming

stream::StreamDetectorOptions DirectStreamOptions(int threads) {
  stream::StreamDetectorOptions options;
  options.ensemble = DirectEnsembleParams(threads);
  options.ensemble.window_length = kWindow;
  options.buffer_capacity = 512;
  options.refit_interval = 128;
  return options;
}

StreamOptions FacadeStreamOptions() {
  StreamOptions options;
  options.window_length = kWindow;
  options.buffer_capacity = 512;
  options.refit_interval = 128;
  return options;
}

void ExpectSamePoint(const StreamPoint& facade,
                     const StreamPoint& direct) {
  ASSERT_EQ(facade.index, direct.index);
  ASSERT_TRUE(SameBits(facade.value, direct.value));
  ASSERT_TRUE(SameBits(facade.score, direct.score)) << "index " << facade.index;
  ASSERT_EQ(facade.scored, direct.scored);
  ASSERT_EQ(facade.provisional, direct.provisional);
  ASSERT_EQ(facade.refit, direct.refit);
}

TEST_P(FacadeEquivalenceTest, StreamingScoresMatchDirect) {
  const int threads = GetParam();
  auto session = Session::Open(EnsembleSpec(threads));
  ASSERT_TRUE(session.ok());
  auto facade = session->OpenStream(FacadeStreamOptions());
  ASSERT_TRUE(facade.ok());

  stream::StreamDetector direct(DirectStreamOptions(threads));
  for (const double v : TestSeries()) {
    ExpectSamePoint(facade->Append(v), direct.Append(v));
  }
  EXPECT_EQ(facade->refit_count(), direct.refit_count());
  ExpectSameCurve(facade->ScoresSnapshot(), direct.ScoresSnapshot());
  ExpectSameCurve(facade->BufferSnapshot(), direct.BufferSnapshot());
}

TEST_P(FacadeEquivalenceTest, CheckpointRoundTripMatchesDirect) {
  const int threads = GetParam();
  const auto& series = TestSeries();
  const size_t half = series.size() / 2;

  auto session = Session::Open(EnsembleSpec(threads));
  ASSERT_TRUE(session.ok());
  auto facade = session->OpenStream(FacadeStreamOptions());
  ASSERT_TRUE(facade.ok());
  stream::StreamDetector direct(DirectStreamOptions(threads));
  for (size_t i = 0; i < half; ++i) {
    facade->Append(series[i]);
    direct.Append(series[i]);
  }

  // Same state -> byte-identical checkpoint blobs.
  const std::vector<uint8_t> facade_blob = facade->Checkpoint();
  const std::vector<uint8_t> direct_blob = direct.Serialize();
  ASSERT_EQ(facade_blob, direct_blob);

  // Restored façade stream continues bitwise-identically to the restored
  // direct detector (and to the uninterrupted runs, by transitivity with
  // the PR 4 continuation tests).
  auto restored = StreamSession::Restore(facade_blob);
  ASSERT_TRUE(restored.ok());
  auto direct_restored = stream::StreamDetector::Deserialize(direct_blob);
  ASSERT_TRUE(direct_restored.ok());
  for (size_t i = half; i < series.size(); ++i) {
    ExpectSamePoint(restored->Append(series[i]),
                    direct_restored->Append(series[i]));
  }
  // Re-checkpointing both continuations agrees too.
  EXPECT_EQ(restored->Checkpoint(), direct_restored->Serialize());
}

TEST_P(FacadeEquivalenceTest, HubMatchesDirect) {
  const int threads = GetParam();
  const auto& series = TestSeries();
  const auto feed = std::span<const double>(series).first(series.size() / 2);

  auto session = Session::Open(EnsembleSpec(threads));
  ASSERT_TRUE(session.ok());
  auto hub = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(hub.ok());

  // The hub shards its streams across `threads` workers; the direct
  // detectors are fed one after another on this thread.
  std::vector<stream::StreamDetector> direct;
  std::vector<HubBatch> hub_batches;
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(hub->AddStream(), s);
    direct.emplace_back(DirectStreamOptions(threads));
    hub_batches.push_back(HubBatch{s, feed});
  }
  hub->Ingest(hub_batches);
  for (auto& d : direct) d.Ingest(feed);

  // Every section of the hub checkpoint is the direct detector's snapshot.
  EXPECT_EQ(hub->num_streams(), direct.size());
  const std::vector<uint8_t> checkpoint = hub->Checkpoint();
  auto sections = serialize::SplitEngineSections(checkpoint);
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_EQ(sections->size(), direct.size());
  for (size_t s = 0; s < direct.size(); ++s) {
    const std::span<const uint8_t> section = (*sections)[s];
    EXPECT_EQ(std::vector<uint8_t>(section.begin(), section.end()),
              direct[s].Serialize())
        << "stream " << s;
  }

  // Per-stream continuation through the hub matches the direct detectors.
  const auto rest = std::span<const double>(series).subspan(series.size() / 2);
  for (size_t s = 0; s < direct.size(); ++s) {
    const auto facade_points = hub->Ingest(s, rest);
    const auto direct_points = direct[s].Ingest(rest);
    ASSERT_EQ(facade_points.size(), direct_points.size());
    for (size_t i = 0; i < facade_points.size(); ++i) {
      ExpectSamePoint(facade_points[i], direct_points[i]);
    }
  }
}

TEST(FacadeTest, HubRestoreRoundTrips) {
  auto session = Session::Open(EnsembleSpec(1));
  ASSERT_TRUE(session.ok());
  auto hub = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(hub.ok());
  hub->AddStream();
  hub->AddStream();
  const auto feed =
      std::span<const double>(TestSeries()).first(TestSeries().size() / 2);
  hub->Ingest(0, feed);
  hub->Ingest(1, feed);

  const auto blob = hub->Checkpoint();
  auto standby = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(standby.ok());
  ASSERT_TRUE(standby->Restore(blob).ok());
  EXPECT_EQ(standby->num_streams(), 2u);
  EXPECT_EQ(standby->Checkpoint(), blob);

  // Corruption is a clean Status error and leaves the hub untouched.
  auto corrupted = blob;
  corrupted[corrupted.size() / 2] ^= 0x01;
  EXPECT_FALSE(standby->Restore(corrupted).ok());
  EXPECT_EQ(standby->num_streams(), 2u);
}

// A hub checkpoint's payload must be consumed exactly: a validly re-wrapped
// envelope with one byte after the last section is a Status error from the
// section splitter and from Restore alike, and leaves the hub as it was.
TEST(FacadeTest, HubCheckpointWithTrailingPayloadByteIsRejected) {
  auto session = Session::Open(EnsembleSpec(1));
  ASSERT_TRUE(session.ok());
  auto hub = session->OpenHub(FacadeStreamOptions());
  ASSERT_TRUE(hub.ok());
  hub->AddStream();
  hub->AddStream();
  hub->Ingest(1, std::span<const double>(TestSeries()).first(300));
  const auto blob = hub->Checkpoint();
  ASSERT_TRUE(serialize::SplitEngineSections(blob).ok());

  std::span<const uint8_t> payload;
  ASSERT_TRUE(serialize::UnwrapPayload(blob, serialize::BlobKind::kStreamHub,
                                       &payload)
                  .ok());
  std::vector<uint8_t> padded(payload.begin(), payload.end());
  padded.push_back(0);
  const auto rewrapped =
      serialize::WrapPayload(serialize::BlobKind::kStreamHub, padded);

  EXPECT_FALSE(serialize::SplitEngineSections(rewrapped).ok());
  EXPECT_FALSE(hub->Restore(rewrapped).ok());
  EXPECT_EQ(hub->num_streams(), 2u);
  EXPECT_EQ(hub->Checkpoint(), blob);
}

// ------------------------------------------------------------- capabilities

TEST(FacadeTest, CapabilitiesAreEnforced) {
  const auto& series = TestSeries();
  for (const char* method : {"discord", "gi-random"}) {
    auto session = Session::Open(method);
    ASSERT_TRUE(session.ok()) << method;
    EXPECT_FALSE(session->info().supports_score) << method;
    const auto score = session->Score(series, kWindow);
    ASSERT_FALSE(score.ok()) << method;
    EXPECT_EQ(score.status().code(), StatusCode::kFailedPrecondition);
  }
  for (const char* method : {"discord", "gi-fix", "gi-random", "gi-select"}) {
    auto session = Session::Open(method);
    ASSERT_TRUE(session.ok()) << method;
    EXPECT_FALSE(session->info().supports_streaming) << method;
    const auto stream = session->OpenStream(FacadeStreamOptions());
    ASSERT_FALSE(stream.ok()) << method;
    EXPECT_EQ(stream.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_FALSE(session->OpenHub(FacadeStreamOptions()).ok()) << method;
  }
  // Invalid stream shapes surface the detector's Status validation.
  auto session = Session::Open("ensemble");
  ASSERT_TRUE(session.ok());
  StreamOptions bad;
  bad.window_length = 0;
  EXPECT_FALSE(session->OpenStream(bad).ok());
  bad = FacadeStreamOptions();
  bad.buffer_capacity = 10;  // < window_length
  EXPECT_FALSE(session->OpenStream(bad).ok());
}

// Every registered detector Detects through the façade on fixed planted
// series, and the output matches tests/data/detect_digests.txt exactly:
// positions, lengths, run lengths and severity bit patterns. Each spec makes
// three consecutive calls on one Session (series A, B, A), which pins
// GI-Random's per-call seed chain and every other method's statelessness.
// Run with EGI_UPDATE_GOLDEN=1 to regenerate the file.
std::string DetectDigestPath() {
  return std::string(EGI_TEST_DATA_DIR) + "/detect_digests.txt";
}

std::string DigestLine(const std::string& spec, int call,
                       const std::vector<Detection>& found) {
  std::string line = spec + " call=" + std::to_string(call);
  char buf[32];
  for (const Detection& d : found) {
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<uint64_t>(d.severity)));
    line += " " + std::to_string(d.position) + "/" + std::to_string(d.length) +
            "/" + std::to_string(d.run_length) + "/" + buf;
  }
  return line + "\n";
}

TEST(FacadeTest, EveryRegisteredDetectorDetects) {
  Rng rng(11);
  const auto wafer =
      datasets::MakePlantedSeries(datasets::UcrDataset::kWafer, rng);
  struct Input {
    std::span<const double> series;
    size_t window;
  };
  const Input calls[] = {{wafer.values, 150}, {TestSeries(), kWindow},
                         {wafer.values, 150}};

  std::vector<std::string> specs;
  for (const auto& info : ListDetectors()) specs.emplace_back(info.name);
  for (const char* spec :
       {"ensemble:n=10,seed=7,prune_to=4", "gi-random:wmax=6,amax=5,seed=9",
        "gi-fix:w=6,a=5", "gi-select:wmax=6,amax=6,train=0.2"}) {
    specs.emplace_back(spec);
  }

  std::string digest;
  for (const std::string& spec : specs) {
    auto session = Session::Open(spec);
    ASSERT_TRUE(session.ok()) << spec;
    for (int call = 0; call < 3; ++call) {
      auto result =
          session->Detect(calls[call].series, calls[call].window, 3);
      ASSERT_TRUE(result.ok()) << spec;
      EXPECT_FALSE(result->empty()) << spec;
      digest += DigestLine(spec, call, *result);
    }
  }

  if (GetEnvBool("EGI_UPDATE_GOLDEN", false)) {
    std::ofstream out(DetectDigestPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << DetectDigestPath();
    out << digest;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "detect digests regenerated at " << DetectDigestPath();
  }
  std::ifstream in(DetectDigestPath());
  ASSERT_TRUE(in.good()) << "missing " << DetectDigestPath()
                         << " (run with EGI_UPDATE_GOLDEN=1 to create it)";
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(digest, expected);
}

INSTANTIATE_TEST_SUITE_P(Threads, FacadeEquivalenceTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace egi
