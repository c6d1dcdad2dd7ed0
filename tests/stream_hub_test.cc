// Multi-stream serving through the public StreamHub: sharded ingest, callback
// delivery, guarded checkpoints under live load, and per-stream checkpoint /
// restore (the unit of shard migration). The StreamHubTest suite name is
// kept from the internal class these cases covered before the hub took over
// its streams, so the test ids stay stable.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datasets/random_walk.h"
#include "egi/session.h"
#include "serialize/format.h"
#include "stream/detector.h"
#include "util/rng.h"

namespace egi {
namespace {

StreamOptions SmallOptions() {
  StreamOptions opt;
  opt.window_length = 32;
  opt.buffer_capacity = 192;
  opt.refit_interval = 48;
  return opt;
}

Session SmallSession(int threads) {
  auto session = Session::Open("ensemble:wmax=5,amax=5,n=8,seed=42,threads=" +
                               std::to_string(threads));
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

StreamHub SmallHub(int threads) {
  auto hub = SmallSession(threads).OpenHub(SmallOptions());
  EXPECT_TRUE(hub.ok()) << hub.status();
  return std::move(hub).value();
}

std::vector<std::vector<double>> MakeStreams(size_t count, size_t length) {
  std::vector<std::vector<double>> out;
  for (size_t i = 0; i < count; ++i) {
    Rng rng(100 + i);
    out.push_back(datasets::MakeRandomWalk(length, rng));
  }
  return out;
}

// Runs `num_streams` independent series through a hub at the given thread
// count, chunked into per-stream batches, and returns every stream's
// callback-observed score sequence.
std::vector<std::vector<StreamPoint>> RunHub(
    const std::vector<std::vector<double>>& data, int threads,
    size_t chunk = 50) {
  StreamHub hub = SmallHub(threads);

  std::vector<std::vector<StreamPoint>> observed(data.size());
  for (size_t s = 0; s < data.size(); ++s) {
    const size_t id = hub.AddStream();
    EXPECT_EQ(id, s);
    hub.SetCallback(id, [&observed](size_t sid, const StreamPoint& pt) {
      observed[sid].push_back(pt);  // one worker per stream: no lock needed
    });
  }

  const size_t length = data[0].size();
  for (size_t off = 0; off < length; off += chunk) {
    const size_t len = std::min(chunk, length - off);
    std::vector<HubBatch> batches;
    for (size_t s = 0; s < data.size(); ++s) {
      batches.push_back(
          HubBatch{s, std::span<const double>(data[s]).subspan(off, len)});
    }
    hub.Ingest(batches);
  }
  return observed;
}

void ExpectSameScores(const std::vector<std::vector<StreamPoint>>& a,
                      const std::vector<std::vector<StreamPoint>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (size_t i = 0; i < a[s].size(); ++i) {
      ASSERT_EQ(a[s][i].index, b[s][i].index);
      ASSERT_EQ(a[s][i].score, b[s][i].score) << "stream " << s << " pt " << i;
      ASSERT_EQ(a[s][i].scored, b[s][i].scored);
      ASSERT_EQ(a[s][i].provisional, b[s][i].provisional);
      ASSERT_EQ(a[s][i].refit, b[s][i].refit);
    }
  }
}

// Sharding across the pool must not change any stream's output: results at
// 2 and 4 threads are bitwise-identical to the single-threaded run, which
// in turn matches a standalone StreamSession fed the same points.
TEST(StreamHubTest, PerStreamResultsIdenticalForEveryThreadCount) {
  const auto data = MakeStreams(5, 400);
  const auto serial = RunHub(data, 1);

  for (const int threads : {2, 4}) {
    ExpectSameScores(serial, RunHub(data, threads));
  }

  for (size_t s = 0; s < data.size(); ++s) {
    auto standalone = SmallSession(1).OpenStream(SmallOptions());
    ASSERT_TRUE(standalone.ok()) << standalone.status();
    const auto direct = standalone->Ingest(data[s]);
    ASSERT_EQ(direct.size(), serial[s].size());
    for (size_t i = 0; i < direct.size(); ++i) {
      ASSERT_EQ(direct[i].score, serial[s][i].score);
      ASSERT_EQ(direct[i].refit, serial[s][i].refit);
    }
  }
}

TEST(StreamHubTest, CallbackSeesEveryPointInOrder) {
  const auto data = MakeStreams(3, 120);
  const auto observed = RunHub(data, 4, /*chunk=*/7);
  for (size_t s = 0; s < data.size(); ++s) {
    ASSERT_EQ(observed[s].size(), data[s].size());
    for (size_t i = 0; i < observed[s].size(); ++i) {
      EXPECT_EQ(observed[s][i].index, i);
      EXPECT_EQ(observed[s][i].value, data[s][i]);
    }
  }
}

TEST(StreamHubTest, SingleStreamIngestReturnsScores) {
  StreamHub hub = SmallHub(1);
  const size_t id = hub.AddStream();

  Rng rng(9);
  const auto series = datasets::MakeRandomWalk(100, rng);
  const auto scored = hub.Ingest(id, series);
  ASSERT_EQ(scored.size(), series.size());
  EXPECT_EQ(hub.Stats(id).total_appended, series.size());
  EXPECT_TRUE(hub.Stats(id).fitted);
}

TEST(StreamHubTest, GuardedSaveAllBracketsEverySection) {
  StreamHub hub = SmallHub(1);
  const auto data = MakeStreams(3, 100);
  for (size_t s = 0; s < data.size(); ++s) {
    hub.AddStream();
    hub.Ingest(s, data[s]);
  }

  std::vector<std::pair<size_t, bool>> calls;
  const auto blob = hub.Checkpoint([&](size_t id, bool acquire) {
    calls.emplace_back(id, acquire);
  });
  // Serial checkpoint: acquire/release strictly bracket each section, one
  // pair per stream, and the guarded blob is byte-identical to the plain one.
  ASSERT_EQ(calls.size(), 6u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(calls[2 * s], std::make_pair(s, true));
    EXPECT_EQ(calls[2 * s + 1], std::make_pair(s, false));
  }
  EXPECT_EQ(blob, hub.Checkpoint());
}

TEST(StreamHubTest, CheckpointUnderLoadCapturesConsistentSections) {
  // The daemon's checkpoint-under-load pattern: one thread keeps ingesting
  // (under per-stream locks), another runs Checkpoint with a guard taking
  // the same locks. Every captured section must be a consistent
  // point-in-time snapshot: restoring it and replaying the remaining feed
  // must match a clean stream fed the same prefix + remainder bitwise.
  constexpr size_t kStreams = 4;
  constexpr size_t kPoints = 600;
  constexpr size_t kChunk = 25;
  const auto data = MakeStreams(kStreams, kPoints);

  StreamHub hub = SmallHub(2);
  for (size_t s = 0; s < kStreams; ++s) hub.AddStream();

  std::vector<std::mutex> locks(kStreams);
  std::atomic<bool> done{false};
  std::vector<std::vector<uint8_t>> checkpoints;

  std::thread checkpointer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      checkpoints.push_back(hub.Checkpoint([&](size_t id, bool acquire) {
        if (acquire) {
          locks[id].lock();
        } else {
          locks[id].unlock();
        }
      }));
    }
  });

  for (size_t off = 0; off < kPoints; off += kChunk) {
    const size_t len = std::min(kChunk, kPoints - off);
    for (size_t s = 0; s < kStreams; ++s) {
      std::lock_guard<std::mutex> hold(locks[s]);
      hub.Ingest(s, std::span<const double>(data[s]).subspan(off, len));
    }
  }
  done.store(true, std::memory_order_relaxed);
  checkpointer.join();
  ASSERT_FALSE(checkpoints.empty());

  // Verify a sample of captured checkpoints (all when few): restore, note
  // each stream's position, replay the tail, and demand bitwise identity
  // with an uninterrupted reference run.
  const auto reference = RunHub(data, /*threads=*/1);
  size_t verified = 0;
  const size_t step = std::max<size_t>(1, checkpoints.size() / 8);
  for (size_t c = 0; c < checkpoints.size(); c += step) {
    StreamHub restored = SmallHub(2);
    ASSERT_TRUE(restored.Restore(checkpoints[c]).ok()) << "checkpoint " << c;
    ASSERT_EQ(restored.num_streams(), kStreams);
    for (size_t s = 0; s < kStreams; ++s) {
      const uint64_t at = restored.Stats(s).total_appended;
      ASSERT_LE(at, kPoints);
      // Ingest chunks are all-or-nothing under the lock, so a consistent
      // section can only land on a chunk boundary; a torn section would
      // surface here as a mid-chunk position (or as score divergence below).
      EXPECT_EQ(at % kChunk, 0u) << "checkpoint " << c << " stream " << s;
      const auto tail =
          std::span<const double>(data[s]).subspan(static_cast<size_t>(at));
      const auto continued = restored.Ingest(s, tail);
      ASSERT_EQ(continued.size(), kPoints - at);
      for (size_t i = 0; i < continued.size(); ++i) {
        ASSERT_EQ(continued[i].score, reference[s][at + i].score)
            << "checkpoint " << c << " stream " << s << " pt " << i;
        ASSERT_EQ(continued[i].scored, reference[s][at + i].scored);
      }
    }
    ++verified;
  }
  EXPECT_GE(verified, 1u);
}

// Per-stream checkpoint (the unit of shard migration) must be byte-identical
// to the stream's section inside a whole-hub checkpoint — one format, two
// granularities.
TEST(StreamHubTest, SaveStreamMatchesEngineBlobSection) {
  StreamHub hub = SmallHub(1);
  const auto data = MakeStreams(3, 150);
  for (size_t s = 0; s < data.size(); ++s) {
    hub.AddStream();
    hub.Ingest(s, data[s]);
  }

  const auto blob = hub.Checkpoint();
  auto sections = serialize::SplitEngineSections(blob);
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_EQ(sections->size(), data.size());
  for (size_t s = 0; s < data.size(); ++s) {
    auto standalone = hub.CheckpointStream(s);
    ASSERT_TRUE(standalone.ok()) << standalone.status();
    const std::span<const uint8_t> section = (*sections)[s];
    EXPECT_EQ(std::vector<uint8_t>(section.begin(), section.end()),
              *standalone)
        << "stream " << s;
    auto detector = stream::StreamDetector::Deserialize(section);
    ASSERT_TRUE(detector.ok()) << detector.status();
    EXPECT_EQ(detector->total_appended(), data[s].size());
  }
  EXPECT_FALSE(hub.CheckpointStream(99).ok());
}

// A stream moved between hubs via CheckpointStream/RestoreStream continues
// scoring bitwise-identically to one that never moved.
TEST(StreamHubTest, SaveLoadStreamContinuesBitwiseIdentically) {
  const auto data = MakeStreams(1, 300);
  const std::span<const double> first(data[0].data(), 170);
  const std::span<const double> rest(data[0].data() + 170, 130);

  StreamHub stayed = SmallHub(1);
  stayed.AddStream();
  stayed.Ingest(0, first);

  StreamHub source = SmallHub(1);
  source.AddStream();
  source.Ingest(0, first);
  auto blob = source.CheckpointStream(0);
  ASSERT_TRUE(blob.ok()) << blob.status();

  StreamHub target = SmallHub(1);
  target.AddStream();
  ASSERT_TRUE(target.RestoreStream(0, *blob).ok());
  EXPECT_EQ(target.Stats(0).total_appended, first.size());

  const auto expected = stayed.Ingest(0, rest);
  const auto migrated = target.Ingest(0, rest);
  ASSERT_EQ(expected.size(), migrated.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].score, migrated[i].score) << "point " << i;
    ASSERT_EQ(expected[i].refit, migrated[i].refit);
  }
  EXPECT_FALSE(target.RestoreStream(7, *blob).ok());  // bounds-checked
}

}  // namespace
}  // namespace egi
