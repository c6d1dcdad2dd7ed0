#include "egi/session.h"

#include <pthread.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "api/internal.h"
#include "egi/telemetry.h"
#include "exec/parallel.h"
#include "serialize/format.h"
#include "stream/detector.h"
#include "util/check.h"

namespace egi {

namespace {

telemetry::Registry& Telemetry() { return telemetry::Registry::Global(); }

Detection ToDetection(const core::Anomaly& a) {
  Detection d;
  d.position = a.position;
  d.length = a.length;
  d.severity = a.severity;
  d.run_length = a.run_length;
  return d;
}

}  // namespace

// ------------------------------------------------------------- StreamSession

struct StreamSession::Impl {
  explicit Impl(stream::StreamDetector d) : detector(std::move(d)) {}
  stream::StreamDetector detector;
};

StreamSession::StreamSession(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
StreamSession::StreamSession(StreamSession&&) noexcept = default;
StreamSession& StreamSession::operator=(StreamSession&&) noexcept = default;
StreamSession::~StreamSession() = default;

StreamPoint StreamSession::Append(double value) {
  return impl_->detector.Append(value);
}

std::vector<StreamPoint> StreamSession::Ingest(std::span<const double> values) {
  return impl_->detector.Ingest(values);
}

Status StreamSession::ForceRefit() { return impl_->detector.ForceRefit(); }

size_t StreamSession::window_length() const {
  return impl_->detector.window_length();
}
uint64_t StreamSession::total_appended() const {
  return impl_->detector.total_appended();
}
size_t StreamSession::buffered() const { return impl_->detector.buffered(); }
uint64_t StreamSession::refit_count() const {
  return impl_->detector.refit_count();
}
bool StreamSession::fitted() const { return impl_->detector.fitted(); }

double StreamSession::RollingMean() const {
  return impl_->detector.window().WindowMean();
}
double StreamSession::RollingStdDev() const {
  return impl_->detector.window().WindowStdDev();
}

std::vector<double> StreamSession::BufferSnapshot() const {
  return impl_->detector.BufferSnapshot();
}
std::vector<double> StreamSession::ScoresSnapshot() const {
  return impl_->detector.ScoresSnapshot();
}

std::vector<uint8_t> StreamSession::Checkpoint() const {
  return impl_->detector.Serialize();
}

Result<StreamSession> StreamSession::Restore(std::span<const uint8_t> blob) {
  EGI_ASSIGN_OR_RETURN(auto detector, stream::StreamDetector::Deserialize(blob));
  return StreamSession(std::make_unique<Impl>(std::move(detector)));
}

// ----------------------------------------------------------------- StreamHub

// The hub owns its detectors directly: stream ids index `streams` and
// `callbacks`, and batch work is sharded with one chunk per stream, so each
// detector is only ever touched by one worker per call. That is why
// detectors need no locks and why every per-stream output is identical for
// every thread count.
struct StreamHub::Impl {
  explicit Impl(stream::StreamDetectorOptions options)
      : defaults(std::move(options)),
        parallelism(defaults.ensemble.parallelism) {}

  // A restored detector refits at this hub's width, not its writer's.
  std::unique_ptr<stream::StreamDetector> Adopt(
      stream::StreamDetector detector) const {
    detector.set_parallelism(parallelism);
    return std::make_unique<stream::StreamDetector>(std::move(detector));
  }

  void CheckStream(size_t id) const {
    EGI_CHECK(id < streams.size()) << "unknown stream " << id;
  }
  stream::StreamDetector& At(size_t id) const {
    CheckStream(id);
    return *streams[id];
  }

  void IngestOne(size_t id, std::span<const double> values,
                 std::vector<StreamPoint>* out) {
    // Ingest latency is measured here, per batch, not per point: one clock
    // pair amortized over the whole span keeps the enabled overhead on the
    // Append hot path to counter increments only.
    static auto* batch_hist =
        Telemetry().GetHistogram("stream.ingest_batch_seconds");
    telemetry::ScopedTimer timer(batch_hist);
    stream::StreamDetector& detector = *streams[id];
    const Callback& callback = callbacks[id];
    for (const double v : values) {
      const StreamPoint pt = detector.Append(v);
      if (callback) callback(id, pt);
      if (out != nullptr) out->push_back(pt);
    }
  }

  stream::StreamDetectorOptions defaults;  // every AddStream() uses these
  exec::Parallelism parallelism;           // shards batches across streams
  std::vector<std::unique_ptr<stream::StreamDetector>> streams;
  std::vector<Callback> callbacks;  // parallel to streams
};

StreamHub::StreamHub(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
StreamHub::StreamHub(StreamHub&&) noexcept = default;
StreamHub& StreamHub::operator=(StreamHub&&) noexcept = default;
StreamHub::~StreamHub() = default;

size_t StreamHub::AddStream() {
  impl_->streams.push_back(
      std::make_unique<stream::StreamDetector>(impl_->defaults));
  impl_->callbacks.emplace_back();
  return impl_->streams.size() - 1;
}

void StreamHub::SetCallback(size_t stream, Callback callback) {
  impl_->CheckStream(stream);
  impl_->callbacks[stream] = std::move(callback);
}

void StreamHub::Ingest(std::span<const HubBatch> batches) {
  // Each stream must be advanced by exactly one worker for the lock-free
  // sharding to be sound; reject duplicate ids up front.
  std::vector<size_t> ids;
  ids.reserve(batches.size());
  for (const HubBatch& b : batches) {
    impl_->CheckStream(b.stream);
    ids.push_back(b.stream);
  }
  std::sort(ids.begin(), ids.end());
  EGI_CHECK(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "duplicate stream id in one Ingest call";

  // One chunk per batch: streams advance independently, so the result is
  // identical for every thread count. Refits inside a worker run serially
  // (nested parallel regions execute inline).
  exec::ParallelFor(impl_->parallelism, 0, batches.size(), /*grain=*/1,
                    [&](size_t i) {
                      impl_->IngestOne(batches[i].stream, batches[i].values,
                                       /*out=*/nullptr);
                    });
}

std::vector<StreamPoint> StreamHub::Ingest(size_t stream,
                                           std::span<const double> values) {
  impl_->CheckStream(stream);
  std::vector<StreamPoint> out;
  out.reserve(values.size());
  impl_->IngestOne(stream, values, &out);
  return out;
}

size_t StreamHub::num_streams() const { return impl_->streams.size(); }

HubStreamStats StreamHub::Stats(size_t stream) const {
  const stream::StreamDetector& d = impl_->At(stream);
  HubStreamStats out;
  out.total_appended = d.total_appended();
  out.buffered = d.buffered();
  out.refit_count = d.refit_count();
  out.fitted = d.fitted();
  out.window_length = d.window_length();
  return out;
}

std::vector<double> StreamHub::RecentScores(size_t stream,
                                            size_t max_points) const {
  std::vector<double> scores = impl_->At(stream).ScoresSnapshot();
  if (scores.size() > max_points) {
    scores.erase(scores.begin(),
                 scores.end() - static_cast<ptrdiff_t>(max_points));
  }
  return scores;
}

std::vector<uint8_t> StreamHub::Checkpoint() const {
  return Checkpoint(SectionGuard());
}

std::vector<uint8_t> StreamHub::Checkpoint(const SectionGuard& guard) const {
  // Per-stream detector blobs, produced concurrently. Each section is a
  // full detector snapshot (own envelope + checksum), so CheckpointStream()
  // and a section split out of this blob are the same bytes.
  const auto& streams = impl_->streams;
  std::vector<std::vector<uint8_t>> sections(streams.size());
  exec::ParallelFor(impl_->parallelism, 0, streams.size(), /*grain=*/1,
                    [&](size_t i) {
                      if (!guard) {
                        sections[i] = streams[i]->Serialize();
                        return;
                      }
                      guard(i, /*acquire=*/true);
                      try {
                        sections[i] = streams[i]->Serialize();
                      } catch (...) {
                        guard(i, /*acquire=*/false);
                        throw;
                      }
                      guard(i, /*acquire=*/false);
                    });

  std::vector<uint8_t> blob = serialize::JoinEngineSections(sections);
  Telemetry().journal().Emit("engine.save_all",
                             {{"streams", std::to_string(sections.size())},
                              {"bytes", std::to_string(blob.size())}});
  return blob;
}

Status StreamHub::Restore(std::span<const uint8_t> blob) {
  EGI_ASSIGN_OR_RETURN(const auto sections,
                       serialize::SplitEngineSections(blob));
  const size_t count = sections.size();

  // Decode all sections concurrently; commit only if every one restored.
  std::vector<std::unique_ptr<stream::StreamDetector>> restored(count);
  std::vector<Status> statuses(count);
  exec::ParallelFor(impl_->parallelism, 0, count, /*grain=*/1, [&](size_t i) {
    auto result = stream::StreamDetector::Deserialize(sections[i]);
    if (result.ok()) {
      restored[i] = impl_->Adopt(std::move(*result));
    } else {
      statuses[i] = result.status();
    }
  });
  for (size_t i = 0; i < count; ++i) {
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(), "stream " + std::to_string(i) + ": " +
                                            statuses[i].message());
    }
  }
  impl_->streams = std::move(restored);
  impl_->callbacks.assign(count, Callback());
  Telemetry().journal().Emit("engine.load_all",
                             {{"streams", std::to_string(count)},
                              {"bytes", std::to_string(blob.size())}});
  return Status::OK();
}

Result<std::vector<uint8_t>> StreamHub::CheckpointStream(size_t stream) const {
  if (stream >= impl_->streams.size()) {
    return Status::NotFound("unknown stream " + std::to_string(stream));
  }
  return impl_->streams[stream]->Serialize();
}

Status StreamHub::RestoreStream(size_t stream,
                                std::span<const uint8_t> blob) {
  if (stream >= impl_->streams.size()) {
    return Status::NotFound("unknown stream " + std::to_string(stream));
  }
  EGI_ASSIGN_OR_RETURN(auto detector, stream::StreamDetector::Deserialize(blob));
  impl_->streams[stream] = impl_->Adopt(std::move(detector));
  impl_->callbacks[stream] = Callback();
  return Status::OK();
}

// ------------------------------------------------------------------- Session

struct Session::Impl {
  Impl(const api::DetectorEntry* e, api::OptionValues v)
      : entry(e),
        values(std::move(v)),
        next_seed(values.Has("seed") ? values.GetUint("seed") : 0) {}

  const api::DetectorEntry* entry;
  api::OptionValues values;
  // Per-call seed chain of randomized methods (see DetectorEntry::detect).
  uint64_t next_seed;
};

Session::Session(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

namespace {

// Process-wide cache of parsed spec strings. DetectorSpec::Parse is a pure
// function of the string, so the cache can never go stale; it exists because
// services open sessions from a handful of fixed config strings over and
// over. Bounded so adversarial spec churn cannot grow it without limit —
// eviction is "clear everything", which is both trivially correct and fine
// for a cache whose steady state is a few entries. The mutex is held across
// fork() so a child never inherits it locked mid-update.
std::mutex g_spec_cache_mu;
const bool g_spec_cache_fork_safe =
    pthread_atfork([] { g_spec_cache_mu.lock(); },
                   [] { g_spec_cache_mu.unlock(); },
                   [] { g_spec_cache_mu.unlock(); }) == 0;

Result<DetectorSpec> ParseSpecCached(std::string_view spec) {
  static auto* hits = Telemetry().GetCounter("session.spec_cache_hits");
  static auto* misses = Telemetry().GetCounter("session.spec_cache_misses");
  constexpr size_t kMaxCachedSpecs = 256;
  static std::unordered_map<std::string, DetectorSpec> cache;

  std::string key(spec);
  {
    std::lock_guard<std::mutex> lock(g_spec_cache_mu);
    auto it = cache.find(key);
    if (it != cache.end()) {
      hits->Add(1);
      return it->second;
    }
  }
  misses->Add(1);
  EGI_ASSIGN_OR_RETURN(auto parsed, DetectorSpec::Parse(spec));
  {
    std::lock_guard<std::mutex> lock(g_spec_cache_mu);
    if (cache.size() >= kMaxCachedSpecs) cache.clear();
    cache.emplace(std::move(key), parsed);
  }
  return parsed;
}

}  // namespace

Result<Session> Session::Open(std::string_view spec) {
  EGI_ASSIGN_OR_RETURN(auto parsed, ParseSpecCached(spec));
  return Open(parsed);
}

Result<Session> Session::Open(const DetectorSpec& spec) {
  static auto* open_hist = Telemetry().GetHistogram("session.open_seconds");
  telemetry::ScopedTimer timer(open_hist);
  const api::DetectorEntry* entry = api::FindEntry(spec.method);
  if (entry == nullptr) return api::UnknownDetectorError(spec.method);
  EGI_ASSIGN_OR_RETURN(auto values, api::ResolveOptions(*entry, spec));
  return Session(std::make_unique<Impl>(entry, std::move(values)));
}

std::string Session::MetricsJson() { return Telemetry().ToJson(); }

const DetectorInfo& Session::info() const { return impl_->entry->info; }

std::string_view Session::method() const { return impl_->entry->info.name; }

std::string Session::spec() const {
  return api::CanonicalSpec(*impl_->entry, impl_->values);
}

Result<std::vector<Detection>> Session::Detect(std::span<const double> series,
                                               size_t window_length,
                                               size_t max_candidates) {
  static auto* calls = Telemetry().GetCounter("session.detect_calls");
  static auto* hist = Telemetry().GetHistogram("session.detect_seconds");
  calls->Add(1);
  telemetry::ScopedTimer timer(hist);
  EGI_ASSIGN_OR_RETURN(
      auto found,
      impl_->entry->detect(impl_->values, &impl_->next_seed, series,
                           window_length, max_candidates));
  std::vector<Detection> out;
  out.reserve(found.size());
  for (const core::Anomaly& a : found) out.push_back(ToDetection(a));
  return out;
}

Result<std::vector<double>> Session::Score(std::span<const double> series,
                                           size_t window_length) {
  static auto* calls = Telemetry().GetCounter("session.score_calls");
  static auto* hist = Telemetry().GetHistogram("session.score_seconds");
  calls->Add(1);
  telemetry::ScopedTimer timer(hist);
  if (impl_->entry->score == nullptr) {
    return Status::FailedPrecondition(
        "method '" + std::string(method()) +
        "' has no point-wise score curve (see DetectorInfo::supports_score)");
  }
  return impl_->entry->score(impl_->values, series, window_length);
}

namespace {

Result<stream::StreamDetectorOptions> StreamOptionsFor(
    const api::DetectorEntry& entry, const api::OptionValues& values,
    const StreamOptions& options) {
  if (entry.ensemble == nullptr) {
    return Status::FailedPrecondition(
        "method '" + std::string(entry.info.name) +
        "' does not support streaming (see DetectorInfo::supports_streaming)");
  }
  stream::StreamDetectorOptions out;
  out.ensemble = entry.ensemble(values);
  out.ensemble.window_length = options.window_length;
  out.buffer_capacity = options.buffer_capacity;
  out.refit_interval = options.refit_interval;
  out.refit_policy = options.refit_policy;
  out.refit_interval_max = options.refit_interval_max;
  out.drift_tolerance = options.drift_tolerance;
  EGI_RETURN_IF_ERROR(stream::StreamDetector::ValidateOptions(out));
  return out;
}

}  // namespace

Result<StreamSession> Session::OpenStream(const StreamOptions& options) const {
  EGI_ASSIGN_OR_RETURN(auto detector_options,
                       StreamOptionsFor(*impl_->entry, impl_->values, options));
  return StreamSession(std::make_unique<StreamSession::Impl>(
      stream::StreamDetector(detector_options)));
}

Result<StreamHub> Session::OpenHub(const StreamOptions& options) const {
  EGI_ASSIGN_OR_RETURN(auto detector_options,
                       StreamOptionsFor(*impl_->entry, impl_->values, options));
  return StreamHub(
      std::make_unique<StreamHub::Impl>(std::move(detector_options)));
}

}  // namespace egi
