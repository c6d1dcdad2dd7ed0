#include "service/hub_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "egi/telemetry.h"
#include "serialize/bytes.h"
#include "serialize/file_io.h"
#include "serialize/format.h"
#include "util/json.h"

namespace egi::service {

namespace {

telemetry::Registry& Telemetry() { return telemetry::Registry::Global(); }

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Points a worker scores per detect-mutex acquisition: large enough to
/// amortize locking, small enough that a checkpoint guard waiting on the
/// mutex gets it promptly.
constexpr size_t kDrainChunk = 512;

}  // namespace

// ------------------------------------------------------------------- state

struct HubService::Impl {
  struct Tenant {
    std::string name;
    size_t live_streams = 0;  // guarded by the exclusive struct lock

    std::mutex mu;  // token bucket below
    double tokens = 0.0;
    uint64_t last_refill_ns = 0;
  };

  struct StreamState {
    std::string tenant_name;
    std::string name;
    Tenant* tenant = nullptr;  // stable: tenants are never destroyed
    bool deleted = false;      // guarded by the exclusive struct lock

    // Accept path (TCP threads): bounded queue + admission counters.
    mutable std::mutex queue_mu;
    std::deque<double> queue;
    uint64_t accepted_total = 0;
    bool scheduled = false;  // on the ready deque or being drained

    // Score path (drain workers + checkpoint guard).
    mutable std::mutex detect_mu;
    std::atomic<uint64_t> scored_total{0};
    std::atomic<double> last_score{0.0};
    std::atomic<bool> last_scored{false};
  };

  Impl(HubServiceOptions opts, Session session, StreamHub hub)
      : options(std::move(opts)),
        session(std::move(session)),
        hub(std::move(hub)),
        now_ns(options.now_ns ? options.now_ns : SteadyNowNs) {}

  HubServiceOptions options;
  Session session;

  // Structural lock: CreateStream / DeleteStream / RestoreFromDisk take it
  // exclusively; ingest, queries, and checkpoints take it shared. Stream
  // and tenant objects are held by pointer so they never move.
  mutable std::shared_mutex struct_mu;
  StreamHub hub;
  std::vector<std::unique_ptr<StreamState>> streams;
  std::unordered_map<std::string, std::unique_ptr<Tenant>> tenants;

  std::function<uint64_t()> now_ns;
  std::atomic<bool> draining{false};
  std::atomic<size_t> last_checkpoint_bytes{0};

  // Drain scheduling.
  std::mutex ready_mu;
  std::condition_variable ready_cv;
  std::deque<size_t> ready;
  bool stop_workers = false;
  std::vector<std::thread> workers;

  // Flush accounting: points accepted but not yet scored.
  std::atomic<uint64_t> pending_points{0};
  std::mutex flush_mu;
  std::condition_variable flush_cv;

  bool shut_down = false;
  std::mutex shutdown_mu;

  // --- helpers ---
  // A stream id that names a live (created, not deleted) stream; callers
  // hold the structural lock.
  bool Live(size_t id) const {
    return id < streams.size() && !streams[id]->deleted;
  }
  static Status NoStream(size_t id) {
    return Status::NotFound("no stream " + std::to_string(id));
  }
  bool ConsumeQuota(Tenant& tenant, size_t count);
  // `n` queued points left the queue (scored or dropped); wakes Flush
  // when none remain.
  void RetirePending(size_t n) {
    if (pending_points.fetch_sub(n, std::memory_order_acq_rel) == n) {
      std::lock_guard<std::mutex> lock(flush_mu);
      flush_cv.notify_all();
    }
  }

  // Admission counters of stream `id` rebuilt from its restored detector:
  // the detector is the source of truth for how many points it consumed.
  void SyncCountersFromHub(size_t id) {
    StreamState& st = *streams[id];
    st.accepted_total = hub.Stats(id).total_appended;
    st.scored_total.store(st.accepted_total, std::memory_order_relaxed);
    const std::vector<double> last = hub.RecentScores(id, 1);
    const bool scored = !last.empty() && !std::isnan(last.back());
    st.last_score.store(scored ? last.back() : 0.0, std::memory_order_relaxed);
    st.last_scored.store(scored, std::memory_order_relaxed);
  }

  // Runs `fn()` under the queue and detect locks of a live stream whose
  // every acked point is scored; NotFound / FailedPrecondition otherwise.
  // Both locks: queue empty alone is not enough — a drain worker pops a
  // chunk off the queue *before* scoring it, so a blob would miss those
  // points. accepted == scored under both locks means every acked point is
  // inside the detector.
  template <typename Fn>
  auto WithDrainedStream(size_t id, Fn fn) const -> decltype(fn()) {
    std::shared_lock<std::shared_mutex> structural(struct_mu);
    if (!Live(id)) return NoStream(id);
    StreamState& st = *streams[id];
    std::scoped_lock lock(st.queue_mu, st.detect_mu);
    if (!st.queue.empty() ||
        st.accepted_total != st.scored_total.load(std::memory_order_relaxed)) {
      return Status::FailedPrecondition(
          "stream " + std::to_string(id) +
          " still has unscored points; flush first");
    }
    return fn();
  }

  void DrainStream(size_t id);
  void WorkerLoop();
  Tenant* GetOrCreateTenant(const std::string& name);  // excl. lock held
  StreamInfo DescribeLocked(size_t id) const;          // shared lock held
};

// ------------------------------------------------------------- construction

HubService::HubService(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Result<std::unique_ptr<HubService>> HubService::Create(
    HubServiceOptions options) {
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (options.num_workers == 0) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options.quota_burst < 0.0 || options.points_per_second < 0.0 ||
      !std::isfinite(options.quota_burst) ||
      !std::isfinite(options.points_per_second)) {
    return Status::InvalidArgument("quota options must be finite and >= 0");
  }
  EGI_ASSIGN_OR_RETURN(auto session, Session::Open(options.spec));
  EGI_ASSIGN_OR_RETURN(auto hub, session.OpenHub(options.stream));

  auto impl = std::make_unique<Impl>(std::move(options), std::move(session),
                                     std::move(hub));
  auto service =
      std::unique_ptr<HubService>(new HubService(std::move(impl)));
  EGI_RETURN_IF_ERROR(service->RestoreFromDisk());
  Impl& impl_ref = *service->impl_;
  for (size_t i = 0; i < impl_ref.options.num_workers; ++i) {
    impl_ref.workers.emplace_back([&impl_ref] { impl_ref.WorkerLoop(); });
  }
  return service;
}

HubService::~HubService() {
  if (impl_ != nullptr) Shutdown();  // final-checkpoint errors are dropped
}

// ------------------------------------------------------------------ tenants

HubService::Impl::Tenant* HubService::Impl::GetOrCreateTenant(
    const std::string& name) {
  auto it = tenants.find(name);
  if (it != tenants.end()) return it->second.get();
  auto tenant = std::make_unique<Tenant>();
  tenant->name = name;
  const double rate = options.points_per_second;
  tenant->tokens =
      options.quota_burst > 0.0 ? options.quota_burst : rate;
  tenant->last_refill_ns = now_ns();
  Tenant* raw = tenant.get();
  tenants.emplace(name, std::move(tenant));
  return raw;
}

bool HubService::Impl::ConsumeQuota(Tenant& tenant, size_t count) {
  const double rate = options.points_per_second;
  if (rate <= 0.0) return true;
  const double burst =
      options.quota_burst > 0.0 ? options.quota_burst : rate;
  std::lock_guard<std::mutex> lock(tenant.mu);
  const uint64_t now = now_ns();
  if (now > tenant.last_refill_ns) {
    const double elapsed =
        static_cast<double>(now - tenant.last_refill_ns) * 1e-9;
    tenant.tokens = std::min(burst, tenant.tokens + elapsed * rate);
  }
  tenant.last_refill_ns = now;
  if (tenant.tokens < static_cast<double>(count)) return false;
  tenant.tokens -= static_cast<double>(count);
  return true;
}

// --------------------------------------------------------------- data plane

IngestResponse HubService::HandleIngest(const IngestRequest& request) {
  static const IngestCounters counters("service");
  static auto* accepted = Telemetry().GetCounter("service.points_accepted");
  IngestResponse resp;
  if (AdmitFrame(request, impl_->draining.load(std::memory_order_relaxed),
                 counters, &resp)) {
    return resp;
  }
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (!impl_->Live(request.stream)) {
    return counters.Reject(request.stream, RejectReason::kUnknownStream);
  }
  Impl::StreamState& st = *impl_->streams[request.stream];
  if (!impl_->ConsumeQuota(*st.tenant, request.values.size())) {
    return counters.Reject(request.stream, RejectReason::kRateLimited);
  }

  bool need_schedule = false;
  {
    std::lock_guard<std::mutex> lock(st.queue_mu);
    if (impl_->options.queue_capacity - st.queue.size() <
        request.values.size()) {
      return counters.Reject(request.stream, RejectReason::kQueueFull);
    }
    st.queue.insert(st.queue.end(), request.values.begin(),
                    request.values.end());
    st.accepted_total += request.values.size();
    resp.accepted_total = st.accepted_total;
    if (!st.scheduled && !st.queue.empty()) {
      st.scheduled = true;
      need_schedule = true;
    }
  }
  impl_->pending_points.fetch_add(request.values.size(),
                                  std::memory_order_relaxed);
  accepted->Add(request.values.size());
  if (need_schedule) {
    std::lock_guard<std::mutex> lock(impl_->ready_mu);
    impl_->ready.push_back(request.stream);
    impl_->ready_cv.notify_one();
  }
  resp.type = FrameType::kAck;
  resp.scored_total = st.scored_total.load(std::memory_order_relaxed);
  resp.last_score = st.last_score.load(std::memory_order_relaxed);
  resp.last_scored = st.last_scored.load(std::memory_order_relaxed);
  return resp;
}

// ------------------------------------------------------------ drain workers

void HubService::Impl::WorkerLoop() {
  while (true) {
    size_t id = 0;
    {
      std::unique_lock<std::mutex> lock(ready_mu);
      ready_cv.wait(lock, [this] { return stop_workers || !ready.empty(); });
      if (ready.empty()) return;  // stop_workers set and nothing queued
      id = ready.front();
      ready.pop_front();
    }
    DrainStream(id);
  }
}

void HubService::Impl::DrainStream(size_t id) {
  static auto* scored_counter =
      Telemetry().GetCounter("service.points_scored");
  static auto* drain_hist =
      Telemetry().GetHistogram("service.drain_seconds");

  // Shared structural lock for the whole drain: stream objects cannot be
  // replaced (RestoreFromDisk is exclusive) while a worker advances one.
  std::shared_lock<std::shared_mutex> structural(struct_mu);
  if (id >= streams.size()) return;
  StreamState& st = *streams[id];

  std::vector<double> chunk;
  while (true) {
    chunk.clear();
    {
      std::lock_guard<std::mutex> lock(st.queue_mu);
      const size_t take = std::min(st.queue.size(), kDrainChunk);
      if (take == 0) {
        st.scheduled = false;  // enqueue path will re-schedule
        return;
      }
      chunk.assign(st.queue.begin(),
                   st.queue.begin() + static_cast<ptrdiff_t>(take));
      st.queue.erase(st.queue.begin(),
                     st.queue.begin() + static_cast<ptrdiff_t>(take));
    }
    {
      telemetry::ScopedTimer timer(drain_hist);
      std::lock_guard<std::mutex> lock(st.detect_mu);
      const std::vector<StreamPoint> points = hub.Ingest(id, chunk);
      st.scored_total.fetch_add(points.size(), std::memory_order_relaxed);
      for (auto it = points.rbegin(); it != points.rend(); ++it) {
        if (it->scored) {
          st.last_score.store(it->score, std::memory_order_relaxed);
          st.last_scored.store(true, std::memory_order_relaxed);
          break;
        }
      }
    }
    scored_counter->Add(chunk.size());
    RetirePending(chunk.size());
  }
}

void HubService::Flush() {
  std::unique_lock<std::mutex> lock(impl_->flush_mu);
  impl_->flush_cv.wait(lock, [this] {
    return impl_->pending_points.load(std::memory_order_acquire) == 0;
  });
}

// ----------------------------------------------------------- stream control

Result<size_t> HubService::CreateStream(std::string tenant,
                                        std::string name) {
  static auto* created = Telemetry().GetCounter("service.streams_created");
  if (impl_->draining.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("service is draining");
  }
  EGI_RETURN_IF_ERROR(ValidateStreamLabels(tenant, name));
  std::unique_lock<std::shared_mutex> structural(impl_->struct_mu);
  Impl::Tenant* owner = impl_->GetOrCreateTenant(tenant);
  if (impl_->options.max_streams_per_tenant != 0 &&
      owner->live_streams >= impl_->options.max_streams_per_tenant) {
    return Status::FailedPrecondition(
        "tenant '" + tenant + "' is at its stream quota (" +
        std::to_string(impl_->options.max_streams_per_tenant) + ")");
  }
  const size_t id = impl_->hub.AddStream();
  auto st = std::make_unique<Impl::StreamState>();
  st->tenant_name = std::move(tenant);
  st->name = std::move(name);
  st->tenant = owner;
  impl_->streams.push_back(std::move(st));
  owner->live_streams += 1;
  created->Add(1);
  Telemetry().journal().Emit(
      "service.stream_created",
      {{"stream", std::to_string(id)},
       {"tenant", impl_->streams[id]->tenant_name}});
  return id;
}

Status HubService::DeleteStream(size_t stream) {
  static auto* deleted = Telemetry().GetCounter("service.streams_deleted");
  std::unique_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (!impl_->Live(stream)) return Impl::NoStream(stream);
  Impl::StreamState& st = *impl_->streams[stream];
  st.deleted = true;
  st.tenant->live_streams -= 1;
  // Drop anything still queued; the detector state stays (tombstoned
  // sections still checkpoint, keeping ids positionally stable).
  {
    std::lock_guard<std::mutex> lock(st.queue_mu);
    if (!st.queue.empty()) impl_->RetirePending(st.queue.size());
    st.queue.clear();
  }
  deleted->Add(1);
  return Status::OK();
}

// ---------------------------------------------------------------- queries

StreamInfo HubService::Impl::DescribeLocked(size_t id) const {
  const StreamState& st = *streams[id];
  StreamInfo info;
  info.stream = id;
  info.tenant = st.tenant_name;
  info.name = st.name;
  {
    std::lock_guard<std::mutex> lock(st.queue_mu);
    info.accepted_total = st.accepted_total;
    info.queued = st.queue.size();
  }
  info.scored_total = st.scored_total.load(std::memory_order_relaxed);
  info.last_score = st.last_score.load(std::memory_order_relaxed);
  info.last_scored = st.last_scored.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(st.detect_mu);
    info.stats = hub.Stats(id);
  }
  return info;
}

Result<StreamInfo> HubService::Describe(size_t stream) const {
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (!impl_->Live(stream)) return Impl::NoStream(stream);
  return impl_->DescribeLocked(stream);
}

std::vector<StreamInfo> HubService::List() const {
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  std::vector<StreamInfo> out;
  out.reserve(impl_->streams.size());
  for (size_t i = 0; i < impl_->streams.size(); ++i) {
    if (impl_->Live(i)) out.push_back(impl_->DescribeLocked(i));
  }
  return out;
}

Result<std::vector<double>> HubService::RecentScores(
    size_t stream, size_t max_points) const {
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (!impl_->Live(stream)) return Impl::NoStream(stream);
  std::lock_guard<std::mutex> lock(impl_->streams[stream]->detect_mu);
  return impl_->hub.RecentScores(stream, max_points);
}

size_t HubService::num_streams() const {
  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  size_t live = 0;
  for (const auto& st : impl_->streams) {
    if (!st->deleted) ++live;
  }
  return live;
}

bool HubService::draining() const {
  return impl_->draining.load(std::memory_order_relaxed);
}

// -------------------------------------------------------------- checkpoint

Status HubService::CheckpointNow() {
  static auto* checkpoints = Telemetry().GetCounter("service.checkpoints");
  static auto* hist = Telemetry().GetHistogram("service.checkpoint_seconds");
  static auto* bytes_gauge =
      Telemetry().GetGauge("service.checkpoint_bytes");
  if (impl_->options.checkpoint_path.empty()) {
    return Status::FailedPrecondition("no checkpoint path configured");
  }
  telemetry::ScopedTimer timer(hist);

  std::shared_lock<std::shared_mutex> structural(impl_->struct_mu);
  serialize::ByteWriter writer;
  writer.PutVarint(impl_->streams.size());
  for (const auto& st : impl_->streams) {
    writer.PutString(st->tenant_name);
    writer.PutString(st->name);
    writer.PutBool(st->deleted);
  }
  // Consistent under load: the guard takes each stream's detect mutex for
  // exactly the serialization of that stream's section.
  const std::vector<uint8_t> engine_blob =
      impl_->hub.Checkpoint([this](size_t stream, bool acquire) {
        std::mutex& mu = impl_->streams[stream]->detect_mu;
        if (acquire) {
          mu.lock();
        } else {
          mu.unlock();
        }
      });
  writer.PutVarint(engine_blob.size());
  writer.PutBytes(engine_blob);

  const std::vector<uint8_t> blob = serialize::WrapPayload(
      serialize::BlobKind::kServiceCheckpoint, writer.bytes());
  EGI_RETURN_IF_ERROR(
      serialize::WriteFileAtomic(impl_->options.checkpoint_path, blob));
  impl_->last_checkpoint_bytes.store(blob.size(),
                                     std::memory_order_relaxed);
  checkpoints->Add(1);
  bytes_gauge->Set(static_cast<int64_t>(blob.size()));
  Telemetry().journal().Emit(
      "service.checkpoint",
      {{"bytes", std::to_string(blob.size())},
       {"streams", std::to_string(impl_->streams.size())}});
  return Status::OK();
}

Status HubService::RestoreFromDisk() {
  static auto* restores = Telemetry().GetCounter("service.restores");
  if (impl_->options.checkpoint_path.empty()) return Status::OK();
  auto read = serialize::ReadFileBytes(impl_->options.checkpoint_path);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) {
      return Status::OK();  // fresh start
    }
    return read.status();
  }

  std::span<const uint8_t> payload;
  EGI_RETURN_IF_ERROR(serialize::UnwrapPayload(
      *read, serialize::BlobKind::kServiceCheckpoint, &payload));
  serialize::ByteReader reader(payload);
  uint64_t count = 0;
  EGI_RETURN_IF_ERROR(reader.ReadVarint(&count));
  struct ManifestEntry {
    std::string tenant;
    std::string name;
    bool deleted = false;
  };
  std::vector<ManifestEntry> manifest;
  manifest.reserve(std::min<uint64_t>(count, 1 << 20));
  for (uint64_t i = 0; i < count; ++i) {
    ManifestEntry entry;
    EGI_RETURN_IF_ERROR(reader.ReadString(&entry.tenant, kMaxLabelBytes));
    EGI_RETURN_IF_ERROR(reader.ReadString(&entry.name, kMaxLabelBytes));
    EGI_RETURN_IF_ERROR(reader.ReadBool(&entry.deleted));
    manifest.push_back(std::move(entry));
  }
  uint64_t engine_len = 0;
  EGI_RETURN_IF_ERROR(reader.ReadVarint(&engine_len));
  if (engine_len != reader.remaining()) {
    return Status::InvalidArgument(
        "service checkpoint: engine blob length mismatch");
  }
  const std::span<const uint8_t> engine_blob =
      payload.subspan(reader.position(), engine_len);

  std::unique_lock<std::shared_mutex> structural(impl_->struct_mu);
  if (impl_->pending_points.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "restore with points still queued; Flush first");
  }
  EGI_RETURN_IF_ERROR(impl_->hub.Restore(engine_blob));
  // From here on nothing can fail: rebuild the service-side stream table to
  // mirror the restored hub.
  impl_->streams.clear();
  impl_->tenants.clear();
  for (size_t i = 0; i < manifest.size(); ++i) {
    auto st = std::make_unique<Impl::StreamState>();
    st->tenant_name = std::move(manifest[i].tenant);
    st->name = std::move(manifest[i].name);
    st->deleted = manifest[i].deleted;
    st->tenant = impl_->GetOrCreateTenant(st->tenant_name);
    if (!st->deleted) st->tenant->live_streams += 1;
    impl_->streams.push_back(std::move(st));
    impl_->SyncCountersFromHub(i);
  }
  restores->Add(1);
  Telemetry().journal().Emit(
      "service.restore",
      {{"streams", std::to_string(impl_->streams.size())}});
  return Status::OK();
}

Result<std::vector<uint8_t>> HubService::ExportStreamCheckpoint(
    size_t stream) const {
  static auto* exports = Telemetry().GetCounter("service.stream_exports");
  return impl_->WithDrainedStream(
      stream, [&]() -> Result<std::vector<uint8_t>> {
        EGI_ASSIGN_OR_RETURN(auto blob, impl_->hub.CheckpointStream(stream));
        exports->Add(1);
        Telemetry().journal().Emit(
            "service.stream_export", {{"stream", std::to_string(stream)},
                                      {"bytes", std::to_string(blob.size())}});
        return blob;
      });
}

Status HubService::ImportStreamCheckpoint(size_t stream,
                                          std::span<const uint8_t> blob) {
  static auto* imports = Telemetry().GetCounter("service.stream_imports");
  return impl_->WithDrainedStream(stream, [&] {
    EGI_RETURN_IF_ERROR(impl_->hub.RestoreStream(stream, blob));
    impl_->SyncCountersFromHub(stream);
    imports->Add(1);
    Telemetry().journal().Emit(
        "service.stream_import", {{"stream", std::to_string(stream)},
                                  {"bytes", std::to_string(blob.size())}});
    return Status::OK();
  });
}

// ---------------------------------------------------------------- shutdown

void HubService::BeginDrain() {
  impl_->draining.store(true, std::memory_order_relaxed);
}

Status HubService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->shutdown_mu);
    if (impl_->shut_down) return Status::OK();
    impl_->shut_down = true;
  }
  BeginDrain();
  Flush();  // no new frames admitted, so the pending count only falls
  {
    std::lock_guard<std::mutex> lock(impl_->ready_mu);
    impl_->stop_workers = true;
    impl_->ready_cv.notify_all();
  }
  for (std::thread& worker : impl_->workers) worker.join();
  impl_->workers.clear();
  if (impl_->options.checkpoint_path.empty()) return Status::OK();
  return CheckpointNow();
}

// ------------------------------------------------------------ control plane

namespace {

std::string RenderStreamInfo(const StreamInfo& info) {
  std::string out = OpenStreamBody(info.stream);
  out += ",\"tenant\":" + JsonQuote(info.tenant);
  out += ",\"name\":" + JsonQuote(info.name);
  out += ",\"accepted\":" + std::to_string(info.accepted_total);
  out += ",\"scored\":" + std::to_string(info.scored_total);
  out += ",\"queued\":" + std::to_string(info.queued);
  out += ",\"last_score\":" + JsonNumber(info.last_score);
  out += std::string(",\"last_scored\":") +
         (info.last_scored ? "true" : "false");
  out += ",\"detector\":{\"total_appended\":" +
         std::to_string(info.stats.total_appended);
  out += ",\"buffered\":" + std::to_string(info.stats.buffered);
  out += ",\"refit_count\":" + std::to_string(info.stats.refit_count);
  out += std::string(",\"fitted\":") + (info.stats.fitted ? "true" : "false");
  out += ",\"window_length\":" + std::to_string(info.stats.window_length);
  out += "}}";
  return out;
}

}  // namespace

std::string HubService::Handle(const HttpRequest& request) {
  static auto* requests = Telemetry().GetCounter("service.http_requests");
  static auto* hist = Telemetry().GetHistogram("service.http_seconds");
  requests->Add(1);
  telemetry::ScopedTimer timer(hist);

  if (request.path == "/healthz") {
    if (request.method != "GET") {
      return RenderHttpError(405, "use GET");
    }
    return RenderHttpResponse(
        200, std::string("{\"status\":\"ok\",\"draining\":") +
                 (draining() ? "true" : "false") +
                 ",\"streams\":" + std::to_string(num_streams()) + "}");
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") return RenderHttpError(405, "use GET");
    return RenderHttpResponse(200, Session::MetricsJson());
  }
  if (request.path == "/v1/streams") {
    if (request.method == "POST") {
      std::string tenant;
      std::string name;
      if (!ParseCreateStreamBody(request.body, &tenant, &name)) {
        return RenderHttpError(400, "body must carry a \"tenant\" field");
      }
      auto created = CreateStream(std::move(tenant), std::move(name));
      // A client may delete the new id before Describe runs.
      auto info = created.ok() ? Describe(*created)
                               : Result<StreamInfo>(created.status());
      if (!info.ok()) return RenderCreateStreamError(info.status(), draining());
      return RenderHttpResponse(201, RenderStreamInfo(*info));
    }
    if (request.method == "GET") {
      std::string body = "{\"streams\":[";
      for (const StreamInfo& info : List()) {
        if (body.back() != '[') body += ',';
        body += RenderStreamInfo(info);
      }
      body += "]}";
      return RenderHttpResponse(200, body);
    }
    return RenderHttpError(405, "use GET or POST");
  }
  std::string_view suffix;
  if (size_t id = 0; ParseStreamPath(request.path, &id, &suffix)) {
    if (suffix == "/checkpoint") {
      if (request.method == "GET") {
        auto blob = ExportStreamCheckpoint(id);
        if (!blob.ok()) return RenderStatusError(blob.status());
        return RenderHttpResponse(
            200,
            std::string_view(reinterpret_cast<const char*>(blob->data()),
                             blob->size()),
            "application/octet-stream");
      }
      if (request.method == "PUT") {
        const Status status = ImportStreamCheckpoint(
            id, std::span<const uint8_t>(
                    reinterpret_cast<const uint8_t*>(request.body.data()),
                    request.body.size()));
        if (!status.ok()) return RenderStatusError(status);
        return RenderHttpResponse(200,
                                  OpenStreamBody(id) + ",\"imported\":true}");
      }
      return RenderHttpError(405, "use GET or PUT");
    }
    if (!suffix.empty()) {
      return RenderHttpError(404, "no route for " + std::string(request.path));
    }
    if (request.method == "GET") {
      auto info = Describe(id);
      if (!info.ok()) return RenderStatusError(info.status());
      std::string body = RenderStreamInfo(*info);
      const long tail = request.QueryInt("tail", 0);
      if (tail > 0) {
        auto scores = RecentScores(id, static_cast<size_t>(tail));
        if (scores.ok()) {
          body.pop_back();  // reopen the object to append "scores"
          body += ",\"scores\":[";
          for (const double s : *scores) {
            if (body.back() != '[') body += ',';
            body += JsonNumber(s);
          }
          body += "]}";
        }
      }
      return RenderHttpResponse(200, body);
    }
    if (request.method == "DELETE") {
      const Status status = DeleteStream(id);
      if (!status.ok()) return RenderStatusError(status);
      return RenderHttpResponse(200,
                                OpenStreamBody(id) + ",\"deleted\":true}");
    }
    return RenderHttpError(405, "use GET or DELETE");
  }
  if (request.path == "/v1/flush") {
    if (request.method != "POST") return RenderHttpError(405, "use POST");
    Flush();
    return RenderHttpResponse(200, "{\"flushed\":true}");
  }
  if (request.path == "/v1/checkpoint") {
    if (request.method != "POST") return RenderHttpError(405, "use POST");
    const Status status = CheckpointNow();
    if (!status.ok()) return RenderStatusError(status);
    return RenderHttpResponse(
        200, "{\"checkpoint\":" + JsonQuote(impl_->options.checkpoint_path) +
                 ",\"bytes\":" +
                 std::to_string(impl_->last_checkpoint_bytes.load(
                     std::memory_order_relaxed)) +
                 "}");
  }
  return RenderHttpError(404, "no route for " + std::string(request.path));
}

}  // namespace egi::service
