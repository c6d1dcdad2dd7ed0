#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "datasets/random_walk.h"
#include "egi/telemetry.h"
#include "service/frame.h"
#include "service/http.h"
#include "service/hub_service.h"
#include "service/server.h"
#include "util/json.h"
#include "util/rng.h"

namespace egi::service {
namespace {

// ------------------------------------------------------------------- HTTP

TEST(HttpTest, ParsesRequestLineHeadersAndBody) {
  const std::string raw =
      "POST /v1/streams?tail=5 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 13\r\n"
      "\r\n"
      "{\"tenant\":1}x";
  HttpRequest req;
  size_t consumed = 0;
  ASSERT_EQ(ParseHttpRequest(raw, &req, &consumed),
            HttpParseResult::kComplete);
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/v1/streams");
  EXPECT_EQ(req.query, "tail=5");
  EXPECT_EQ(req.QueryInt("tail", 0), 5);
  EXPECT_EQ(req.QueryInt("missing", 7), 7);
  EXPECT_EQ(req.Header("content-type"), "application/json");
  EXPECT_EQ(req.Header("CONTENT-TYPE"), "application/json");  // any case
  EXPECT_EQ(req.body, "{\"tenant\":1}x");
}

TEST(HttpTest, IncrementalParseAndPipelining) {
  const std::string first = "GET /healthz HTTP/1.1\r\n\r\n";
  const std::string second = "GET /metrics HTTP/1.1\r\n\r\n";
  HttpRequest req;
  size_t consumed = 0;
  EXPECT_EQ(ParseHttpRequest(first.substr(0, 10), &req, &consumed),
            HttpParseResult::kNeedMore);
  ASSERT_EQ(ParseHttpRequest(first + second, &req, &consumed),
            HttpParseResult::kComplete);
  EXPECT_EQ(req.path, "/healthz");
  EXPECT_EQ(consumed, first.size());  // the second request stays buffered
}

TEST(HttpTest, RejectsMalformedRequests) {
  HttpRequest req;
  size_t consumed = 0;
  for (const std::string raw :
       {std::string("BOGUS\r\n\r\n"),
        std::string("GET /x BADPROTO/1.1\r\n\r\n"),
        std::string("GET noslash HTTP/1.1\r\n\r\n"),
        std::string("GET /x HTTP/1.1\r\nbadheader\r\n\r\n"),
        std::string("GET /x HTTP/1.1\r\nContent-Length: huge\r\n\r\n")}) {
    EXPECT_EQ(ParseHttpRequest(raw, &req, &consumed),
              HttpParseResult::kMalformed)
        << raw;
  }
  // An unterminated header block larger than the cap is malformed, not
  // need-more (defends against memory exhaustion by drip-feeding).
  const std::string flood(kMaxHttpHeaderBytes + 2, 'a');
  EXPECT_EQ(ParseHttpRequest(flood, &req, &consumed),
            HttpParseResult::kMalformed);
}

// The per-stream route parser egid and the egid-router share.
TEST(HttpTest, ParseStreamPathTable) {
  struct Case {
    std::string_view path;
    bool ok;
    size_t id;
    std::string_view suffix;
  };
  const Case cases[] = {
      {"/v1/streams/0", true, 0, ""},
      {"/v1/streams/7/checkpoint", true, 7, "/checkpoint"},
      {"/v1/streams/123456789012345678", true, 123456789012345678u, ""},
      {"/v1/streams/", false, 0, ""},
      {"/v1/streams/1a", false, 0, ""},
      {"/v1/streams/1234567890123456789", false, 0, ""},  // 19 digits
      {"/v1/streamsX/1", false, 0, ""},
  };
  for (const Case& c : cases) {
    size_t id = 99;
    std::string_view suffix = "unset";
    ASSERT_EQ(ParseStreamPath(c.path, &id, &suffix), c.ok) << c.path;
    if (!c.ok) continue;
    EXPECT_EQ(id, c.id) << c.path;
    EXPECT_EQ(suffix, c.suffix) << c.path;
  }
}

TEST(HttpTest, RendersContentLengthFramedResponse) {
  const std::string resp = RenderHttpResponse(200, "{\"ok\":true}");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(resp.find("\r\n\r\n{\"ok\":true}"), std::string::npos);
  const std::string error = RenderHttpError(404, "no such \"thing\"");
  EXPECT_NE(error.find("HTTP/1.1 404 Not Found"), std::string::npos);
  EXPECT_NE(error.find("{\"error\":\"no such \\\"thing\\\"\"}"),
            std::string::npos);
}

// ------------------------------------------------------------------ frames

TEST(FrameTest, IngestRoundTrip) {
  const std::vector<double> values = {1.5, -2.25, 0.0, 1e300};
  std::vector<uint8_t> wire;
  EncodeIngestFrame(42, values, &wire);
  IngestRequest decoded;
  size_t consumed = 0;
  ASSERT_EQ(DecodeIngestFrame(wire, &decoded, &consumed),
            FrameParseResult::kComplete);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(decoded.stream, 42u);
  EXPECT_EQ(decoded.values, values);
}

TEST(FrameTest, ResponseRoundTripAckAndReject) {
  IngestResponse ack;
  ack.type = FrameType::kAck;
  ack.stream = 7;
  ack.accepted_total = 1000;
  ack.scored_total = 990;
  ack.last_score = 0.625;
  ack.last_scored = true;
  std::vector<uint8_t> wire;
  EncodeResponseFrame(ack, &wire);

  IngestResponse reject;
  reject.type = FrameType::kReject;
  reject.stream = 9;
  reject.reason = RejectReason::kQueueFull;
  EncodeResponseFrame(reject, &wire);  // pipelined after the ack

  IngestResponse out;
  size_t consumed = 0;
  ASSERT_EQ(DecodeResponseFrame(wire, &out, &consumed),
            FrameParseResult::kComplete);
  EXPECT_EQ(out.type, FrameType::kAck);
  EXPECT_EQ(out.stream, 7u);
  EXPECT_EQ(out.accepted_total, 1000u);
  EXPECT_EQ(out.scored_total, 990u);
  EXPECT_EQ(out.last_score, 0.625);
  EXPECT_TRUE(out.last_scored);

  const std::span<const uint8_t> rest =
      std::span<const uint8_t>(wire).subspan(consumed);
  ASSERT_EQ(DecodeResponseFrame(rest, &out, &consumed),
            FrameParseResult::kComplete);
  EXPECT_EQ(out.type, FrameType::kReject);
  EXPECT_EQ(out.stream, 9u);
  EXPECT_EQ(out.reason, RejectReason::kQueueFull);
}

TEST(FrameTest, PartialBuffersNeedMore) {
  std::vector<uint8_t> wire;
  EncodeIngestFrame(1, std::vector<double>{3.0, 4.0}, &wire);
  IngestRequest decoded;
  size_t consumed = 0;
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_EQ(DecodeIngestFrame(
                  std::span<const uint8_t>(wire).subspan(0, cut), &decoded,
                  &consumed),
              FrameParseResult::kNeedMore)
        << "cut " << cut;
  }
}

TEST(FrameTest, MalformedFramesRejected) {
  IngestRequest decoded;
  size_t consumed = 0;
  // Declared length beyond the frame cap.
  std::vector<uint8_t> huge = {0xff, 0xff, 0xff, 0x7f, 1};
  EXPECT_EQ(DecodeIngestFrame(huge, &decoded, &consumed),
            FrameParseResult::kMalformed);
  // Count that disagrees with the payload length.
  std::vector<uint8_t> wire;
  EncodeIngestFrame(1, std::vector<double>{1.0}, &wire);
  wire[4 + 9] = 2;  // count field: claims 2 points, carries 1
  EXPECT_EQ(DecodeIngestFrame(wire, &decoded, &consumed),
            FrameParseResult::kMalformed);
  // Unknown frame type.
  std::vector<uint8_t> bad_type = wire;
  bad_type[4] = 0x7f;
  EXPECT_EQ(DecodeIngestFrame(bad_type, &decoded, &consumed),
            FrameParseResult::kMalformed);
  IngestResponse resp;
  EXPECT_EQ(DecodeResponseFrame(bad_type, &resp, &consumed),
            FrameParseResult::kMalformed);
}

// ------------------------------------------------------------- HubService

constexpr const char* kTestSpec = "ensemble:wmax=5,amax=5,n=8,seed=42";

HubServiceOptions SmallServiceOptions() {
  HubServiceOptions options;
  options.spec = kTestSpec;
  options.stream.window_length = 32;
  options.stream.buffer_capacity = 256;
  options.stream.refit_interval = 48;
  options.num_workers = 2;
  return options;
}

std::unique_ptr<HubService> MustCreate(HubServiceOptions options) {
  auto service = HubService::Create(std::move(options));
  EXPECT_TRUE(service.ok()) << service.status();
  return std::move(service).value();
}

IngestResponse SendPoints(HubService& service, size_t stream,
                          std::span<const double> values) {
  IngestRequest request;
  request.stream = stream;
  request.values.assign(values.begin(), values.end());
  return service.HandleIngest(request);
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("egi_service_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(ServiceTest, StreamLifecycleCreateListDescribeDelete) {
  auto service = MustCreate(SmallServiceOptions());
  auto a = service->CreateStream("acme", "cpu");
  auto b = service->CreateStream("acme", "disk");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(service->num_streams(), 2u);

  auto info = service->Describe(*b);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->tenant, "acme");
  EXPECT_EQ(info->name, "disk");
  EXPECT_EQ(info->accepted_total, 0u);

  ASSERT_TRUE(service->DeleteStream(*a).ok());
  EXPECT_EQ(service->num_streams(), 1u);
  EXPECT_EQ(service->Describe(*a).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service->DeleteStream(*a).code(), StatusCode::kNotFound);
  // Ids are never reused: the next stream extends the dense range.
  auto c = service->CreateStream("acme", "net");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 2u);
}

TEST_F(ServiceTest, PerTenantStreamQuota) {
  auto options = SmallServiceOptions();
  options.max_streams_per_tenant = 2;
  auto service = MustCreate(std::move(options));
  ASSERT_TRUE(service->CreateStream("small", "a").ok());
  ASSERT_TRUE(service->CreateStream("small", "b").ok());
  const auto third = service->CreateStream("small", "c");
  EXPECT_EQ(third.status().code(), StatusCode::kFailedPrecondition);
  // Other tenants are unaffected, and deletion frees quota.
  EXPECT_TRUE(service->CreateStream("other", "a").ok());
  ASSERT_TRUE(service->DeleteStream(0).ok());
  EXPECT_TRUE(service->CreateStream("small", "c").ok());
}

TEST_F(ServiceTest, IngestScoresAndAcks) {
  auto service = MustCreate(SmallServiceOptions());
  const size_t id = *service->CreateStream("t", "s");
  Rng rng(5);
  const auto series = datasets::MakeRandomWalk(120, rng);

  const IngestResponse ack = SendPoints(*service, id, series);
  EXPECT_EQ(ack.type, FrameType::kAck);
  EXPECT_EQ(ack.accepted_total, series.size());
  service->Flush();

  auto info = service->Describe(id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->accepted_total, series.size());
  EXPECT_EQ(info->scored_total, series.size());
  EXPECT_EQ(info->queued, 0u);
  EXPECT_TRUE(info->stats.fitted);  // 120 points > refit interval 48
  EXPECT_TRUE(info->last_scored);

  auto scores = service->RecentScores(id, 10);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->size(), 10u);
}

TEST_F(ServiceTest, RejectsUnknownDeletedAndDraining) {
  auto service = MustCreate(SmallServiceOptions());
  const size_t id = *service->CreateStream("t", "s");
  const std::vector<double> one = {1.0};

  EXPECT_EQ(SendPoints(*service, 99, one).reason,
            RejectReason::kUnknownStream);
  ASSERT_TRUE(service->DeleteStream(id).ok());
  EXPECT_EQ(SendPoints(*service, id, one).reason,
            RejectReason::kUnknownStream);

  const size_t live = *service->CreateStream("t", "s2");
  service->BeginDrain();
  const IngestResponse resp = SendPoints(*service, live, one);
  EXPECT_EQ(resp.type, FrameType::kReject);
  EXPECT_EQ(resp.reason, RejectReason::kDraining);
  EXPECT_FALSE(service->CreateStream("t", "s3").ok());
}

TEST_F(ServiceTest, QueueFullBackpressure) {
  auto options = SmallServiceOptions();
  options.queue_capacity = 8;
  auto service = MustCreate(std::move(options));
  const size_t id = *service->CreateStream("t", "s");
  // A frame that can never fit is rejected outright — the queue is a hard
  // bound, not a buffer that blocks the connection.
  const std::vector<double> big(9, 1.0);
  const IngestResponse resp = SendPoints(*service, id, big);
  EXPECT_EQ(resp.type, FrameType::kReject);
  EXPECT_EQ(resp.reason, RejectReason::kQueueFull);
  // And the stream is undamaged: a fitting frame is accepted.
  EXPECT_EQ(SendPoints(*service, id, std::vector<double>(8, 1.0)).type,
            FrameType::kAck);
}

TEST_F(ServiceTest, TokenBucketRateLimitWithInjectedClock) {
  auto options = SmallServiceOptions();
  options.points_per_second = 100.0;  // burst defaults to 100 points
  uint64_t fake_now = 0;
  options.now_ns = [&fake_now] { return fake_now; };
  auto service = MustCreate(std::move(options));
  const size_t id = *service->CreateStream("t", "s");

  const std::vector<double> eighty(80, 0.5);
  EXPECT_EQ(SendPoints(*service, id, eighty).type, FrameType::kAck);
  // 20 tokens left: another 80-point frame is over quota.
  const IngestResponse rejected = SendPoints(*service, id, eighty);
  EXPECT_EQ(rejected.type, FrameType::kReject);
  EXPECT_EQ(rejected.reason, RejectReason::kRateLimited);
  // A full second refills to the burst cap (100): now it fits.
  fake_now += 1'000'000'000ull;
  EXPECT_EQ(SendPoints(*service, id, eighty).type, FrameType::kAck);
  // Rejected frames must not consume tokens: 80 - 80 leaves ~0 but the
  // failed attempt above did not double-charge.
  const IngestResponse after = SendPoints(*service, id, eighty);
  EXPECT_EQ(after.reason, RejectReason::kRateLimited);
}

TEST_F(ServiceTest, HttpControlPlaneEndToEnd) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  auto service = MustCreate(std::move(options));

  HttpRequest req;
  req.method = "POST";
  req.path = "/v1/streams";
  req.body = "{\"tenant\":\"acme\",\"name\":\"cpu\"}";
  std::string resp = service->Handle(req);
  EXPECT_NE(resp.find("HTTP/1.1 201"), std::string::npos);
  EXPECT_NE(resp.find("\"stream\":0"), std::string::npos);

  // Missing tenant → 400; unknown route → 404; wrong method → 405.
  req.body = "{\"name\":\"x\"}";
  EXPECT_NE(service->Handle(req).find("HTTP/1.1 400"), std::string::npos);
  req.path = "/v1/bogus";
  EXPECT_NE(service->Handle(req).find("HTTP/1.1 404"), std::string::npos);
  req.path = "/healthz";
  EXPECT_NE(service->Handle(req).find("HTTP/1.1 405"), std::string::npos);
  req.method = "GET";
  resp = service->Handle(req);
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(resp.find("\"status\":\"ok\""), std::string::npos);

  // Ingest then query the stream with a score tail.
  Rng rng(6);
  const auto series = datasets::MakeRandomWalk(100, rng);
  EXPECT_EQ(SendPoints(*service, 0, series).type, FrameType::kAck);
  service->Flush();
  req.path = "/v1/streams/0";
  req.query = "tail=5";
  resp = service->Handle(req);
  EXPECT_NE(resp.find("\"accepted\":100"), std::string::npos);
  EXPECT_NE(resp.find("\"scores\":["), std::string::npos);

  // List, checkpoint, flush, metrics, delete.
  req.path = "/v1/streams";
  req.query.clear();
  EXPECT_NE(service->Handle(req).find("\"tenant\":\"acme\""),
            std::string::npos);
  req.method = "POST";
  req.path = "/v1/flush";
  EXPECT_NE(service->Handle(req).find("\"flushed\":true"),
            std::string::npos);
  req.path = "/v1/checkpoint";
  resp = service->Handle(req);
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(resp.find("\"bytes\":"), std::string::npos);
  req.method = "GET";
  req.path = "/metrics";
  resp = service->Handle(req);
  EXPECT_NE(resp.find("\"counters\""), std::string::npos);
  req.method = "DELETE";
  req.path = "/v1/streams/0";
  EXPECT_NE(service->Handle(req).find("\"deleted\":true"),
            std::string::npos);
  EXPECT_NE(service->Handle(req).find("HTTP/1.1 404"), std::string::npos);
}

TEST_F(ServiceTest, HostileLabelsSurviveJsonSurfaces) {
  auto service = MustCreate(SmallServiceOptions());
  const std::string hostile = "evil\"tenant\\with\nnewline\tand\x01ctrl";
  HttpRequest req;
  req.method = "POST";
  req.path = "/v1/streams";
  req.body = "{\"tenant\":" + JsonQuote(hostile) + ",\"name\":\"n\"}";
  const std::string created = service->Handle(req);
  ASSERT_NE(created.find("HTTP/1.1 201"), std::string::npos);

  // The decoded label is the original bytes...
  auto info = service->Describe(0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->tenant, hostile);

  // ...and every JSON surface that re-emits it stays parseable: the stream
  // listing and (when telemetry is on) the journal tail in /metrics.
  req.method = "GET";
  const std::string listed = service->Handle(req);
  const std::string quoted = JsonQuote(hostile);
  EXPECT_NE(listed.find(quoted), std::string::npos);
  for (const char c : listed.substr(listed.find("\r\n\r\n"))) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\r' ||
                c == '\n')
        << "raw control byte leaked into JSON";
  }
  if (telemetry::Enabled()) {
    req.path = "/metrics";
    const std::string metrics = service->Handle(req);
    EXPECT_NE(metrics.find(JsonEscape(hostile)), std::string::npos);
  }
}

TEST_F(ServiceTest, CheckpointRestoreRoundTrip) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  Rng rng(7);
  const auto series = datasets::MakeRandomWalk(150, rng);

  {
    auto service = MustCreate(options);
    ASSERT_TRUE(service->CreateStream("acme", "cpu").ok());
    ASSERT_TRUE(service->CreateStream("beta", "gone").ok());
    ASSERT_TRUE(service->DeleteStream(1).ok());
    EXPECT_EQ(SendPoints(*service, 0, series).type, FrameType::kAck);
    service->Flush();
    ASSERT_TRUE(service->CheckpointNow().ok());
  }

  auto restored = MustCreate(options);  // Create restores from disk
  EXPECT_EQ(restored->num_streams(), 1u);  // the tombstone persisted
  auto info = restored->Describe(0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->tenant, "acme");
  EXPECT_EQ(info->name, "cpu");
  EXPECT_EQ(info->accepted_total, series.size());
  EXPECT_EQ(info->scored_total, series.size());
  EXPECT_EQ(restored->Describe(1).status().code(), StatusCode::kNotFound);
  // The deleted id stays reserved after restore too.
  auto next = restored->CreateStream("acme", "more");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 2u);
}

// The daemon lifecycle contract: ingest a prefix, checkpoint, die without
// any shutdown path (fork + _exit, the closest a unit test gets to
// SIGKILL), restart from the checkpoint, ingest the remainder — and the
// scores must be bitwise-identical to one uninterrupted run.
TEST_F(ServiceTest, CrashRestartContinuesBitwiseIdentically) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  Rng rng(11);
  const auto series = datasets::MakeRandomWalk(200, rng);
  const size_t kSplit = 120;
  const std::span<const double> prefix(series.data(), kSplit);
  const std::span<const double> tail(series.data() + kSplit,
                                     series.size() - kSplit);

  // Reference: one uninterrupted service over the same spec and data.
  std::vector<double> reference;
  {
    auto uninterrupted = MustCreate(SmallServiceOptions());
    ASSERT_TRUE(uninterrupted->CreateStream("t", "s").ok());
    EXPECT_EQ(SendPoints(*uninterrupted, 0, series).type, FrameType::kAck);
    uninterrupted->Flush();
    reference = *uninterrupted->RecentScores(0, series.size());
  }

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: first daemon life. _exit skips every destructor — no drain,
    // no final checkpoint, exactly like a kill -9 after the periodic
    // checkpoint landed.
    auto service = HubService::Create(options);
    if (!service.ok()) _exit(10);
    if (!(*service)->CreateStream("t", "s").ok()) _exit(11);
    IngestRequest request;
    request.stream = 0;
    request.values.assign(prefix.begin(), prefix.end());
    if ((*service)->HandleIngest(request).type != FrameType::kAck) {
      _exit(12);
    }
    (*service)->Flush();
    if (!(*service)->CheckpointNow().ok()) _exit(13);
    _exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
      << "child failed with " << wstatus;

  // Second life: restore-on-boot, then the remainder of the stream.
  auto service = MustCreate(options);
  auto info = service->Describe(0);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->scored_total, kSplit);
  EXPECT_EQ(SendPoints(*service, 0, tail).type, FrameType::kAck);
  service->Flush();

  const std::vector<double> continued =
      *service->RecentScores(0, series.size());
  ASSERT_EQ(continued.size(), reference.size());
  for (size_t i = 0; i < continued.size(); ++i) {
    // Bitwise: NaN (never-scored points early in the window) must match
    // NaN, so compare representations, not values.
    EXPECT_EQ(std::isnan(continued[i]), std::isnan(reference[i])) << i;
    if (!std::isnan(reference[i])) {
      EXPECT_EQ(continued[i], reference[i]) << "score " << i;
    }
  }
}

TEST_F(ServiceTest, CheckpointUnderConcurrentIngest) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  auto service = MustCreate(options);
  constexpr size_t kStreams = 3;
  for (size_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(service->CreateStream("t", std::to_string(s)).ok());
  }
  Rng rng(13);
  const auto series = datasets::MakeRandomWalk(400, rng);

  // The producer starts only once checkpointing has begun, so at least one
  // checkpoint overlaps ingest even when the producer would otherwise
  // finish before the main thread is scheduled.
  std::atomic<bool> checkpointing{false};
  std::atomic<bool> done{false};
  std::thread producer([&] {
    while (!checkpointing.load()) std::this_thread::yield();
    for (size_t off = 0; off < series.size(); off += 20) {
      const size_t len = std::min<size_t>(20, series.size() - off);
      for (size_t s = 0; s < kStreams; ++s) {
        IngestRequest request;
        request.stream = s;
        request.values.assign(series.begin() + static_cast<ptrdiff_t>(off),
                              series.begin() +
                                  static_cast<ptrdiff_t>(off + len));
        // Backpressure may reject under load; totals are checked at the
        // end from the ack the service reports, not assumed.
        service->HandleIngest(request);
      }
    }
    done.store(true);
  });
  size_t checkpoints = 0;
  checkpointing.store(true);
  do {
    ASSERT_TRUE(service->CheckpointNow().ok());
    ++checkpoints;
  } while (!done.load());
  producer.join();
  EXPECT_GE(checkpoints, 1u);
  service->Flush();
  ASSERT_TRUE(service->CheckpointNow().ok());

  // The final checkpoint restores to exactly the final state.
  auto restored = MustCreate(options);
  for (size_t s = 0; s < kStreams; ++s) {
    auto before = service->Describe(s);
    auto after = restored->Describe(s);
    ASSERT_TRUE(before.ok() && after.ok());
    EXPECT_EQ(after->scored_total, before->scored_total) << s;
    EXPECT_EQ(*restored->RecentScores(s, 64), *service->RecentScores(s, 64))
        << s;
  }
}

TEST_F(ServiceTest, ShutdownWritesFinalCheckpointAndDrains) {
  auto options = SmallServiceOptions();
  options.checkpoint_path = Path("ckpt.egis");
  auto service = MustCreate(options);
  ASSERT_TRUE(service->CreateStream("t", "s").ok());
  Rng rng(17);
  const auto series = datasets::MakeRandomWalk(100, rng);
  EXPECT_EQ(SendPoints(*service, 0, series).type, FrameType::kAck);
  ASSERT_TRUE(service->Shutdown().ok());  // drains the queue first
  EXPECT_TRUE(service->draining());
  // Everything queued before the drain was scored and checkpointed.
  auto restored = MustCreate(options);
  auto info = restored->Describe(0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->scored_total, series.size());
}

// Stream ids are dense, so a client can DELETE the id a concurrent POST is
// about to return. The create reply must then be an error, never an abort.
// (The window between CreateStream and Describe is a lock hand-off, so this
// rarely lands in it; it guards the reply path, it cannot force the race.)
TEST_F(ServiceTest, CreateRacingDeleteOfTheNewIdNeverAborts) {
  auto service = MustCreate(SmallServiceOptions());
  constexpr size_t kCreates = 500;
  std::atomic<bool> done{false};
  std::thread deleter([&] {
    for (size_t id = 0; id < kCreates && !done.load();) {
      if (service->DeleteStream(id).ok()) ++id;
    }
  });
  HttpRequest create;
  create.method = "POST";
  create.path = "/v1/streams";
  create.body = "{\"tenant\":\"t\"}";
  size_t created = 0;
  size_t lost = 0;
  for (size_t i = 0; i < kCreates; ++i) {
    const std::string resp = service->Handle(create);
    if (resp.find("HTTP/1.1 201") != std::string::npos) {
      ++created;
    } else {
      EXPECT_NE(resp.find("HTTP/1.1 404"), std::string::npos) << resp;
      ++lost;
    }
  }
  done = true;
  deleter.join();
  EXPECT_EQ(created + lost, kCreates);
}

size_t CountMappings() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// One HTTP/1.1 request on a fresh connection that the server closes after
// answering; returns the raw response.
std::string OneShotHttp(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_TRUE(WriteAll(fd, reinterpret_cast<const uint8_t*>(request.data()),
                       request.size())
                  .ok());
  std::string response;
  char chunk[4096];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// Each connection thread is joined once it finishes, not at Wait(): the
// process's mappings (two per unjoined thread stack) stay flat however many
// connections come and go.
TEST_F(ServiceTest, ServerReapsFinishedConnectionThreads) {
  auto service = MustCreate(SmallServiceOptions());
  Server server(service.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const std::string request =
      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  for (int i = 0; i < 20; ++i) OneShotHttp(server.http_port(), request);
  const size_t before = CountMappings();
  constexpr int kConnections = 200;
  for (int i = 0; i < kConnections; ++i) {
    const std::string response = OneShotHttp(server.http_port(), request);
    ASSERT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  }
  const size_t after = CountMappings();
  EXPECT_LT(after, before + kConnections / 4)
      << "mappings grew from " << before << " to " << after;
  server.RequestStop();
  EXPECT_TRUE(server.Wait().ok());
}

}  // namespace
}  // namespace egi::service
