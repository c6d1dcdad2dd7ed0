// Golden record of the control plane egid and egid_router present to
// clients: the full rendered response bytes (status line, headers and body)
// for a fixed request script against one HubService and against a 2-shard
// loopback router, the encoded ingest reply frames (hello, version skew,
// unknown stream, queue full, rate limited under an injected clock, shard
// down, draining), and the reject counter deltas each script leaves behind.
// tests/data/control_plane_responses.txt pins them.
//
// Exceptions to "full bytes", each because the value is not a function of
// the script:
//  - /metrics bodies are reduced to their envelope: every embedded
//    telemetry object becomes {...}, and Content-Length becomes *.
//  - Acks of frames that carry points mask scored_total, last_score and
//    last_scored (the drain workers race the ack); empty frames sent after
//    a flush pin the full ack bytes.
//  - Checkpoint exports are summarised as size plus FNV-1a of the bytes,
//    and the checkpoint file path is masked.
// Counter lines are skipped, and the deltas asserted zero, when telemetry
// is disabled. Run with EGI_UPDATE_GOLDEN=1 to regenerate the file.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "egi/telemetry.h"
#include "router_rig.h"
#include "service/frame.h"
#include "service/http.h"
#include "service/hub_service.h"
#include "util/env.h"

namespace egi::router {
namespace {

using service::FrameType;
using service::HttpRequest;
using service::IngestRequest;
using service::IngestResponse;
using service::RejectReason;

constexpr const char* kGoldenSpec =
    "ensemble:wmax=5,amax=5,n=8,seed=42,threads=1";

std::string GoldenPath() {
  return std::string(EGI_TEST_DATA_DIR) + "/control_plane_responses.txt";
}

// Options shared by the standalone hub and both router shards: a small
// queue and a token bucket on a frozen injected clock, so queue-full and
// rate-limited replies are deterministic.
service::HubServiceOptions GoldenOptions(const std::atomic<uint64_t>* clock) {
  service::HubServiceOptions options;
  options.spec = kGoldenSpec;
  options.stream.window_length = 32;
  options.stream.buffer_capacity = 256;
  options.stream.refit_interval = 48;
  options.queue_capacity = 128;
  options.points_per_second = 100.0;
  options.quota_burst = 1000.0;
  options.num_workers = 1;
  options.now_ns = [clock] { return clock->load(); };
  return options;
}

std::vector<double> Points(size_t n, uint64_t salt) {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = (i + 1) * 2654435761u + salt * 40503u;
    out[i] = static_cast<double>(x % 1000) / 100.0 - 5.0;
  }
  return out;
}

// One line per record: bytes outside printable ASCII (and the backslash)
// are escaped, so CRLFs and binary stay visible and the file stays text.
std::string Escape(std::string_view raw) {
  std::string out;
  for (const char c : raw) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\n') {
      out += "\\n";
    } else if (u < 0x20 || u >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Hex(std::span<const uint8_t> bytes) {
  std::string out;
  char buf[4];
  for (const uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Index one past the JSON object that opens at body[open] ('{'), string
// contents skipped.
size_t ObjectEnd(std::string_view body, size_t open) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = open; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return i + 1;
    }
  }
  return body.size();
}

// The /metrics envelope: the hub's body is one telemetry object; the
// router's embeds one under "router" and one per shard under "metrics".
std::string MetricsShape(std::string_view body) {
  if (body.substr(0, 10) != "{\"router\":") {
    return body.substr(0, 1) == "{" && ObjectEnd(body, 0) == body.size()
               ? "{...}"
               : "<not an object>";
  }
  std::string out;
  size_t i = 0;
  while (i < body.size()) {
    size_t next = std::string_view::npos;
    for (const std::string_view key : {"\"router\":{", "\"metrics\":{"}) {
      const size_t at = body.find(key, i);
      if (at != std::string_view::npos &&
          (next == std::string_view::npos || at < next)) {
        next = at + key.size() - 1;
      }
    }
    if (next == std::string_view::npos) {
      out += body.substr(i);
      break;
    }
    out += body.substr(i, next - i);
    out += "{...}";
    i = ObjectEnd(body, next);
  }
  return out;
}

std::string ReplaceAll(std::string s, std::string_view from,
                       std::string_view to) {
  for (size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
  return s;
}

// Content-Length masked, for the records whose body is summarised.
std::string HeadWithoutLength(std::string_view raw) {
  const size_t end = raw.find("\r\n\r\n");
  std::string head(raw.substr(0, end + 4));
  const size_t cl = head.find("Content-Length: ");
  const size_t eol = head.find("\r\n", cl);
  head.replace(cl + 16, eol - cl - 16, "*");
  return head;
}

class Script {
 public:
  explicit Script(std::string prefix) : prefix_(std::move(prefix)) {}

  void Http(service::ServiceHandler& handler, std::string method,
            std::string path, std::string query = "", std::string body = "") {
    HttpRequest request;
    request.method = std::move(method);
    request.path = std::move(path);
    request.query = std::move(query);
    request.body = std::move(body);
    const std::string raw = handler.Handle(request);
    std::string label = request.method + " " + request.path;
    if (!request.query.empty()) label += "?" + request.query;
    if (request.body.size() > 128) {
      label += " <" + std::to_string(request.body.size()) + " bytes>";
    } else if (!request.body.empty()) {
      label += " " + Escape(request.body);
    }
    out_ += prefix_ + " http " + label + "\n";
    if (request.path == "/metrics" && request.method == "GET") {
      const std::string_view body_view =
          std::string_view(raw).substr(raw.find("\r\n\r\n") + 4);
      out_ += "  " + Escape(HeadWithoutLength(raw)) + "<shape " +
              MetricsShape(body_view) + ">\n";
    } else if (raw.find("application/octet-stream") != std::string::npos) {
      const std::string_view body_view =
          std::string_view(raw).substr(raw.find("\r\n\r\n") + 4);
      last_blob_ = std::string(body_view);
      char summary[64];
      std::snprintf(summary, sizeof(summary), "<%zu bytes fnv=%016llx>",
                    body_view.size(),
                    static_cast<unsigned long long>(Fnv1a(body_view)));
      out_ += "  " + Escape(HeadWithoutLength(raw)) + summary + "\n";
    } else {
      out_ += "  " + Escape(mask_.empty() ? raw : Masked(raw)) + "\n";
    }
  }

  // `full` pins every byte of the reply frame; otherwise an ack's scored
  // fields (bytes 21..37) are masked.
  IngestResponse Frame(service::ServiceHandler& handler,
                       const IngestRequest& request, const std::string& label,
                       bool full = false) {
    const IngestResponse reply = handler.HandleIngest(request);
    std::vector<uint8_t> wire;
    service::EncodeResponseFrame(reply, &wire);
    std::string hex = Hex(wire);
    if (!full && reply.type == FrameType::kAck) {
      hex = hex.substr(0, 42) + std::string(hex.size() - 42, '*');
    }
    out_ += prefix_ + " frame " + label + "\n  " + hex + "\n";
    return reply;
  }

  IngestResponse Ingest(service::ServiceHandler& handler, uint64_t stream,
                        const std::vector<double>& values, bool full = false) {
    IngestRequest request;
    request.stream = stream;
    request.values = values;
    return Frame(handler, request,
                 "ingest stream=" + std::to_string(stream) +
                     " points=" + std::to_string(values.size()),
                 full);
  }

  void Hello(service::ServiceHandler& handler, uint8_t version) {
    IngestRequest request;
    request.hello = true;
    request.protocol_version = version;
    Frame(handler, request, "hello version=" + std::to_string(version));
  }

  // Responses mentioning `from` (the checkpoint path) render `to` instead,
  // with Content-Length masked.
  void Mask(std::string from, std::string to) {
    mask_ = std::move(from);
    mask_to_ = std::move(to);
  }

  const std::string& last_blob() const { return last_blob_; }
  std::string& out() { return out_; }

 private:
  std::string Masked(const std::string& raw) const {
    if (raw.find(mask_) == std::string::npos) return raw;
    const std::string body = raw.substr(raw.find("\r\n\r\n") + 4);
    return HeadWithoutLength(raw) + ReplaceAll(body, mask_, mask_to_);
  }

  std::string prefix_;
  std::string out_;
  std::string last_blob_;
  std::string mask_;
  std::string mask_to_;
};

// Every counter the ingest paths of either daemon touch.
std::vector<std::string> TrackedCounters(std::string_view daemon) {
  std::vector<std::string> names;
  for (const char* base :
       {"ingest_frames", "frames_rejected", "points_accepted",
        "points_forwarded"}) {
    names.push_back(std::string(daemon) + "." + base);
  }
  for (int r = 1; r <= 7; ++r) {
    names.push_back(
        std::string(daemon) + ".reject." +
        std::string(service::RejectReasonName(static_cast<RejectReason>(r))));
  }
  if (daemon == "router") {
    for (const char* site :
         {"migrate_wait", "unhealthy", "pool_exhausted", "transport"}) {
      names.push_back(std::string("router.reject_site.") + site);
    }
  }
  return names;
}

class CounterDeltas {
 public:
  CounterDeltas() {
    for (const char* daemon : {"service", "router"}) {
      for (const std::string& name : TrackedCounters(daemon)) {
        before_[name] = Value(name);
      }
    }
  }

  // "counter <name> +<delta>" for every tracked counter that moved.
  std::string Render(const std::string& prefix) const {
    std::string out;
    for (const auto& [name, start] : before_) {
      const uint64_t delta = Value(name) - start;
      if (delta != 0) {
        out += prefix + " counter " + name + " +" + std::to_string(delta) +
               "\n";
      }
    }
    return out;
  }

 private:
  static uint64_t Value(const std::string& name) {
    return telemetry::Registry::Global().GetCounter(name)->Value();
  }
  std::map<std::string, uint64_t> before_;
};

std::string HubScript() {
  std::atomic<uint64_t> clock{1'000'000'000ull};
  auto options = GoldenOptions(&clock);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("egi_control_plane_golden_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  options.checkpoint_path = (dir / "hub.egis").string();
  auto created = service::HubService::Create(options);
  EXPECT_TRUE(created.ok()) << created.status();
  if (!created.ok()) return "";
  service::HubService& hub = **created;

  const CounterDeltas deltas;
  Script s("hub");
  s.Mask(options.checkpoint_path, "<checkpoint-path>");
  s.Http(hub, "GET", "/healthz");
  s.Http(hub, "POST", "/healthz");
  s.Http(hub, "GET", "/metrics");
  s.Http(hub, "DELETE", "/metrics");
  s.Http(hub, "POST", "/v1/streams", "", "{\"tenant\":\"acme\",\"name\":\"cpu\"}");
  s.Http(hub, "POST", "/v1/streams", "", "{\"tenant\":\"acme\",\"name\":\"mem\"}");
  s.Http(hub, "POST", "/v1/streams", "", "{\"tenant\":\"beta\"}");
  s.Http(hub, "POST", "/v1/streams", "", "{\"name\":\"x\"}");
  s.Http(hub, "POST", "/v1/streams", "", "{\"tenant\":\"\"}");
  s.Http(hub, "POST", "/v1/streams", "", "not json");
  s.Http(hub, "PUT", "/v1/streams");

  s.Hello(hub, service::kProtocolVersion);
  s.Hello(hub, service::kProtocolVersion + 1);
  s.Ingest(hub, 0, Points(64, 1));
  s.Ingest(hub, 1, Points(64, 2));
  s.Ingest(hub, 0, Points(64, 3));
  s.Ingest(hub, 99, Points(4, 4));
  s.Ingest(hub, 2, Points(129, 5));  // queue holds 128: queue_full
  s.Ingest(hub, 2, Points(900, 6));  // 871 tokens left: rate_limited
  clock += 10'000'000'000ull;        // refills to the 1000-point burst
  s.Ingest(hub, 2, Points(100, 7));
  s.Http(hub, "POST", "/v1/flush");
  s.Ingest(hub, 0, {}, /*full=*/true);
  s.Ingest(hub, 2, {}, /*full=*/true);

  s.Http(hub, "GET", "/v1/streams");
  s.Http(hub, "GET", "/v1/streams/0");
  s.Http(hub, "GET", "/v1/streams/0", "tail=3");
  s.Http(hub, "GET", "/v1/streams/0", "tail=0");
  s.Http(hub, "GET", "/v1/streams/0/checkpoint");
  const std::string blob = s.last_blob();
  s.Http(hub, "PUT", "/v1/streams/1/checkpoint", "", blob);
  s.Http(hub, "GET", "/v1/streams/1");
  s.Ingest(hub, 1, {}, /*full=*/true);
  s.Http(hub, "PUT", "/v1/streams/1/checkpoint", "", "garbage");
  s.Http(hub, "PUT", "/v1/streams/9/checkpoint", "", blob);
  s.Http(hub, "GET", "/v1/streams/9/checkpoint");
  s.Http(hub, "POST", "/v1/streams/1/checkpoint");
  s.Http(hub, "GET", "/v1/streams/1/bogus");
  s.Http(hub, "PATCH", "/v1/streams/1");
  s.Http(hub, "DELETE", "/v1/streams/2");
  s.Http(hub, "DELETE", "/v1/streams/2");
  s.Http(hub, "GET", "/v1/streams/2");
  s.Ingest(hub, 2, Points(4, 8));
  s.Http(hub, "GET", "/v1/streams/99");
  s.Http(hub, "GET", "/v1/flush");
  s.Http(hub, "POST", "/v1/flush");
  s.Http(hub, "POST", "/v1/checkpoint");
  s.Http(hub, "GET", "/v1/checkpoint");
  s.Http(hub, "GET", "/v1/bogus");
  s.Http(hub, "GET", "/");

  hub.BeginDrain();
  s.Ingest(hub, 0, Points(4, 9));
  s.Hello(hub, service::kProtocolVersion);
  s.Hello(hub, service::kProtocolVersion + 1);
  s.Http(hub, "POST", "/v1/streams", "", "{\"tenant\":\"acme\"}");
  s.Http(hub, "GET", "/healthz");

  std::string out = s.out() + deltas.Render("hub");
  created->reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return out;
}

std::string RouterScript() {
  std::atomic<uint64_t> clock{1'000'000'000ull};
  RouterRig rig(2, 2, GoldenOptions(&clock));
  RouterCore& router = rig.router();

  const CounterDeltas deltas;
  Script s("router");
  s.Http(router, "GET", "/healthz");
  s.Http(router, "POST", "/healthz");
  s.Http(router, "GET", "/metrics");
  s.Http(router, "POST", "/metrics");
  for (int i = 0; i < 4; ++i) {
    s.Http(router, "POST", "/v1/streams", "",
           "{\"tenant\":\"acme\",\"name\":\"s" + std::to_string(i) + "\"}");
  }
  s.Http(router, "POST", "/v1/streams", "", "{\"tenant\":\"beta\"}");
  s.Http(router, "POST", "/v1/streams", "", "{\"name\":\"x\"}");
  s.Http(router, "POST", "/v1/streams", "", "{\"tenant\":\"\"}");
  s.Http(router, "DELETE", "/v1/streams");

  s.Hello(router, service::kProtocolVersion);
  s.Hello(router, service::kProtocolVersion + 1);
  for (uint64_t gid = 0; gid < 4; ++gid) {
    s.Ingest(router, gid, Points(64, 10 + gid));
  }
  s.Ingest(router, 0, Points(64, 20));
  s.Ingest(router, 99, Points(4, 21));
  s.Ingest(router, 4, Points(129, 22));  // shard queue_full, passed through
  s.Ingest(router, 4, Points(900, 23));  // shard rate_limited
  s.Http(router, "POST", "/v1/flush");
  for (uint64_t gid = 0; gid < 5; ++gid) {
    s.Ingest(router, gid, {}, /*full=*/true);
  }

  s.Http(router, "GET", "/v1/streams");
  s.Http(router, "GET", "/v1/streams/0");
  s.Http(router, "GET", "/v1/streams/0", "tail=3");
  s.Http(router, "GET", "/v1/streams/1");
  s.Http(router, "GET", "/v1/streams/0/checkpoint");
  s.Http(router, "PUT", "/v1/streams/0");
  s.Http(router, "DELETE", "/v1/streams/3");
  s.Http(router, "DELETE", "/v1/streams/3");
  s.Http(router, "GET", "/v1/streams/3");
  s.Ingest(router, 3, Points(4, 24));
  s.Http(router, "GET", "/v1/streams/99");
  s.Http(router, "POST", "/v1/checkpoint");
  s.Http(router, "GET", "/v1/checkpoint");
  s.Http(router, "GET", "/v1/flush");

  s.Http(router, "GET", "/v1/shards");
  s.Http(router, "PUT", "/v1/shards");
  s.Http(router, "POST", "/v1/shards", "", "{\"shards\":[]}");
  s.Http(router, "POST", "/v1/shards", "", "{\"shards\":[\"nope\"]}");
  s.Http(router, "POST", "/v1/shards", "", "{\"shards\":[\"a\\\"]}");
  s.Http(router, "POST", "/v1/shards", "", "{\"shards\":\"shard0:80:81\"}");
  s.Http(router, "POST", "/v1/shards", "", "{}");
  s.Http(router, "POST", "/v1/shards", "",
         "{\"shards\":[\"shard0:80:81\",\"shard0:80:81\"]}");
  s.Http(router, "POST", "/v1/shards", "",
         "{\"shards\": [ \"shard0:80:81\" , \"shard1:80:81\" ] }");
  s.Http(router, "GET", "/v1/shards");

  // Shard 1 (stream 4's) dies: the first forward meets the transport
  // error, later ones the unhealthy mark; fan-out sections, forwards and
  // creates report it.
  rig.shard(1).dead.store(true);
  for (uint64_t gid = 0; gid < 5; ++gid) {
    s.Ingest(router, gid, Points(4, 30 + gid));
  }
  s.Ingest(router, 4, Points(4, 35));
  rig.shard(0).service->Flush();
  s.Http(router, "GET", "/healthz");
  s.Http(router, "GET", "/metrics");
  s.Http(router, "GET", "/v1/streams");
  s.Http(router, "POST", "/v1/flush");
  for (uint64_t gid = 0; gid < 5; ++gid) {
    s.Http(router, "GET", "/v1/streams/" + std::to_string(gid));
  }
  for (int i = 0; i < 3; ++i) {
    s.Http(router, "POST", "/v1/streams", "", "{\"tenant\":\"late\"}");
  }
  rig.shard(1).dead.store(false);
  router.ProbeNow();
  s.Http(router, "GET", "/healthz");
  s.Http(router, "GET", "/v1/bogus");

  router.BeginDrain();
  s.Ingest(router, 0, Points(4, 40));
  s.Hello(router, service::kProtocolVersion);
  s.Hello(router, service::kProtocolVersion + 1);
  s.Http(router, "POST", "/v1/streams", "", "{\"tenant\":\"acme\"}");
  s.Http(router, "GET", "/healthz");
  return s.out() + deltas.Render("router");
}

// "" when equal; otherwise the first differing line of each, so a failure
// names the request instead of printing both files.
std::string FirstDifference(const std::string& actual,
                            const std::string& expected) {
  std::istringstream a(actual);
  std::istringstream e(expected);
  std::string label;
  for (size_t line = 1;; ++line) {
    std::string al;
    std::string el;
    const bool more_a = static_cast<bool>(std::getline(a, al));
    const bool more_e = static_cast<bool>(std::getline(e, el));
    if (!more_a && !more_e) return "";
    if (al != el || more_a != more_e) {
      return "line " + std::to_string(line) + " after \"" + label +
             "\"\n  actual:   " + al + "\n  expected: " + el;
    }
    if (al.rfind("  ", 0) != 0) label = al;
  }
}

// Counter lines only mean something when telemetry records.
std::string WithoutCounters(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find(" counter ") == std::string::npos) out += line + "\n";
  }
  return out;
}

TEST(ControlPlaneGoldenTest, MatchesRecordedResponses) {
  const std::string actual = HubScript() + RouterScript();
  if (GetEnvBool("EGI_UPDATE_GOLDEN", false)) {
    ASSERT_TRUE(telemetry::Enabled())
        << "regenerate with telemetry on, or the counter lines are lost";
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << actual;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "control-plane golden regenerated at " << GoldenPath();
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing " << GoldenPath()
                         << " (run with EGI_UPDATE_GOLDEN=1 to create it)";
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (telemetry::Enabled()) {
    EXPECT_EQ(FirstDifference(actual, expected), "");
  } else {
    EXPECT_EQ(actual, WithoutCounters(actual));  // nothing moved
    EXPECT_EQ(FirstDifference(actual, WithoutCounters(expected)), "");
  }
}

}  // namespace
}  // namespace egi::router
