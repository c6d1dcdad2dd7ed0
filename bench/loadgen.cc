// loadgen — the smoke scripts' load driver for the egid daemon
// (tools/egid_main.cc) and the egid-router front door
// (tools/egid_router_main.cc); both speak the same two planes.
//
// Each of `--conns` connection threads creates its slice of `--streams`
// detection streams over the HTTP control plane, then sends `--rounds`
// passes of one `--batch`-point ingest frame per stream, waiting for each
// frame's ack. It prints one line of counts:
//
//   ./build/egid --window=16 --buffer=256 &   # prints its ports
//   ./build/loadgen --http-port=P --ingest-port=Q \
//       --streams=50 --conns=4 --batch=20 --rounds=3
//   {"frames":150,"points_accepted":3000,"rejects":0,"transport_error":false}
//
// The client is the router's own shard channel (router::TcpChannelFactory):
// the hello handshake, response parsing and deadlines are the router's.
// Rejects (rate-limit / queue-full backpressure, a dead shard behind the
// router) are counted, not retried, and any reject or transport error makes
// the exit status nonzero, so a smoke phase that must lose nothing asserts
// it with `|| fail`.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "router/shard_channel.h"
#include "service/frame.h"
#include "service/http.h"
#include "util/json.h"
#include "util/rng.h"

namespace egi::bench {
namespace {

// Per-operation deadline. Long enough for a frame the router holds while
// its stream migrates; a hung server still fails the run.
constexpr double kTimeoutSeconds = 30.0;

int64_t FlagInt(int argc, char** argv, const char* name, int64_t fallback) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) == 0 &&
        std::strncmp(arg + 2, name, len) == 0 && arg[2 + len] == '=') {
      return std::atoll(arg + 2 + len + 1);
    }
  }
  return fallback;
}

struct Counts {
  uint64_t frames = 0;
  uint64_t points_accepted = 0;
  uint64_t rejects = 0;
  bool transport_error = false;
};

/// One connection thread: creates streams [begin, end), then `rounds`
/// passes of one frame per stream.
void Drive(const router::ShardEndpoint& target, size_t begin, size_t end,
           int rounds, int batch, uint64_t seed, Counts* counts) {
  const auto channel = router::TcpChannelFactory(kTimeoutSeconds)(target);
  std::vector<uint64_t> ids;
  for (size_t s = begin; s < end; ++s) {
    auto reply = channel->Http(
        "POST", "/v1/streams",
        service::RenderCreateStreamBody("loadgen", "s" + std::to_string(s)),
        "application/json");
    uint64_t id = 0;
    if (!reply.ok() || reply->status != 201 ||
        !JsonFindUInt(reply->body, "stream", &id)) {
      std::fprintf(stderr, "loadgen: stream create %zu failed: %s\n", s,
                   reply.ok() ? reply->body.c_str()
                              : reply.status().ToString().c_str());
      counts->transport_error = true;
      return;
    }
    ids.push_back(id);
  }
  Rng rng(seed);
  std::vector<double> values(static_cast<size_t>(batch));
  for (int round = 0; round < rounds; ++round) {
    for (const uint64_t id : ids) {
      for (double& v : values) v = rng.UniformDouble();
      auto reply = channel->Ingest(id, values);
      if (!reply.ok()) {
        std::fprintf(stderr, "loadgen: ingest failed: %s\n",
                     reply.status().ToString().c_str());
        counts->transport_error = true;
        return;
      }
      counts->frames += 1;
      if (reply->type == service::FrameType::kAck) {
        counts->points_accepted += static_cast<uint64_t>(batch);
      } else {
        counts->rejects += 1;
      }
    }
  }
}

int Run(int argc, char** argv) {
  const router::ShardEndpoint target{
      "127.0.0.1", static_cast<int>(FlagInt(argc, argv, "http-port", 0)),
      static_cast<int>(FlagInt(argc, argv, "ingest-port", 0))};
  const int64_t streams = FlagInt(argc, argv, "streams", 100);
  const int64_t conns = FlagInt(argc, argv, "conns", 4);
  const int64_t batch = FlagInt(argc, argv, "batch", 20);
  const int64_t rounds = FlagInt(argc, argv, "rounds", 3);
  if (target.http_port <= 0 || target.ingest_port <= 0 || streams <= 0 ||
      conns <= 0 || batch <= 0 || rounds <= 0) {
    std::fprintf(stderr,
                 "usage: loadgen --http-port=P --ingest-port=Q [--streams=N] "
                 "[--conns=C] [--batch=B] [--rounds=R]\n(ports are what the "
                 "egid/egid_router banner printed at startup)\n");
    return 2;
  }

  std::vector<Counts> counts(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  for (int64_t c = 0; c < conns; ++c) {
    threads.emplace_back(Drive, target,
                         static_cast<size_t>(streams * c / conns),
                         static_cast<size_t>(streams * (c + 1) / conns),
                         static_cast<int>(rounds), static_cast<int>(batch),
                         7000 + static_cast<uint64_t>(c),
                         &counts[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();

  Counts total;
  for (const Counts& c : counts) {
    total.frames += c.frames;
    total.points_accepted += c.points_accepted;
    total.rejects += c.rejects;
    total.transport_error = total.transport_error || c.transport_error;
  }
  std::printf("{\"frames\":%" PRIu64 ",\"points_accepted\":%" PRIu64
              ",\"rejects\":%" PRIu64 ",\"transport_error\":%s}\n",
              total.frames, total.points_accepted, total.rejects,
              total.transport_error ? "true" : "false");
  return (total.transport_error || total.rejects > 0) ? 1 : 0;
}

}  // namespace
}  // namespace egi::bench

int main(int argc, char** argv) { return egi::bench::Run(argc, argv); }
