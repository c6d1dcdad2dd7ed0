// egid — the ensemble grammar-induction detection daemon.
//
// Hosts a multi-tenant streaming detector hub behind two TCP planes (see
// src/service/): an HTTP/1.1 JSON control plane (stream CRUD, score
// queries, /metrics, /healthz) and a length-prefixed binary frame protocol
// for point ingest with per-tenant quotas and bounded-queue backpressure.
// Periodic atomic checkpoints make a SIGKILL survivable: on restart the
// daemon restores the last complete checkpoint and every stream continues
// bitwise-identically from its captured state.
//
// Configuration is flags first, environment second (every flag has an
// EGID_* env twin, parsed with the util/env.h helpers):
//
//   egid --http-port=8080 --ingest-port=8081 \
//        --checkpoint=/var/lib/egid/checkpoint.egis \
//        --checkpoint-interval=30 --window=64
//
// On startup egid prints one line to stdout:
//   egid ready http=<port> ingest=<port> streams=<n>
// which the smoke script and loadgen parse to find ephemeral ports.
// SIGTERM/SIGINT trigger a clean drain: stop accepting, reject new frames,
// score everything queued, write a final checkpoint, exit 0.

#include <cstdio>
#include <string>

#include "daemon.h"
#include "service/hub_service.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: egid [--http-port=N] [--ingest-port=N] [--bind=ADDR]\n"
               "            [--spec=SPEC] [--window=N] [--buffer=N]\n"
               "            [--refit-interval=N] [--queue-capacity=N]\n"
               "            [--workers=N] [--max-streams-per-tenant=N]\n"
               "            [--points-per-second=R] [--quota-burst=N]\n"
               "            [--checkpoint=PATH] [--checkpoint-interval=SEC]\n"
               "Every flag has an EGID_* environment twin (EGID_HTTP_PORT,\n"
               "EGID_CHECKPOINT, ...). Ports default to 0 = ephemeral.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const egi::service::DaemonFlags flags{"egid", "EGID_", argc, argv};
  if (flags.help()) return Usage();

  egi::service::HubServiceOptions options;
  options.spec = flags.Str("spec", "ensemble");
  options.stream.window_length = static_cast<size_t>(flags.Int("window", 64));
  options.stream.buffer_capacity =
      static_cast<size_t>(flags.Int("buffer", 4096));
  options.stream.refit_interval =
      static_cast<size_t>(flags.Int("refit-interval", 512));
  options.checkpoint_path = flags.Str("checkpoint", "");
  options.queue_capacity =
      static_cast<size_t>(flags.Int("queue-capacity", 8192));
  options.max_streams_per_tenant =
      static_cast<size_t>(flags.Int("max-streams-per-tenant", 0));
  options.points_per_second = flags.Double("points-per-second", 0.0);
  options.quota_burst = flags.Double("quota-burst", 0.0);
  options.num_workers = static_cast<size_t>(flags.Int("workers", 2));

  auto service = egi::service::HubService::Create(std::move(options));
  if (!service.ok()) return flags.Fail(service.status().ToString());

  egi::service::ServerOptions server_options;
  server_options.checkpoint_interval_seconds =
      flags.Double("checkpoint-interval", 0.0);
  return egi::service::RunDaemon(
      flags, service->get(), "egid",
      "streams=" + std::to_string((*service)->num_streams()), server_options);
}
