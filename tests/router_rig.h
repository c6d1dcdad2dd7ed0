#pragma once

// Loopback shard rig shared by the router tests and the control-plane
// golden: N in-process HubService shards behind one RouterCore, wired with
// channels that call straight into each shard, so every router behavior is
// testable without a socket.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "router/router_core.h"
#include "router/shard_map.h"
#include "service/frame.h"
#include "service/http.h"
#include "service/hub_service.h"

namespace egi::router {

inline constexpr const char* kTestSpec = "ensemble:wmax=5,amax=5,n=8,seed=42";

inline service::HubServiceOptions ShardOptions(size_t workers) {
  service::HubServiceOptions options;
  options.spec = kTestSpec;
  options.stream.window_length = 32;
  options.stream.buffer_capacity = 256;
  options.stream.refit_interval = 48;
  options.num_workers = workers;
  return options;
}

struct LoopbackShard {
  std::unique_ptr<service::HubService> service;
  std::atomic<bool> dead{false};
};

/// In-process channel: Http/Ingest call straight into a HubService. The
/// dead flag simulates a crashed shard (transport errors, as TCP would
/// surface them).
class LoopbackChannel final : public ShardChannel {
 public:
  explicit LoopbackChannel(LoopbackShard* shard) : shard_(shard) {}

  Result<HttpReply> Http(std::string_view method, std::string_view target,
                         std::string_view body,
                         std::string_view /*content_type*/) override {
    if (shard_->dead.load()) return Status::Internal("loopback shard down");
    service::HttpRequest request;
    request.method = std::string(method);
    const size_t q = target.find('?');
    request.path = std::string(target.substr(0, q));
    if (q != std::string_view::npos) {
      request.query = std::string(target.substr(q + 1));
    }
    request.body = std::string(body);
    const std::string raw = shard_->service->Handle(request);
    service::HttpResponse response;
    size_t consumed = 0;
    if (service::ParseHttpResponse(raw, &response, &consumed) !=
        service::HttpParseResult::kComplete) {
      return Status::Internal("loopback response did not parse");
    }
    return HttpReply{response.status, std::move(response.body)};
  }

  Result<service::IngestResponse> Ingest(
      uint64_t stream, std::span<const double> values) override {
    if (shard_->dead.load()) return Status::Internal("loopback shard down");
    service::IngestRequest request;
    request.stream = stream;
    request.values.assign(values.begin(), values.end());
    return shard_->service->HandleIngest(request);
  }

 private:
  LoopbackShard* shard_;
};

/// N loopback shards plus a router over the first `active` of them.
class RouterRig {
 public:
  RouterRig(size_t num_shards, size_t active, size_t workers)
      : RouterRig(num_shards, active, ShardOptions(workers)) {}

  RouterRig(size_t num_shards, size_t active,
            const service::HubServiceOptions& shard_options) {
    for (size_t i = 0; i < num_shards; ++i) {
      auto shard = std::make_unique<LoopbackShard>();
      auto service = service::HubService::Create(shard_options);
      EXPECT_TRUE(service.ok()) << service.status();
      shard->service = std::move(service).value();
      endpoints_.push_back({"shard" + std::to_string(i), 80, 81});
      by_endpoint_[EndpointToString(endpoints_.back())] = shard.get();
      shards_.push_back(std::move(shard));
    }
    RouterOptions options;
    options.shards.assign(endpoints_.begin(),
                          endpoints_.begin() +
                              static_cast<ptrdiff_t>(active));
    options.channels_per_shard = 2;
    options.acquire_timeout_seconds = 5.0;
    options.migrate_timeout_seconds = 10.0;
    options.factory = [this](const ShardEndpoint& endpoint) {
      return std::make_unique<LoopbackChannel>(
          by_endpoint_.at(EndpointToString(endpoint)));
    };
    auto router = RouterCore::Create(std::move(options));
    EXPECT_TRUE(router.ok()) << router.status();
    router_ = std::move(router).value();
  }

  RouterCore& router() { return *router_; }
  LoopbackShard& shard(size_t i) { return *shards_[i]; }
  const ShardEndpoint& endpoint(size_t i) const { return endpoints_[i]; }

  /// One control-plane round trip through the router, parsed.
  service::HttpResponse Http(std::string_view method, std::string_view path,
                             std::string_view query = "",
                             std::string_view body = "") {
    service::HttpRequest request;
    request.method = std::string(method);
    request.path = std::string(path);
    request.query = std::string(query);
    request.body = std::string(body);
    const std::string raw = router_->Handle(request);
    service::HttpResponse response;
    size_t consumed = 0;
    EXPECT_EQ(service::ParseHttpResponse(raw, &response, &consumed),
              service::HttpParseResult::kComplete);
    return response;
  }

  size_t CreateStream(const std::string& name) {
    const auto response =
        Http("POST", "/v1/streams", "",
             "{\"tenant\":\"t\",\"name\":\"" + name + "\"}");
    EXPECT_EQ(response.status, 201) << response.body;
    return ParseUInt(response.body, "stream");
  }

  service::IngestResponse Ingest(uint64_t stream,
                                 std::span<const double> values) {
    service::IngestRequest request;
    request.stream = stream;
    request.values.assign(values.begin(), values.end());
    return router_->HandleIngest(request);
  }

  static size_t ParseUInt(const std::string& body, const std::string& key) {
    const size_t pos = body.find("\"" + key + "\":");
    EXPECT_NE(pos, std::string::npos) << key << " not in " << body;
    if (pos == std::string::npos) return SIZE_MAX;
    return static_cast<size_t>(std::strtoull(
        body.c_str() + pos + key.size() + 3, nullptr, 10));
  }

 private:
  std::vector<std::unique_ptr<LoopbackShard>> shards_;
  std::vector<ShardEndpoint> endpoints_;
  std::map<std::string, LoopbackShard*> by_endpoint_;
  std::unique_ptr<RouterCore> router_;
};

}  // namespace egi::router
