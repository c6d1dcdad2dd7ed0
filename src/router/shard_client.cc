// TCP implementation of ShardChannel (src/router): two lazily-dialed
// sockets per channel — control (HTTP) and data (frames) — with
// per-operation deadlines enforced by poll. It is the one client of the two
// planes: the router dials its shards with it, and bench/loadgen.cc drives
// egid or the router with it. Like src/service/server.cc: blocking sockets,
// bounded reads, no buffering framework.

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "router/shard_channel.h"
#include "service/http.h"
#include "service/server.h"

namespace egi::router {

namespace {

using Clock = std::chrono::steady_clock;
using service::WriteAll;

int RemainingMillis(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

Result<int> Connect(const std::string& host, int port,
                    Clock::time_point deadline) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not an IPv4 literal: resolve. The router talks to a handful of
    // shards, so a blocking lookup at dial time is fine.
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
        res == nullptr) {
      return Status::InvalidArgument("cannot resolve host '" + host + "'");
    }
    addr.sin_addr =
        reinterpret_cast<struct sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const Status status = Status::Internal(
        "connect " + host + ":" + std::to_string(port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  (void)deadline;  // connect is blocking; the OS timeout bounds it
  return fd;
}

/// Reads at least one byte into `buffer` before `deadline`, or errors.
Status ReadSome(int fd, std::string* buffer, Clock::time_point deadline) {
  char chunk[64 * 1024];
  while (true) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int millis = RemainingMillis(deadline);
    if (millis == 0) return Status::Internal("shard read timed out");
    if (::poll(&pfd, 1, millis) <= 0) continue;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) return Status::Internal("shard closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("read: ") + std::strerror(errno));
    }
    buffer->append(chunk, static_cast<size_t>(n));
    return Status::OK();
  }
}

class TcpChannel final : public ShardChannel {
 public:
  TcpChannel(ShardEndpoint endpoint, double timeout_seconds)
      : endpoint_(std::move(endpoint)),
        timeout_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(timeout_seconds))) {}

  ~TcpChannel() override {
    if (http_fd_ >= 0) ::close(http_fd_);
    if (ingest_fd_ >= 0) ::close(ingest_fd_);
  }

  Result<HttpReply> Http(std::string_view method, std::string_view target,
                         std::string_view body,
                         std::string_view content_type) override {
    const auto deadline = Clock::now() + timeout_;
    if (http_fd_ < 0) {
      auto fd = Connect(endpoint_.host, endpoint_.http_port, deadline);
      if (!fd.ok()) return fd.status();
      http_fd_ = *fd;
      http_buffer_.clear();
    }
    const std::string request =
        service::RenderHttpRequest(method, target, body, content_type);
    Status status = WriteAll(
        http_fd_, reinterpret_cast<const uint8_t*>(request.data()),
        request.size());
    if (!status.ok()) return Fail(&http_fd_, status);
    while (true) {
      service::HttpResponse response;
      size_t consumed = 0;
      const service::HttpParseResult parsed =
          service::ParseHttpResponse(http_buffer_, &response, &consumed);
      if (parsed == service::HttpParseResult::kMalformed) {
        return Fail(&http_fd_,
                    Status::Internal("malformed HTTP response from shard"));
      }
      if (parsed == service::HttpParseResult::kComplete) {
        http_buffer_.erase(0, consumed);
        HttpReply reply;
        reply.status = response.status;
        reply.body = std::move(response.body);
        return reply;
      }
      status = ReadSome(http_fd_, &http_buffer_, deadline);
      if (!status.ok()) return Fail(&http_fd_, status);
    }
  }

  Result<service::IngestResponse> Ingest(
      uint64_t stream, std::span<const double> values) override {
    const auto deadline = Clock::now() + timeout_;
    if (ingest_fd_ < 0) {
      auto fd = Connect(endpoint_.host, endpoint_.ingest_port, deadline);
      if (!fd.ok()) return fd.status();
      ingest_fd_ = *fd;
      ingest_buffer_.clear();
      // Version handshake before the first data frame: a shard speaking a
      // different protocol revision fails loudly here, not by misparsing.
      EGI_RETURN_IF_ERROR(Handshake(deadline));
    }
    frame_.clear();
    service::EncodeIngestFrame(stream, values, &frame_);
    Status status = WriteAll(ingest_fd_, frame_.data(), frame_.size());
    if (!status.ok()) return Fail(&ingest_fd_, status);
    return ReadResponse(deadline);
  }

 private:
  Status Fail(int* fd, Status status) {
    ::close(*fd);
    *fd = -1;
    return status;
  }

  Result<service::IngestResponse> ReadResponse(Clock::time_point deadline) {
    while (true) {
      service::IngestResponse response;
      size_t consumed = 0;
      const service::FrameParseResult parsed = service::DecodeResponseFrame(
          std::span<const uint8_t>(
              reinterpret_cast<const uint8_t*>(ingest_buffer_.data()),
              ingest_buffer_.size()),
          &response, &consumed);
      if (parsed == service::FrameParseResult::kMalformed) {
        return Fail(&ingest_fd_,
                    Status::Internal("malformed frame from shard"));
      }
      if (parsed == service::FrameParseResult::kComplete) {
        ingest_buffer_.erase(0, consumed);
        return response;
      }
      const Status status = ReadSome(ingest_fd_, &ingest_buffer_, deadline);
      if (!status.ok()) return Fail(&ingest_fd_, status);
    }
  }

  Status Handshake(Clock::time_point deadline) {
    frame_.clear();
    service::EncodeHelloFrame(service::kProtocolVersion, &frame_);
    Status status = WriteAll(ingest_fd_, frame_.data(), frame_.size());
    if (!status.ok()) return Fail(&ingest_fd_, status);
    auto response = ReadResponse(deadline);
    if (!response.ok()) return response.status();
    if (response->type == service::FrameType::kReject) {
      return Fail(&ingest_fd_,
                  Status::FailedPrecondition(
                      "shard rejected hello: " +
                      std::string(service::RejectReasonName(
                          response->reason))));
    }
    if (response->type != service::FrameType::kHelloAck ||
        response->protocol_version != service::kProtocolVersion) {
      return Fail(&ingest_fd_,
                  Status::FailedPrecondition(
                      "shard answered hello with protocol version " +
                      std::to_string(response->protocol_version) +
                      " (this router speaks " +
                      std::to_string(service::kProtocolVersion) + ")"));
    }
    return Status::OK();
  }

  ShardEndpoint endpoint_;
  Clock::duration timeout_;
  int http_fd_ = -1;
  int ingest_fd_ = -1;
  std::string http_buffer_;
  std::string ingest_buffer_;
  std::vector<uint8_t> frame_;
};

}  // namespace

ChannelFactory TcpChannelFactory(double timeout_seconds) {
  return [timeout_seconds](const ShardEndpoint& endpoint) {
    return std::make_unique<TcpChannel>(endpoint, timeout_seconds);
  };
}

}  // namespace egi::router
