#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <list>
#include <mutex>
#include <thread>
#include <vector>

#include "egi/result.h"
#include "egi/telemetry.h"
#include "service/frame.h"
#include "service/http.h"

namespace egi::service {

namespace {

/// Poll granularity of every blocking loop: the latency bound on noticing
/// RequestStop.
constexpr int kPollMillis = 200;

/// Waits for readability with a timeout; returns false on stop/timeout with
/// nothing to read, true when the fd is readable (or closed).
bool PollReadable(int fd) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int n = ::poll(&pfd, 1, kPollMillis);
  return n > 0;
}

}  // namespace

Status WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

struct Server::Impl {
  ServiceHandler* service;
  ServerOptions options;

  int http_fd = -1;
  int ingest_fd = -1;
  int http_port = 0;
  int ingest_port = 0;

  std::atomic<bool> stop{false};
  std::vector<std::thread> acceptors;
  std::thread checkpoint_timer;
  // One entry per connection thread, joined by the accept loops once
  // `done` (so finished threads never pile up) and by JoinConnections at
  // drain. List nodes are stable: a thread holds a pointer to its own.
  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex conns_mu;
  std::list<Conn> conns;

  Result<int> Listen(int port, int* bound_port);
  void AcceptLoop(int listen_fd, bool http);
  // Reads `fd` until the peer closes, a read fails or the server stops,
  // handing each chunk to `consume`, which returns false to close; then
  // closes `fd`.
  template <typename Consume>
  void ReadLoop(int fd, Consume consume);
  void HttpConnection(int fd);
  void IngestConnection(int fd);
  void CheckpointTimerLoop();
  void JoinConnections();
};

Server::Server(ServiceHandler* service, ServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->service = service;
  impl_->options = std::move(options);
}

Server::~Server() {
  RequestStop();
  for (std::thread& t : impl_->acceptors) {
    if (t.joinable()) t.join();
  }
  if (impl_->checkpoint_timer.joinable()) impl_->checkpoint_timer.join();
  impl_->JoinConnections();
  if (impl_->http_fd >= 0) ::close(impl_->http_fd);
  if (impl_->ingest_fd >= 0) ::close(impl_->ingest_fd);
}

Result<int> Server::Impl::Listen(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::Internal("bind " + options.bind_address + ":" +
                         std::to_string(port) + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 512) < 0) {
    const Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

Status Server::Start() {
  EGI_ASSIGN_OR_RETURN(impl_->http_fd, impl_->Listen(impl_->options.http_port,
                                                     &impl_->http_port));
  auto ingest = impl_->Listen(impl_->options.ingest_port,
                              &impl_->ingest_port);
  if (!ingest.ok()) {
    ::close(impl_->http_fd);
    impl_->http_fd = -1;
    return ingest.status();
  }
  impl_->ingest_fd = *ingest;
  impl_->acceptors.emplace_back(
      [impl = impl_.get()] { impl->AcceptLoop(impl->http_fd, true); });
  impl_->acceptors.emplace_back(
      [impl = impl_.get()] { impl->AcceptLoop(impl->ingest_fd, false); });
  if (impl_->options.checkpoint_interval_seconds > 0.0) {
    impl_->checkpoint_timer =
        std::thread([impl = impl_.get()] { impl->CheckpointTimerLoop(); });
  }
  return Status::OK();
}

int Server::http_port() const { return impl_->http_port; }
int Server::ingest_port() const { return impl_->ingest_port; }

void Server::RequestStop() {
  impl_->stop.store(true, std::memory_order_relaxed);
}

Status Server::Wait() {
  while (!impl_->stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMillis));
  }
  for (std::thread& t : impl_->acceptors) t.join();
  impl_->acceptors.clear();
  if (impl_->checkpoint_timer.joinable()) impl_->checkpoint_timer.join();
  // New frames now race only against connection threads, which HubService
  // rejects once draining; the final checkpoint runs after the queues are
  // flushed and the drain workers have stopped.
  impl_->service->BeginDrain();
  impl_->JoinConnections();
  return impl_->service->Shutdown();
}

void Server::Impl::AcceptLoop(int listen_fd, bool http) {
  static auto* accepted =
      telemetry::Registry::Global().GetCounter("service.connections");
  while (!stop.load(std::memory_order_relaxed)) {
    if (!PollReadable(listen_fd)) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    accepted->Add(1);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conns_mu);
    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();  // its last act was setting `done`
      it = conns.erase(it);
    }
    Conn* conn = &conns.emplace_back();
    conn->thread = std::thread([this, fd, http, conn] {
      if (http) {
        HttpConnection(fd);
      } else {
        IngestConnection(fd);
      }
      conn->done.store(true, std::memory_order_release);
    });
  }
}

template <typename Consume>
void Server::Impl::ReadLoop(int fd, Consume consume) {
  char chunk[64 * 1024];
  while (!stop.load(std::memory_order_relaxed)) {
    if (!PollReadable(fd)) continue;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!consume(chunk, static_cast<size_t>(n))) break;
  }
  ::close(fd);
}

void Server::Impl::HttpConnection(int fd) {
  std::string buffer;
  ReadLoop(fd, [&](const char* data, size_t size) {
    buffer.append(data, size);
    while (true) {
      HttpRequest request;
      size_t consumed = 0;
      const HttpParseResult parsed =
          ParseHttpRequest(buffer, &request, &consumed);
      if (parsed == HttpParseResult::kNeedMore) return true;
      const bool malformed = parsed == HttpParseResult::kMalformed;
      buffer.erase(0, consumed);
      const std::string resp = malformed
                                   ? RenderHttpError(400, "malformed request")
                                   : service->Handle(request);
      if (!WriteAll(fd, reinterpret_cast<const uint8_t*>(resp.data()),
                    resp.size())
               .ok() ||
          malformed || request.Header("connection") == "close") {
        return false;
      }
    }
  });
}

void Server::Impl::IngestConnection(int fd) {
  std::vector<uint8_t> buffer;
  std::vector<uint8_t> responses;
  IngestRequest request;  // reused: its values vector keeps its capacity
  ReadLoop(fd, [&](const char* data, size_t size) {
    buffer.insert(buffer.end(), data, data + size);
    // Decode every complete frame in the buffer, answer each, and send the
    // acks as one write (pipelined clients get batched responses).
    size_t offset = 0;
    responses.clear();
    bool open = true;
    while (true) {
      size_t consumed = 0;
      const FrameParseResult parsed = DecodeIngestFrame(
          std::span<const uint8_t>(buffer).subspan(offset), &request,
          &consumed);
      if (parsed == FrameParseResult::kNeedMore) break;
      if (parsed == FrameParseResult::kMalformed) {
        IngestResponse reject;
        reject.type = FrameType::kReject;
        reject.reason = RejectReason::kMalformed;
        EncodeResponseFrame(reject, &responses);
        open = false;
        break;
      }
      offset += consumed;
      EncodeResponseFrame(service->HandleIngest(request), &responses);
    }
    buffer.erase(buffer.begin(),
                 buffer.begin() + static_cast<ptrdiff_t>(offset));
    return (responses.empty() ||
            WriteAll(fd, responses.data(), responses.size()).ok()) &&
           open;
  });
}

void Server::Impl::CheckpointTimerLoop() {
  const auto interval = std::chrono::duration<double>(
      options.checkpoint_interval_seconds);
  auto next = std::chrono::steady_clock::now() + interval;
  while (!stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMillis));
    if (std::chrono::steady_clock::now() < next) continue;
    next = std::chrono::steady_clock::now() + interval;
    // Periodic persistence; failures are recorded, not fatal (the next
    // tick retries, and the previous complete checkpoint is still on disk).
    const Status status = service->PeriodicCheckpoint();
    if (!status.ok()) {
      telemetry::Registry::Global()
          .GetCounter("service.checkpoint_errors")
          ->Add(1);
    }
  }
}

void Server::Impl::JoinConnections() {
  std::list<Conn> drained;
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    drained.swap(conns);
  }
  for (Conn& conn : drained) conn.thread.join();
}

}  // namespace egi::service
