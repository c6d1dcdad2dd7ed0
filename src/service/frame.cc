#include "service/frame.h"

#include <bit>
#include <string>

#include "egi/telemetry.h"

namespace egi::service {

namespace {

// Fixed-width little-endian primitives, shift-based like
// serialize::ByteWriter so they are endian-agnostic. The snapshot format's
// writer carries varint/envelope machinery the wire protocol doesn't want;
// frames are fixed-layout so these four helpers are the whole story.

template <typename T>
void PutLE(T value, std::vector<uint8_t>* out) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

template <typename T>
T GetLE(const uint8_t* p) {
  T value = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(p[i]) << (8 * i);
  }
  return value;
}

void PutDoubleLE(double value, std::vector<uint8_t>* out) {
  PutLE(std::bit_cast<uint64_t>(value), out);
}

double GetDoubleLE(const uint8_t* p) {
  return std::bit_cast<double>(GetLE<uint64_t>(p));
}

// Payload sizes (bytes after the u32 length prefix).
constexpr size_t kIngestHeaderBytes = 1 + 8 + 4;       // type, stream, count
constexpr size_t kAckPayloadBytes = 1 + 8 + 8 + 8 + 8 + 1;
constexpr size_t kRejectPayloadBytes = 1 + 8 + 1;
constexpr size_t kHelloPayloadBytes = 1 + 8 + 1;       // type, reserved, ver
constexpr size_t kHelloAckPayloadBytes = 1 + 1;        // type, version

// Reads the length prefix and validates it against the frame cap. Returns
// false (→ kMalformed) on violation; sets `*payload` to the payload size
// when the full frame is buffered, or leaves it at SIZE_MAX when more bytes
// are needed.
FrameParseResult FrameExtent(std::span<const uint8_t> buffer, size_t* payload) {
  if (buffer.size() < 4) return FrameParseResult::kNeedMore;
  const uint32_t length = GetLE<uint32_t>(buffer.data());
  if (length > kMaxFrameBytes) return FrameParseResult::kMalformed;
  if (buffer.size() < 4 + static_cast<size_t>(length)) {
    return FrameParseResult::kNeedMore;
  }
  *payload = length;
  return FrameParseResult::kComplete;
}

}  // namespace

std::string_view RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kUnknownStream: return "unknown_stream";
    case RejectReason::kRateLimited: return "rate_limited";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kMalformed: return "malformed";
    case RejectReason::kDraining: return "draining";
    case RejectReason::kUnavailable: return "unavailable";
    case RejectReason::kVersionMismatch: return "version_mismatch";
  }
  return "unknown";
}

IngestCounters::IngestCounters(std::string_view prefix) {
  auto& registry = telemetry::Registry::Global();
  const std::string base(prefix);
  frames = registry.GetCounter(base + ".ingest_frames");
  rejected = registry.GetCounter(base + ".frames_rejected");
  for (size_t i = 0; i < by_reason.size(); ++i) {
    by_reason[i] = registry.GetCounter(
        base + ".reject." +
        std::string(RejectReasonName(static_cast<RejectReason>(i))));
  }
}

IngestResponse IngestCounters::Reject(uint64_t stream,
                                      RejectReason reason) const {
  const auto index = static_cast<size_t>(reason);
  rejected->Add(1);
  by_reason[index < by_reason.size() ? index : 0]->Add(1);
  IngestResponse resp;
  resp.type = FrameType::kReject;
  resp.stream = stream;
  resp.reason = reason;
  return resp;
}

bool AdmitFrame(const IngestRequest& request, bool draining,
                const IngestCounters& counters, IngestResponse* resp) {
  counters.frames->Add(1);
  *resp = IngestResponse();
  resp->stream = request.stream;
  if (request.hello && request.protocol_version == kProtocolVersion) {
    resp->type = FrameType::kHelloAck;
    resp->protocol_version = kProtocolVersion;
  } else if (request.hello || draining) {
    *resp = counters.Reject(request.stream,
                            request.hello ? RejectReason::kVersionMismatch
                                          : RejectReason::kDraining);
  } else {
    return false;
  }
  return true;
}

void EncodeIngestFrame(uint64_t stream, std::span<const double> values,
                       std::vector<uint8_t>* out) {
  const size_t payload = kIngestHeaderBytes + 8 * values.size();
  out->reserve(out->size() + 4 + payload);
  PutLE<uint32_t>(static_cast<uint32_t>(payload), out);
  out->push_back(static_cast<uint8_t>(FrameType::kIngest));
  PutLE<uint64_t>(stream, out);
  PutLE<uint32_t>(static_cast<uint32_t>(values.size()), out);
  for (const double v : values) PutDoubleLE(v, out);
}

void EncodeHelloFrame(uint8_t version, std::vector<uint8_t>* out) {
  PutLE<uint32_t>(kHelloPayloadBytes, out);
  out->push_back(static_cast<uint8_t>(FrameType::kHello));
  PutLE<uint64_t>(0, out);  // reserved
  out->push_back(version);
}

void EncodeResponseFrame(const IngestResponse& response,
                         std::vector<uint8_t>* out) {
  if (response.type == FrameType::kHelloAck) {
    PutLE<uint32_t>(kHelloAckPayloadBytes, out);
    out->push_back(static_cast<uint8_t>(FrameType::kHelloAck));
    out->push_back(response.protocol_version);
    return;
  }
  if (response.type == FrameType::kAck) {
    PutLE<uint32_t>(kAckPayloadBytes, out);
    out->push_back(static_cast<uint8_t>(FrameType::kAck));
    PutLE<uint64_t>(response.stream, out);
    PutLE<uint64_t>(response.accepted_total, out);
    PutLE<uint64_t>(response.scored_total, out);
    PutDoubleLE(response.last_score, out);
    out->push_back(response.last_scored ? 1 : 0);
  } else {
    PutLE<uint32_t>(kRejectPayloadBytes, out);
    out->push_back(static_cast<uint8_t>(FrameType::kReject));
    PutLE<uint64_t>(response.stream, out);
    out->push_back(static_cast<uint8_t>(response.reason));
  }
}

FrameParseResult DecodeIngestFrame(std::span<const uint8_t> buffer,
                                   IngestRequest* out, size_t* consumed) {
  size_t payload = 0;
  const FrameParseResult extent = FrameExtent(buffer, &payload);
  if (extent != FrameParseResult::kComplete) return extent;
  if (payload < 1) return FrameParseResult::kMalformed;

  // Hello first: its payload (10 bytes) is shorter than an ingest header.
  const uint8_t* p = buffer.data() + 4;
  if (p[0] == static_cast<uint8_t>(FrameType::kHello)) {
    if (payload != kHelloPayloadBytes) return FrameParseResult::kMalformed;
    out->stream = 0;
    out->values.clear();
    out->hello = true;
    out->protocol_version = p[9];
    *consumed = 4 + payload;
    return FrameParseResult::kComplete;
  }
  if (p[0] != static_cast<uint8_t>(FrameType::kIngest) ||
      payload < kIngestHeaderBytes) {
    return FrameParseResult::kMalformed;
  }
  out->hello = false;
  out->protocol_version = 0;
  out->stream = GetLE<uint64_t>(p + 1);
  const uint32_t count = GetLE<uint32_t>(p + 9);
  if (payload != kIngestHeaderBytes + 8 * static_cast<size_t>(count)) {
    return FrameParseResult::kMalformed;
  }
  // Frame payloads land at arbitrary byte offsets in the connection buffer,
  // so the doubles are memcpy-decoded rather than aliased in place.
  out->values.clear();
  out->values.reserve(count);
  const uint8_t* data = p + kIngestHeaderBytes;
  for (uint32_t i = 0; i < count; ++i) {
    out->values.push_back(GetDoubleLE(data + 8 * static_cast<size_t>(i)));
  }
  *consumed = 4 + payload;
  return FrameParseResult::kComplete;
}

FrameParseResult DecodeResponseFrame(std::span<const uint8_t> buffer,
                                     IngestResponse* out, size_t* consumed) {
  size_t payload = 0;
  const FrameParseResult extent = FrameExtent(buffer, &payload);
  if (extent != FrameParseResult::kComplete) return extent;
  if (payload < 1) return FrameParseResult::kMalformed;

  const uint8_t* p = buffer.data() + 4;
  IngestResponse resp;
  if (p[0] == static_cast<uint8_t>(FrameType::kAck)) {
    if (payload != kAckPayloadBytes) return FrameParseResult::kMalformed;
    resp.type = FrameType::kAck;
    resp.stream = GetLE<uint64_t>(p + 1);
    resp.accepted_total = GetLE<uint64_t>(p + 9);
    resp.scored_total = GetLE<uint64_t>(p + 17);
    resp.last_score = GetDoubleLE(p + 25);
    resp.last_scored = p[33] != 0;
  } else if (p[0] == static_cast<uint8_t>(FrameType::kReject)) {
    if (payload != kRejectPayloadBytes) return FrameParseResult::kMalformed;
    resp.type = FrameType::kReject;
    resp.stream = GetLE<uint64_t>(p + 1);
    resp.reason = static_cast<RejectReason>(p[9]);
  } else if (p[0] == static_cast<uint8_t>(FrameType::kHelloAck)) {
    if (payload != kHelloAckPayloadBytes) return FrameParseResult::kMalformed;
    resp.type = FrameType::kHelloAck;
    resp.protocol_version = p[1];
  } else {
    return FrameParseResult::kMalformed;
  }
  *out = resp;
  *consumed = 4 + payload;
  return FrameParseResult::kComplete;
}

}  // namespace egi::service
