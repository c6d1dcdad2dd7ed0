#pragma once

// The egid point-ingest wire protocol (src/service): a compact
// length-prefixed binary framing over TCP, built for the hot path the JSON
// control plane is not. One frame carries a run of consecutive points for
// one stream; the server answers every request frame with exactly one ack
// or reject frame, so a client can pipeline frames and count responses.
//
// All integers little-endian, doubles IEEE-754 bit patterns (the same
// conventions as the snapshot format, src/serialize/bytes.h):
//
//   request:  u32 length | u8 type=kIngest | u64 stream_id |
//             u32 count  | f64 value[count]
//   hello:    u32 length | u8 type=kHello  | u64 reserved=0 | u8 version
//   ack:      u32 length | u8 type=kAck    | u64 stream_id |
//             u64 accepted_total | u64 scored_total |
//             f64 last_score | u8 last_scored
//   helloack: u32 length | u8 type=kHelloAck | u8 version
//   reject:   u32 length | u8 type=kReject | u64 stream_id | u8 reason
//
// `length` counts the bytes *after* the length field. `accepted_total` is
// the number of points the server has accepted into the stream's ingest
// queue since stream creation; `scored_total`/`last_score` lag it by the
// queue depth (scoring is asynchronous — the ack means "durably queued",
// backpressure means the queue never grows unboundedly). Reject frames are
// the binary protocol's 429: the client must back off and retry.
//
// The hello exchange is the version handshake: a client (loadgen, or the
// egid-router forwarding to a backend shard) sends one hello as its first
// frame; a server whose protocol differs answers with a typed
// kVersionMismatch reject instead of silently misparsing later frames.
// Servers still accept connections that skip the hello (older clients),
// because every frame layout above is self-describing.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace egi::telemetry {
class Counter;
}  // namespace egi::telemetry

namespace egi::service {

enum class FrameType : uint8_t {
  kIngest = 1,
  kHello = 2,
  kAck = 0x81,
  kReject = 0x82,
  kHelloAck = 0x83,
};

/// Wire protocol revision carried by the hello handshake. Bump on any
/// layout change to an existing frame; additive new frame types do not
/// bump it (unknown types are already a deterministic kMalformed).
inline constexpr uint8_t kProtocolVersion = 1;

enum class RejectReason : uint8_t {
  kUnknownStream = 1,  ///< no such stream id (or deleted)
  kRateLimited = 2,    ///< tenant exceeded its points/sec quota
  kQueueFull = 3,      ///< bounded ingest queue cannot take the frame
  kMalformed = 4,      ///< frame failed to decode
  kDraining = 5,       ///< server is shutting down
  kUnavailable = 6,    ///< the owning backend shard is down or unreachable
                       ///< (egid-router); retry after the shard recovers
  kVersionMismatch = 7,  ///< hello carried an unsupported protocol version
};

/// Human-readable reason label (for logs and error messages).
std::string_view RejectReasonName(RejectReason reason);

/// Frames larger than this are a protocol violation (64k points ≈ 512 KiB
/// is far beyond any sane batching; real clients send a few hundred points
/// per frame).
inline constexpr size_t kMaxFrameBytes = 1 << 20;

/// Decoded request frame. `values` is filled by the decoder (capacity is
/// reused when the caller keeps one IngestRequest per connection, so the
/// steady-state hot path does not allocate).
struct IngestRequest {
  uint64_t stream = 0;
  std::vector<double> values;
  // kHello frames decode into the same struct (one decode loop per
  // connection): `hello` is set, `values` stays empty.
  bool hello = false;
  uint8_t protocol_version = 0;
};

/// Decoded (or to-be-encoded) response frame.
struct IngestResponse {
  FrameType type = FrameType::kAck;
  uint64_t stream = 0;
  // kAck:
  uint64_t accepted_total = 0;
  uint64_t scored_total = 0;
  double last_score = 0.0;
  bool last_scored = false;
  // kReject:
  RejectReason reason = RejectReason::kMalformed;
  // kHelloAck:
  uint8_t protocol_version = 0;
};

/// One daemon's ingest counters, resolved once so no frame pays a registry
/// lookup: `<prefix>.ingest_frames`, `.frames_rejected`, `.reject.<reason>`.
struct IngestCounters {
  explicit IngestCounters(std::string_view prefix);
  /// Counts a reject of `reason` (an unknown reason byte as "unknown") and
  /// returns it addressed to `stream`.
  IngestResponse Reject(uint64_t stream, RejectReason reason) const;

  telemetry::Counter* frames;
  telemetry::Counter* rejected;
  std::array<telemetry::Counter*, 8> by_reason;  // by reason byte; 0 unknown
};

/// The ingest prologue of egid and the egid-router: counts the frame,
/// answers a hello (helloack, or a kVersionMismatch reject — before the
/// draining check, so a draining server still says why frames will bounce)
/// and rejects any other frame while `draining`. Returns true when `*resp`
/// is final; otherwise `*resp` is an ack for the caller to complete.
bool AdmitFrame(const IngestRequest& request, bool draining,
                const IngestCounters& counters, IngestResponse* resp);

/// Appends one encoded ingest request frame to `out`.
void EncodeIngestFrame(uint64_t stream, std::span<const double> values,
                       std::vector<uint8_t>* out);

/// Appends one encoded hello frame carrying `version` to `out`.
void EncodeHelloFrame(uint8_t version, std::vector<uint8_t>* out);

/// Appends one encoded response frame to `out`.
void EncodeResponseFrame(const IngestResponse& response,
                         std::vector<uint8_t>* out);

enum class FrameParseResult {
  kNeedMore,   ///< buffer holds a partial frame
  kComplete,   ///< one frame decoded; `consumed` bytes can be discarded
  kMalformed,  ///< framing violation — close the connection
};

/// Tries to decode one request frame from the front of `buffer`. On
/// kComplete, `out->values` holds a copy of the points (frame bytes may be
/// unaligned, so the payload is memcpy-decoded rather than aliased).
FrameParseResult DecodeIngestFrame(std::span<const uint8_t> buffer,
                                   IngestRequest* out, size_t* consumed);

/// Tries to decode one response frame from the front of `buffer` (client
/// side: the router's shard channel, which loadgen drives too).
FrameParseResult DecodeResponseFrame(std::span<const uint8_t> buffer,
                                     IngestResponse* out, size_t* consumed);

}  // namespace egi::service
