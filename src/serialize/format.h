#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "egi/result.h"
#include "egi/status.h"

namespace egi::serialize {

/// First bytes of every snapshot blob: "EGIS".
inline constexpr uint8_t kSnapshotMagic[4] = {'E', 'G', 'I', 'S'};

/// Current snapshot format version. Policy: any change to the byte layout of
/// an existing section bumps this (there is no in-place migration — decoders
/// reject versions above their own with Status, and callers re-fit or
/// re-snapshot). Purely additive trailing sections also bump it: the decoder
/// demands exact payload consumption, so older readers must never see newer
/// bytes. Writers always emit the current version; readers accept
/// [kMinSnapshotVersion, kSnapshotVersion] and the per-kind decoders skip
/// the sections an older revision did not write.
///
/// History: v1 = the original detector and hub-checkpoint layout; v2 adds
/// the adaptive-cadence options (prune_to, refit_policy, refit_interval_max,
/// drift_tolerance) and drift-gate runtime state. tests/stream_snapshot_test
/// pins both: the v1 golden fixture must keep decoding, the v2 golden pins
/// the current byte layout.
inline constexpr uint32_t kSnapshotVersion = 2;
inline constexpr uint32_t kMinSnapshotVersion = 1;

/// What a blob contains; part of the envelope so a detector snapshot can
/// never be restored as a hub checkpoint or vice versa.
enum class BlobKind : uint8_t {
  kStreamDetector = 1,  ///< one StreamDetector (StreamDetector::Serialize)
  kStreamHub = 2,       ///< all streams of a StreamHub (StreamHub::Checkpoint)
  kServiceCheckpoint = 3,  ///< egid daemon checkpoint: stream manifest
                           ///< (tenants, names, tombstones) + the enclosed
                           ///< StreamHub blob (src/service/hub_service.cc)
};

/// CRC-32 (IEEE 802.3, reflected) of `data`. Snapshot payloads carry their
/// checksum in the envelope, so any bit flip anywhere in the payload is a
/// deterministic Status error rather than a silently different detector.
uint32_t Crc32(std::span<const uint8_t> data);

/// Wraps a payload in the versioned envelope:
///   magic(4) | version(u32 LE) | kind(u8) | payload_len(u64 LE) |
///   crc32(payload)(u32 LE) | payload
std::vector<uint8_t> WrapPayload(BlobKind kind,
                                 std::span<const uint8_t> payload);

/// Validates the envelope of `blob` (magic, version, kind, exact length,
/// checksum) and points `payload` at the enclosed bytes. Never reads out of
/// bounds; every malformed input yields a Status error. `version` (optional)
/// receives the accepted envelope revision so decoders can skip sections an
/// older writer did not emit.
Status UnwrapPayload(std::span<const uint8_t> blob, BlobKind expected_kind,
                     std::span<const uint8_t>* payload,
                     uint32_t* version = nullptr);

/// Frames per-stream detector snapshots into one kStreamHub blob. The
/// payload layout is `count | (len | detector blob)*` (varints); section i
/// is stream i's complete kStreamDetector envelope, restorable on its own
/// (the unit the egid-router migrates between shards).
std::vector<uint8_t> JoinEngineSections(
    std::span<const std::vector<uint8_t>> sections);

/// Splits a JoinEngineSections() blob back into its sections without
/// decoding any detector; the spans point into `hub_blob`. Every malformed
/// input — bad envelope, truncated section, bytes after the last section —
/// is a Status error.
Result<std::vector<std::span<const uint8_t>>> SplitEngineSections(
    std::span<const uint8_t> hub_blob);

}  // namespace egi::serialize
