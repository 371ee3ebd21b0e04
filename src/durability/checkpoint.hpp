#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "durability/durability.hpp"
#include "trace/model.hpp"

namespace ftio::durability {

/// Everything a shard checkpoints about one tenant. The session state
/// blob is opaque here (engine::StreamingSession::serialize_state
/// defines it); pending holds admitted-but-not-yet-materialized
/// requests of tenants below the service's materialize threshold.
struct TenantSnapshot {
  std::string name;
  bool poisoned = false;
  /// Highest journal sequence whose flush is reflected in this
  /// snapshot. Replay applies only records beyond it.
  std::uint64_t last_applied_seq = 0;
  std::vector<ftio::trace::IoRequest> pending;
  bool has_session = false;
  std::vector<std::uint8_t> session_state;
};

struct CheckpointData {
  /// Journal truncation floor: every record with seq <= floor is
  /// reflected in some tenant snapshot of this checkpoint (the minimum
  /// of the tenants' last_applied_seq at serialization time).
  std::uint64_t floor_seq = 0;
  std::vector<TenantSnapshot> tenants;
};

/// One tenant of a checkpoint being written, borrowed from its owner:
/// the encoder reads the pending requests and the session blob where
/// they live instead of copying them into a TenantSnapshot first. Fields
/// mean what the TenantSnapshot fields of the same name mean.
struct TenantFrameView {
  std::string_view name;
  bool poisoned = false;
  std::uint64_t last_applied_seq = 0;
  std::span<const ftio::trace::IoRequest> pending;
  bool has_session = false;
  std::span<const std::uint8_t> session_state;
};

/// Serializes a checkpoint: a CRC-protected header (magic, version,
/// floor, tenant count) followed by one CRC32C frame per tenant —
/// [u32 len][u32 crc][payload] — so a single flipped bit costs one
/// tenant, not the file. The output is sized once up front and every
/// frame is encoded in place. write_checkpoint_file streams the same
/// bytes to disk through the same header and frame encoders.
std::vector<std::uint8_t> encode_checkpoint(
    std::uint64_t floor_seq, std::span<const TenantFrameView> tenants);

/// The same bytes from an owned CheckpointData.
std::vector<std::uint8_t> encode_checkpoint(const CheckpointData& data);

/// Decodes a checkpoint byte image. Throws util::ParseError when the
/// header is invalid (the file is worthless); a corrupt tenant frame is
/// skipped and counted in stats.tenant_frames_skipped, keeping every
/// other tenant. Arbitrary bytes recover-or-reject without crashing or
/// over-allocating (fuzzed by fuzz_durability).
CheckpointData parse_checkpoint(std::span<const std::uint8_t> bytes,
                                RecoveryStats& stats);

/// Writes `checkpoint-<seq>.ckpt` under `directory`, byte-identical to
/// encode_checkpoint(floor_seq, tenants): the header and then each
/// tenant frame are encoded into one reused frame buffer and streamed
/// into the temp file of the atomic temp + fsync + rename +
/// directory-fsync path, so the whole checkpoint is never held in
/// memory. Then prunes all but the newest `options.keep_checkpoints`
/// files and every stale `checkpoint-*.ckpt.tmp`. Throws util::IoError
/// on failure (the previous checkpoint file stays valid). Failpoints:
/// durability.checkpoint_write (leaves the first third of the file as a
/// temp file, then throws) / checkpoint_fsync / checkpoint_rename.
void write_checkpoint_file(const std::filesystem::path& directory,
                           std::uint64_t seq, std::uint64_t floor_seq,
                           std::span<const TenantFrameView> tenants,
                           const DurabilityOptions& options);

/// Deletes every `checkpoint-<seq>.ckpt.tmp` under `directory`: the
/// remains of writes that died mid-file. Call only while no checkpoint
/// write into `directory` is in flight. Best-effort.
void remove_checkpoint_temps(const std::filesystem::path& directory);

struct LoadedCheckpoint {
  CheckpointData data;
  std::uint64_t seq = 0;  ///< from the file name
};

/// Loads the newest parseable checkpoint under `directory`. A file that
/// fails to parse is quarantined (renamed `<name>.corrupt`, counted)
/// and the next-older one is tried; returns nullopt when none survive.
std::optional<LoadedCheckpoint> load_newest_checkpoint(
    const std::filesystem::path& directory, const DurabilityOptions& options,
    RecoveryStats& stats);

}  // namespace ftio::durability
