#include "durability/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "durability/request_codec.hpp"
#include "util/binio.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"
#include "util/file.hpp"

namespace ftio::durability {

namespace {

constexpr char kMagic[8] = {'F', 'T', 'I', 'O', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kVersion = 1;
/// magic + version + floor + count, before the header CRC.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

using ftio::util::BinWriter;

/// Payload bytes of one tenant frame (the frame header excluded).
std::size_t tenant_payload_bytes(const TenantFrameView& tenant) {
  return 8 + tenant.name.size() + 1 + 8 +
         detail::request_array_bytes(tenant.pending.size()) + 1 + 8 +
         tenant.session_state.size();
}

/// Bytes of the whole checkpoint file.
std::size_t checkpoint_bytes(std::span<const TenantFrameView> tenants) {
  std::size_t total = kHeaderBytes + sizeof(std::uint32_t);
  for (const auto& tenant : tenants) {
    total += BinWriter::kFrameHeaderBytes + tenant_payload_bytes(tenant);
  }
  return total;
}

void encode_header(BinWriter& out, std::uint64_t floor_seq,
                   std::size_t tenant_count) {
  const std::size_t start = out.size();
  for (char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(kVersion);
  out.u64(floor_seq);
  out.u64(tenant_count);
  out.u32(ftio::util::crc32c(out.bytes().data() + start, kHeaderBytes));
}

void encode_tenant(BinWriter& out, const TenantFrameView& tenant) {
  const std::size_t frame = out.begin_frame();
  out.str(tenant.name);
  out.boolean(tenant.poisoned);
  out.u64(tenant.last_applied_seq);
  detail::write_requests(out, tenant.pending);
  out.boolean(tenant.has_session);
  out.blob(tenant.session_state);
  out.end_frame(frame);
}

TenantSnapshot decode_tenant(std::span<const std::uint8_t> payload) {
  ftio::util::BinReader in(payload);
  TenantSnapshot tenant;
  tenant.name = in.str();
  tenant.poisoned = in.boolean();
  tenant.last_applied_seq = in.u64();
  tenant.pending = detail::read_requests(in);
  tenant.has_session = in.boolean();
  tenant.session_state = in.blob();
  if (!in.done()) {
    throw ftio::util::ParseError("checkpoint: trailing bytes in tenant");
  }
  return tenant;
}

std::string checkpoint_name(std::uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "checkpoint-%020llu.ckpt",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool parse_checkpoint_name(const std::string& name, std::uint64_t& seq) {
  if (name.size() != 36 || name.rfind("checkpoint-", 0) != 0 ||
      name.compare(31, 5, ".ckpt") != 0) {
    return false;
  }
  seq = 0;
  for (std::size_t i = 11; i < 31; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

/// `checkpoint-<seq>.ckpt` files under `directory`, oldest first.
std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_checkpoints(
    const std::filesystem::path& directory) {
  std::error_code ec;
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> checkpoints;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    std::uint64_t seq = 0;
    if (parse_checkpoint_name(entry.path().filename().string(), seq)) {
      checkpoints.emplace_back(seq, entry.path());
    }
  }
  std::sort(checkpoints.begin(), checkpoints.end());
  return checkpoints;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(
    std::uint64_t floor_seq, std::span<const TenantFrameView> tenants) {
  BinWriter out;
  out.reserve(checkpoint_bytes(tenants));
  encode_header(out, floor_seq, tenants.size());
  for (const auto& tenant : tenants) encode_tenant(out, tenant);
  return out.take();
}

std::vector<std::uint8_t> encode_checkpoint(const CheckpointData& data) {
  std::vector<TenantFrameView> views;
  views.reserve(data.tenants.size());
  for (const auto& t : data.tenants) {
    views.push_back({t.name, t.poisoned, t.last_applied_seq, t.pending,
                     t.has_session, t.session_state});
  }
  return encode_checkpoint(data.floor_seq, views);
}

CheckpointData parse_checkpoint(std::span<const std::uint8_t> bytes,
                                RecoveryStats& stats) {
  if (bytes.size() < kHeaderBytes + sizeof(std::uint32_t)) {
    throw ftio::util::ParseError("checkpoint: truncated header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw ftio::util::ParseError("checkpoint: bad magic");
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + kHeaderBytes, sizeof(stored_crc));
  if (ftio::util::crc32c(bytes.data(), kHeaderBytes) != stored_crc) {
    throw ftio::util::ParseError("checkpoint: header CRC mismatch");
  }
  ftio::util::BinReader header(bytes.subspan(sizeof(kMagic)));
  const std::uint32_t version = header.u32();
  if (version != kVersion) {
    throw ftio::util::ParseError("checkpoint: unsupported version");
  }
  CheckpointData data;
  data.floor_seq = header.u64();
  const std::uint64_t tenant_count = header.u64();

  std::size_t pos = kHeaderBytes + sizeof(std::uint32_t);
  std::size_t skipped = 0;
  while (pos + 2 * sizeof(std::uint32_t) <= bytes.size()) {
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    std::memcpy(&crc, bytes.data() + pos + sizeof(len), sizeof(crc));
    pos += 2 * sizeof(std::uint32_t);
    if (len > bytes.size() - pos) {
      // A corrupt length prefix loses frame alignment — everything from
      // here is untrustworthy (the atomic write rules out a torn tail,
      // so this is bit rot, not a crash artefact).
      ++skipped;
      break;
    }
    const auto payload = bytes.subspan(pos, len);
    pos += len;
    if (ftio::util::crc32c(payload.data(), payload.size()) != crc) {
      ++skipped;
      continue;
    }
    try {
      data.tenants.push_back(decode_tenant(payload));
    } catch (const ftio::util::ParseError&) {
      ++skipped;
    }
  }
  // The CRC-protected header promised tenant_count frames; whatever is
  // neither decoded nor already counted was swallowed by a lost-
  // alignment region. Count the damage, keep the verified survivors.
  if (tenant_count > data.tenants.size() + skipped) {
    skipped = static_cast<std::size_t>(tenant_count) - data.tenants.size();
  }
  stats.tenant_frames_skipped += skipped;
  return data;
}

void write_checkpoint_file(const std::filesystem::path& directory,
                           std::uint64_t seq, std::uint64_t floor_seq,
                           std::span<const TenantFrameView> tenants,
                           const DurabilityOptions& options) {
  std::filesystem::create_directories(directory);
  const std::filesystem::path path = directory / checkpoint_name(seq);
  // Simulated crash mid-write: the temp file stops after the first third
  // of the checkpoint (the final path is untouched — that is the point of
  // the atomic path).
  const bool torn = FTIO_FAILPOINT("durability.checkpoint_write");
  if (!torn && FTIO_FAILPOINT("durability.checkpoint_fsync")) {
    throw ftio::util::IoError("failpoint: durability.checkpoint_fsync");
  }
  if (!torn && FTIO_FAILPOINT("durability.checkpoint_rename")) {
    throw ftio::util::IoError("failpoint: durability.checkpoint_rename");
  }
  std::size_t budget =
      torn ? std::max<std::size_t>(1, checkpoint_bytes(tenants) / 3)
           : std::numeric_limits<std::size_t>::max();
  ftio::util::write_file_atomic_streamed(path, [&](auto&& append) {
    BinWriter frame;
    const auto flush = [&] {
      const std::span<const std::uint8_t> bytes = frame.bytes();
      if (bytes.size() >= budget) {
        append(bytes.first(budget));
        throw ftio::util::IoError("failpoint: durability.checkpoint_write");
      }
      budget -= bytes.size();
      append(bytes);
      frame.clear();
    };
    encode_header(frame, floor_seq, tenants.size());
    flush();
    for (const auto& tenant : tenants) {
      encode_tenant(frame, tenant);
      flush();
    }
  });

  // Prune beyond the retention count, oldest first, and sweep what
  // earlier writes that died mid-file left behind. Best-effort: a
  // leftover file is only disk, never a correctness problem.
  std::error_code ec;
  auto checkpoints = list_checkpoints(directory);
  const std::size_t keep = std::max<std::size_t>(1, options.keep_checkpoints);
  for (std::size_t i = 0; i + keep < checkpoints.size(); ++i) {
    std::filesystem::remove(checkpoints[i].second, ec);
  }
  remove_checkpoint_temps(directory);
}

void remove_checkpoint_temps(const std::filesystem::path& directory) {
  std::error_code ec;
  std::vector<std::filesystem::path> temps;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory, ec)) {
    std::string name = entry.path().filename().string();
    std::uint64_t seq = 0;
    if (!name.ends_with(".tmp")) continue;
    name.resize(name.size() - 4);
    if (parse_checkpoint_name(name, seq)) temps.push_back(entry.path());
  }
  for (const auto& temp : temps) std::filesystem::remove(temp, ec);
}

std::optional<LoadedCheckpoint> load_newest_checkpoint(
    const std::filesystem::path& directory, const DurabilityOptions& options,
    RecoveryStats& stats) {
  (void)options;
  std::error_code ec;
  auto checkpoints = list_checkpoints(directory);
  std::reverse(checkpoints.begin(), checkpoints.end());  // newest first
  for (const auto& [seq, path] : checkpoints) {
    try {
      const std::vector<std::uint8_t> bytes =
          ftio::util::read_binary_file(path);
      LoadedCheckpoint loaded;
      loaded.data = parse_checkpoint(bytes, stats);
      loaded.seq = seq;
      return loaded;
    } catch (const ftio::util::ParseError&) {
      // Quarantine, never delete: the bytes are evidence. Recovery falls
      // back to the next-older checkpoint plus a longer journal replay.
      std::filesystem::path corrupt = path;
      corrupt += ".corrupt";
      std::filesystem::rename(path, corrupt, ec);
      ++stats.checkpoints_quarantined;
    }
  }
  return std::nullopt;
}

}  // namespace ftio::durability
