#include "fuzz/harness_service.hpp"

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "service/daemon.hpp"
#include "service/service.hpp"
#include "trace/model.hpp"
#include "util/failpoints.hpp"

namespace ftio::fuzz {

namespace {

/// Little-endian byte reader over the fuzz input; reads past the end
/// yield zeros, so every input length decodes to a complete program.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return pos_ < size_ ? data_[pos_++] : 0; }
  std::uint16_t u16() {
    return static_cast<std::uint16_t>(u8() | (u8() << 8));
  }
  std::string bytes(std::size_t n) {
    std::string out;
    out.reserve(n);
    while (out.size() < n && pos_ < size_) {
      out.push_back(static_cast<char>(data_[pos_++]));
    }
    return out;
  }
  bool done() const { return pos_ >= size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

ftio::service::ServiceOptions decode_options(ByteReader& reader) {
  ftio::service::ServiceOptions options;
  options.background = false;  // deterministic foreground pumping
  options.shards = 1u + reader.u8() % 3;
  options.mailbox_capacity = 2u + reader.u8() % 14;
  options.coalesce_depth = reader.u8() % options.mailbox_capacity;
  options.max_item_requests = 8u + reader.u8() % 120;
  options.drain_batch = 1u + reader.u8() % 8;
  options.max_tenants_per_shard = 1u + reader.u8() % 8;
  options.materialize_after_requests = 1u + reader.u8() % 4;
  options.ladder.recovery_cycles = 1u + reader.u8() % 4;
  options.ladder.triage_stride = 1u + reader.u8() % 4;
  // Reserved bytes (one, plus one more when it is odd): still consumed
  // so the committed corpus seeds decode to the same programs.
  if ((reader.u8() & 1) != 0) static_cast<void>(reader.u8());
  // Tiny sessions: triage warmup 1 so the cheap tier engages quickly.
  options.session.triage.warmup_analyses = 1;
  return options;
}

const char* const kFailpointNames[] = {
    "service.alloc", "service.session_throw", "service.slow_shard",
    "service.shard_crash", "service.queue_overflow", "trace.parse_garbage"};

/// Arms a subset of the service failpoints from input bytes. No-op
/// payload-wise when the call sites are compiled out — arming is still
/// exercised for registry coverage.
void arm_failpoints(ByteReader& reader) {
  const std::uint8_t mask = reader.u8();
  const std::uint16_t seed = reader.u16();
  const double probability = (1.0 + reader.u8() % 50) / 100.0;
  for (std::size_t i = 0; i < std::size(kFailpointNames); ++i) {
    if ((mask & (1u << i)) != 0) {
      ftio::util::failpoints::arm(kFailpointNames[i], probability, seed + i);
    }
  }
}

std::vector<ftio::trace::IoRequest> decode_requests(ByteReader& reader,
                                                    double& clock) {
  std::vector<ftio::trace::IoRequest> requests;
  const std::size_t count = 1u + reader.u8() % 24;
  for (std::size_t i = 0; i < count; ++i) {
    ftio::trace::IoRequest r;
    clock += static_cast<double>(reader.u8()) / 100.0;
    r.start = clock;
    r.end = clock + (1.0 + static_cast<double>(reader.u8() % 127)) / 100.0;
    r.bytes = 1u + reader.u16();
    r.rank = reader.u8() % 4;
    r.kind = (reader.u8() & 1) != 0 ? ftio::trace::IoKind::kRead
                                    : ftio::trace::IoKind::kWrite;
    requests.push_back(r);
  }
  return requests;
}

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_service: %s\n", what);
  std::abort();
}

}  // namespace

int ftio_fuzz_service(const std::uint8_t* data, std::size_t size) {
  ftio::util::failpoints::disarm_all();
  ByteReader reader(data, size);
  const ftio::service::ServiceOptions options = decode_options(reader);
  arm_failpoints(reader);
  double clock = 0.0;
  {
    ftio::service::IngestDaemon daemon(options);
    for (std::size_t op = 0; op < 64 && !reader.done(); ++op) {
      const std::string tenant = "t" + std::to_string(reader.u8() % 6);
      switch (reader.u8() % 5) {
        case 0:
        case 1:
          static_cast<void>(
              daemon.submit(tenant, decode_requests(reader, clock)));
          break;
        case 2: {
          // Raw fuzz bytes as a framed JSONL payload: the recoverable
          // parse must contain whatever this is to the bad records.
          static_cast<void>(
              daemon.submit_jsonl(tenant, reader.bytes(reader.u8())));
          break;
        }
        case 3:
          static_cast<void>(daemon.pump());
          break;
        default: {
          const std::string blob = reader.bytes(reader.u8());
          static_cast<void>(daemon.submit_msgpack(
              tenant,
              std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(blob.data()),
                  blob.size())));
          break;
        }
      }
      static_cast<void>(daemon.last_prediction(tenant));
    }
    daemon.stop();

    const ftio::service::ShardStats total = daemon.stats().total();
    for (const ftio::service::ShardStats& shard : daemon.stats().shards) {
      if (shard.queue_max_depth > shard.queue_capacity) {
        fail("mailbox exceeded its capacity bound");
      }
    }
    if (total.processed_items > total.accepted) {
      fail("processed more items than were accepted");
    }
    if (ftio::util::failpoints::fire_count("service.shard_crash") == 0 &&
        total.processed_items != total.accepted) {
      // Without crash injection, stop() drains: conservation is exact.
      fail("accepted items lost without a crash failpoint");
    }
    std::size_t fired = 0;
    for (const char* name : kFailpointNames) {
      fired += ftio::util::failpoints::fire_count(name);
    }
    if (fired == 0 && total.poisoned_sessions == 0 &&
        total.session_build_failures == 0 && total.shard_restarts == 0 &&
        total.processed_items !=
            total.deferred_flushes + total.dropped_ingest_only +
                total.stride_skips + total.coalesced_analyses +
                total.analyses + total.empty_window_analyses) {
      // The ladder is the only shedder: without faults every processed
      // flush ends in exactly one outcome.
      fail("a processed flush ended in no outcome or in several");
    }
  }
  ftio::util::failpoints::disarm_all();
  return 0;
}

}  // namespace ftio::fuzz
