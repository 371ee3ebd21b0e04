#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/online.hpp"
#include "service/service.hpp"
#include "service/shard.hpp"
#include "trace/model.hpp"

namespace ftio::service {

/// The multi-tenant ingest daemon: the process-level front end of the
/// streaming engine. Tenants (applications, jobs, I/O streams) submit
/// flushed request chunks — as decoded requests or as framed JSONL /
/// MessagePack payloads — and the daemon routes each tenant to a fixed
/// shard by hash, where a single-threaded event loop owns the tenant's
/// StreamingSession and publishes its periodicity predictions.
///
/// Operationally the daemon promises:
///  - bounded memory: per-shard mailboxes are capacity-capped, sessions
///    materialise lazily, history/curve state is compacted, and idle
///    tenants are evicted — a million-tenant Zipf stream runs in O(shards
///    * max_tenants_per_shard) resident sessions (bench/load_ingest.cpp
///    is the proof harness);
///  - graceful degradation, never collapse: overload moves shards down
///    the DegradationLevel ladder (full -> triage-stride -> ingest-only)
///    and admission starts coalescing,
///    then rejecting — quality and latency are shed, tenants are not;
///  - fault isolation: malformed records cost themselves
///    (ParsePolicy::kSkipBad), a throwing session costs its tenant
///    (quarantine), a crashing shard cycle costs its resident state
///    (crash-only restart) — never the process.
///
/// Thread contract: submit/stats/last_prediction/poisoned are safe from
/// any thread. In background mode (default) each shard runs its own
/// worker; in foreground mode (ServiceOptions::background = false) no
/// threads exist and the owner drives the shards with pump() — the
/// deterministic single-threaded posture of the invariant tests and the
/// fuzz harness. stop() is idempotent; the destructor calls it.
class IngestDaemon {
 public:
  explicit IngestDaemon(ServiceOptions options);
  ~IngestDaemon();
  IngestDaemon(const IngestDaemon&) = delete;
  IngestDaemon& operator=(const IngestDaemon&) = delete;

  /// Submits one flushed chunk for `tenant` (admission verdict is
  /// returned, never thrown — rejection is an expected overload
  /// outcome). The span overload copies; the vector overload consumes
  /// on admission. Throws InvalidArgument for an empty tenant name.
  Admission submit(std::string_view tenant,
                   std::vector<ftio::trace::IoRequest>&& requests);
  Admission submit(std::string_view tenant,
                   std::span<const ftio::trace::IoRequest> requests);

  /// Framed submissions: the payload is decoded with
  /// ParsePolicy::kSkipBad, so malformed records are counted and
  /// dropped instead of failing the flush. A payload yielding zero
  /// applied records *and* at least one skipped one is rejected as
  /// malformed; a well-formed but requestless payload (e.g. only meta
  /// records) is admitted and queued like any flush. An empty tenant
  /// name throws InvalidArgument before the payload is decoded, so it
  /// counts nothing as malformed.
  Admission submit_jsonl(std::string_view tenant, std::string_view text);
  Admission submit_msgpack(std::string_view tenant,
                           std::span<const std::uint8_t> bytes);

  /// Foreground mode: one drain cycle on every shard, on the calling
  /// thread. Returns the number of work items processed.
  std::size_t pump();

  /// Blocks until every shard is quiesced (empty mailbox, no item mid-
  /// cycle, no checkpoint write in flight), so counters read afterwards
  /// include every checkpoint the drained work started. Callable only
  /// while no other thread keeps submitting — with concurrent producers
  /// "drained" is not a stable state. In foreground mode this pumps and
  /// then waits for the writers; in background mode it polls.
  void drain();

  /// Stops accepting work, drains what was already admitted, joins the
  /// workers, writes the final checkpoints (checkpoint_on_stop), and
  /// waits for every checkpoint write in flight. Idempotent.
  void stop();

  DaemonStats stats() const;
  std::optional<ftio::core::Prediction> last_prediction(
      std::string_view tenant) const;
  bool poisoned(std::string_view tenant) const;

  std::size_t shard_of(std::string_view tenant) const;
  std::size_t shard_count() const { return shards_.size(); }
  const ServiceOptions& options() const { return options_; }

 private:
  ServiceOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> malformed_records_{0};
  std::atomic<std::size_t> rejected_malformed_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace ftio::service
