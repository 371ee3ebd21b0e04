#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "trace/model.hpp"

namespace ftio::tmio {

/// How the tracer delivers its data (Sec. II-A).
enum class Mode {
  /// "The offline mode uses the LD_PRELOAD mechanism. Upon MPI_Finalize,
  /// the collected data is written to a single file."
  kOffline,
  /// "In the online mode, the application is compiled with our library and
  /// a single line is added to indicate when to flush the results."
  kOnline,
};

/// On-disk encoding of the trace stream ("JSON Lines or MessagePack").
enum class Format { kJsonl, kMsgpack };

struct TracerOptions {
  Mode mode = Mode::kOffline;
  Format format = Format::kJsonl;
  /// Output file; when empty the tracer accumulates in memory only (used
  /// by tests and by analysis pipelines that consume the snapshot).
  std::filesystem::path path;
  std::string app_name = "app";
};

/// Wall-clock cost the tracer imposed, per Fig. 16's overhead breakdown.
struct OverheadStats {
  std::uint64_t record_count = 0;   ///< requests recorded
  double record_seconds = 0.0;      ///< total wall time inside record()
  std::uint64_t flush_count = 0;    ///< flushes (online) / finalize writes
  double flush_seconds = 0.0;       ///< total wall time inside flush()
  double total_seconds() const { return record_seconds + flush_seconds; }
};

/// TMIO: the tracing library FTIO attaches to applications (Sec. II-A).
/// Records (start, end, bytes) per I/O request "at the rank level" into
/// per-rank buffers so concurrent ranks do not contend, and ships the data
/// offline (at finalize) or online (at explicit flush points).
///
/// Thread safety: record() may be called concurrently for *different*
/// ranks; calls for the same rank must be ordered (an MPI rank is a single
/// execution stream). flush()/finalize() may run concurrently with
/// record() calls.
class Tracer {
 public:
  Tracer(int ranks, TracerOptions options);

  /// Records one I/O request of `rank`. Timestamps are the application's
  /// (virtual or wall) clock; the tracer never reinterprets them.
  void record(int rank, ftio::trace::IoKind kind, double start, double end,
              std::uint64_t bytes);

  /// Online mode: appends all not-yet-flushed records (and a flush marker
  /// carrying `now`) to the sink. No-op records nothing in offline mode
  /// until finalize().
  void flush(double now);

  /// Offline mode: writes meta + all records; online mode: final flush.
  /// Idempotent.
  void finalize();

  /// Everything recorded so far as an analysable trace (thread-safe).
  ftio::trace::Trace snapshot() const;

  /// Requests recorded since the previous flush, as a trace chunk — the
  /// natural feed for engine::StreamingSession::ingest.
  ftio::trace::Trace unflushed_chunk() const;

  /// Serialised bytes written so far (file content mirror; also available
  /// when no path was configured).
  const std::vector<std::uint8_t>& sink() const { return sink_; }

  /// Self-instrumentation totals (Fig. 16).
  OverheadStats overhead() const;

  int ranks() const { return static_cast<int>(per_rank_.size()); }
  const TracerOptions& options() const { return options_; }

 private:
  struct PerRank {
    mutable std::mutex mutex;
    std::vector<ftio::trace::IoRequest> requests;
    std::uint64_t record_count = 0;
    double record_seconds = 0.0;
  };

  void append_meta_locked();
  void append_records_locked(const std::vector<ftio::trace::IoRequest>& batch);
  void write_sink_to_file();

  TracerOptions options_;
  std::vector<std::unique_ptr<PerRank>> per_rank_;

  mutable std::mutex sink_mutex_;
  std::vector<std::uint8_t> sink_;
  std::size_t flushed_per_rank_sum_ = 0;  // requests already in the sink
  std::vector<std::size_t> flushed_counts_;
  bool meta_written_ = false;
  bool finalized_ = false;
  std::uint64_t flush_count_ = 0;
  double flush_seconds_ = 0.0;
};

}  // namespace ftio::tmio
