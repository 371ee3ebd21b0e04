#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/streaming.hpp"
#include "util/annotated.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"

// StreamingSession::serialize_state / restore_state — the engine half of
// the durability subsystem. The payload layout is versioned and purely
// little-endian binary (util::BinWriter/BinReader); doubles round-trip as
// raw bit patterns, which is what makes the restored session's
// predictions byte-identical rather than merely close. Framing (magic,
// CRC32C, quarantine) lives in src/durability/ — this file only defines
// what the state *is*.

namespace ftio::engine {

namespace {

/// Bump when the payload layout changes. Old payloads are rejected, not
/// migrated: a checkpoint is a cache of recoverable state, and the WAL +
/// source streams can always rebuild a session from scratch.
/// Version 2 stores only what the session cannot re-derive: the curve is
/// re-swept from the retained events. No sample state is saved because
/// none is kept: every analysis discretises its window cold.
constexpr std::uint16_t kStateVersion = 2;

/// Minimum encoded bytes of one Prediction, for allocation-bounding
/// count reads.
constexpr std::size_t kPredictionBytes = 6 * sizeof(double) + 8 + 2;

void write_prediction(ftio::util::BinWriter& out,
                      const ftio::core::Prediction& p) {
  out.f64(p.at_time);
  out.f64_opt(p.frequency);
  out.f64(p.confidence);
  out.f64(p.refined_confidence);
  out.f64(p.window_start);
  out.f64(p.window_end);
  out.u64(p.sample_count);
  out.boolean(p.from_triage);
}

ftio::core::Prediction read_prediction(ftio::util::BinReader& in) {
  ftio::core::Prediction p;
  p.at_time = in.f64();
  p.frequency = in.f64_opt();
  p.confidence = in.f64();
  p.refined_confidence = in.f64();
  p.window_start = in.f64();
  p.window_end = in.f64();
  p.sample_count = static_cast<std::size_t>(in.u64());
  p.from_triage = in.boolean();
  return p;
}

void write_predictions(ftio::util::BinWriter& out,
                       const std::vector<ftio::core::Prediction>& history) {
  out.u64(history.size());
  for (const auto& p : history) write_prediction(out, p);
}

std::vector<ftio::core::Prediction> read_predictions(
    ftio::util::BinReader& in) {
  const std::size_t n = in.count(kPredictionBytes);
  std::vector<ftio::core::Prediction> out(n);
  for (auto& p : out) p = read_prediction(in);
  return out;
}

void write_window_state(ftio::util::BinWriter& out,
                        const ftio::core::OnlineWindowState& s) {
  out.f64(s.window_start);
  out.u64(s.consecutive_hits);
  out.f64(s.last_period);
}

ftio::core::OnlineWindowState read_window_state(ftio::util::BinReader& in) {
  ftio::core::OnlineWindowState s;
  s.window_start = in.f64();
  s.consecutive_hits = static_cast<std::size_t>(in.u64());
  s.last_period = in.f64();
  return s;
}

}  // namespace

std::vector<std::uint8_t> StreamingSession::serialize_state() const {
  const ftio::util::LockGuard lock(mutex_);
  ftio::util::BinWriter out;
  out.u16(kStateVersion);

  // Running trace aggregates.
  out.str(app_);
  out.i64(rank_count_);
  out.u64(request_count_);
  out.f64(begin_time_);
  out.f64(end_time_);
  out.f64(min_request_duration_);

  // The retained sweep events (the state compaction retains).
  bandwidth_.save_state(out);

  // Window-selection state and prediction history.
  write_window_state(out, state_);
  write_predictions(out, history_);

  // Triage tier.
  triage_bank_.save_state(out);
  out.f64(triage_reference_.period);
  out.f64(triage_reference_.frequency);
  out.f64(triage_reference_.confidence);
  out.u64(triage_reference_.observations);
  write_prediction(out, last_full_);
  out.u64(skipped_since_full_);
  out.u64(triage_stats_.full_analyses);
  out.u64(triage_stats_.skipped);
  out.u64(triage_stats_.drift_retriggers);
  out.u64(triage_stats_.confidence_retriggers);
  out.u64(triage_stats_.cadence_retriggers);

  // Compaction diagnostics.
  out.u64(compaction_stats_.compactions);
  out.u64(compaction_stats_.evicted_events);
  out.u64(compaction_stats_.evicted_segments);
  out.u64(compaction_stats_.clamped_windows);
  out.f64(compaction_stats_.retained_start);

  return out.take();
}

void StreamingSession::restore_state(std::span<const std::uint8_t> payload) {
  const ftio::util::LockGuard lock(mutex_);
  // Parse everything into temporaries first and commit only at the very
  // end: a corrupt payload must leave the session untouched, not half-
  // restored. Non-ParseError exceptions (e.g. the StepFunction invariant
  // checks) are parse failures of the payload, not caller errors.
  try {
    ftio::util::BinReader in(payload);
    const std::uint16_t version = in.u16();
    if (version != kStateVersion) {
      throw ftio::util::ParseError(
          "StreamingSession: unsupported state version");
    }

    std::string app = in.str();
    const std::int64_t rank_count = in.i64();
    const std::uint64_t request_count = in.u64();
    const double begin_time = in.f64();
    const double end_time = in.f64();
    const double min_request_duration = in.f64();

    trace::IncrementalBandwidth bandwidth = bandwidth_;
    bandwidth.load_state(in);

    ftio::core::OnlineWindowState state = read_window_state(in);
    std::vector<ftio::core::Prediction> history = read_predictions(in);

    ftio::core::TriageFilterBank bank = triage_bank_;
    bank.load_state(in);
    ftio::core::TriageEstimate reference;
    reference.period = in.f64();
    reference.frequency = in.f64();
    reference.confidence = in.f64();
    reference.observations = static_cast<std::size_t>(in.u64());
    ftio::core::Prediction last_full = read_prediction(in);
    const std::uint64_t skipped_since_full = in.u64();
    TriageStats triage_stats;
    triage_stats.full_analyses = static_cast<std::size_t>(in.u64());
    triage_stats.skipped = static_cast<std::size_t>(in.u64());
    triage_stats.drift_retriggers = static_cast<std::size_t>(in.u64());
    triage_stats.confidence_retriggers = static_cast<std::size_t>(in.u64());
    triage_stats.cadence_retriggers = static_cast<std::size_t>(in.u64());

    CompactionStats compaction_stats;
    compaction_stats.compactions = static_cast<std::size_t>(in.u64());
    compaction_stats.evicted_events = static_cast<std::size_t>(in.u64());
    compaction_stats.evicted_segments = static_cast<std::size_t>(in.u64());
    compaction_stats.clamped_windows = static_cast<std::size_t>(in.u64());
    compaction_stats.retained_start = in.f64();

    if (!in.done()) {
      throw ftio::util::ParseError(
          "StreamingSession: trailing bytes after state payload");
    }

    // Commit.
    app_ = std::move(app);
    rank_count_ = static_cast<int>(rank_count);
    request_count_ = static_cast<std::size_t>(request_count);
    begin_time_ = begin_time;
    end_time_ = end_time;
    min_request_duration_ = min_request_duration;
    bandwidth_ = std::move(bandwidth);
    state_ = state;
    history_ = std::move(history);
    triage_bank_ = std::move(bank);
    triage_reference_ = reference;
    last_full_ = last_full;
    skipped_since_full_ = static_cast<std::size_t>(skipped_since_full);
    triage_stats_ = triage_stats;
    compaction_stats_ = compaction_stats;
    // Derived/diagnostic state: the merge cache is rebuilt on demand
    // from history; the full last result is not part of the bit-identity
    // contract and stays empty until the next full analysis. Every
    // analysis discretises its window cold, so a restored session needs
    // no sample state to predict the same bits.
    last_result_ = {};
    intervals_.clear();
    intervals_stale_ = true;
  } catch (const ftio::util::ParseError&) {
    throw;
  } catch (const std::exception& e) {
    throw ftio::util::ParseError(
        std::string("StreamingSession: state rejected: ") + e.what());
  }
}

}  // namespace ftio::engine
