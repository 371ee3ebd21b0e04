#include "service/daemon.hpp"

#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "trace/formats.hpp"
#include "util/error.hpp"

namespace ftio::service {

namespace {

/// Counts the records a framed payload's kSkipBad decode skipped. Returns
/// true when the payload held nothing but malformed records: that flush
/// is counted and rejected as malformed instead of submitted.
bool count_malformed(const ftio::trace::ParseStats& parse,
                     std::atomic<std::size_t>& malformed_records,
                     std::atomic<std::size_t>& rejected_malformed) {
  malformed_records.fetch_add(parse.skipped, std::memory_order_relaxed);
  if (parse.records != 0 || parse.skipped == 0) return false;
  rejected_malformed.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace

IngestDaemon::IngestDaemon(ServiceOptions options)
    : options_(std::move(options)) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.drain_batch == 0) options_.drain_batch = 1;
  if (options_.materialize_after_requests == 0) {
    options_.materialize_after_requests = 1;
  }
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, options_));
  }
  if (options_.background) {
    for (auto& shard : shards_) shard->start();
  }
}

IngestDaemon::~IngestDaemon() { stop(); }

std::size_t IngestDaemon::shard_of(std::string_view tenant) const {
  return std::hash<std::string_view>{}(tenant) % shards_.size();
}

Admission IngestDaemon::submit(
    std::string_view tenant, std::vector<ftio::trace::IoRequest>&& requests) {
  ftio::util::expect(!tenant.empty(), "submit: empty tenant name");
  return shards_[shard_of(tenant)]->submit(tenant, std::move(requests));
}

Admission IngestDaemon::submit(
    std::string_view tenant,
    std::span<const ftio::trace::IoRequest> requests) {
  return submit(tenant, std::vector<ftio::trace::IoRequest>(requests.begin(),
                                                            requests.end()));
}

Admission IngestDaemon::submit_jsonl(std::string_view tenant,
                                     std::string_view text) {
  ftio::util::expect(!tenant.empty(), "submit_jsonl: empty tenant name");
  ftio::trace::ParseStats parse;
  ftio::trace::Trace chunk =
      ftio::trace::from_jsonl(text, ftio::trace::ParsePolicy::kSkipBad,
                              &parse);
  if (count_malformed(parse, malformed_records_, rejected_malformed_)) {
    return Admission::kRejectedMalformed;
  }
  return submit(tenant, std::move(chunk.requests));
}

Admission IngestDaemon::submit_msgpack(std::string_view tenant,
                                       std::span<const std::uint8_t> bytes) {
  ftio::util::expect(!tenant.empty(), "submit_msgpack: empty tenant name");
  ftio::trace::ParseStats parse;
  ftio::trace::Trace chunk =
      ftio::trace::from_msgpack(bytes, ftio::trace::ParsePolicy::kSkipBad,
                                &parse);
  if (count_malformed(parse, malformed_records_, rejected_malformed_)) {
    return Admission::kRejectedMalformed;
  }
  return submit(tenant, std::move(chunk.requests));
}

std::size_t IngestDaemon::pump() {
  ftio::util::expect(!options_.background,
                     "pump: daemon runs background workers");
  std::size_t items = 0;
  for (auto& shard : shards_) items += shard->pump();
  return items;
}

void IngestDaemon::drain() {
  if (!options_.background) {
    while (pump() > 0) {
    }
    for (auto& shard : shards_) shard->await_checkpoint();
    return;
  }
  for (;;) {
    bool quiet = true;
    for (const auto& shard : shards_) {
      if (!shard->quiesced()) {
        quiet = false;
        break;
      }
    }
    if (quiet) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void IngestDaemon::stop() {
  if (stopped_.exchange(true)) return;
  for (auto& shard : shards_) shard->stop();
  if (!options_.background) {
    // No workers exist to drain the closed mailboxes; finish the queued
    // work here so stop() means the same thing in both modes.
    for (auto& shard : shards_) {
      while (shard->pump() > 0) {
      }
      shard->final_checkpoint();
    }
  }
}

DaemonStats IngestDaemon::stats() const {
  DaemonStats stats;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) stats.shards.push_back(shard->stats());
  stats.malformed_records = malformed_records_.load(std::memory_order_relaxed);
  stats.rejected_malformed =
      rejected_malformed_.load(std::memory_order_relaxed);
  return stats;
}

std::optional<ftio::core::Prediction> IngestDaemon::last_prediction(
    std::string_view tenant) const {
  if (tenant.empty()) return std::nullopt;
  return shards_[shard_of(tenant)]->last_prediction(tenant);
}

bool IngestDaemon::poisoned(std::string_view tenant) const {
  if (tenant.empty()) return false;
  return shards_[shard_of(tenant)]->poisoned(tenant);
}

}  // namespace ftio::service
