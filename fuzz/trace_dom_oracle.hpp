#pragma once

// The DOM decoding path of the TMIO trace formats, kept as the oracle the
// record decoder in trace/formats.cpp is checked against: every record is
// parsed into a util::Json tree (Json::parse, msgpack::decode) and applied
// to the trace by walking that tree. The record decoder must agree with
// it on accept/reject, ParseStats and the bits of the decoded trace, under
// both parse policies. Used by tests/trace_test.cpp and the
// fuzz_trace_formats harness.

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"
#include "util/json.hpp"
#include "util/msgpack.hpp"

namespace ftio::fuzz::dom_oracle {

inline void apply_record(const ftio::util::Json& record,
                         ftio::trace::Trace& out) {
  if (!record.is_object() || !record.contains("type")) {
    throw ftio::util::ParseError("trace record without 'type'");
  }
  // Integers are narrowed only when the cast keeps the value.
  const auto to_int = [](std::int64_t v) {
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      throw ftio::util::ParseError("integer field outside int");
    }
    return static_cast<int>(v);
  };
  const std::string& type = record.at("type").as_string();
  if (type == "meta") {
    if (record.contains("app")) out.app = record.at("app").as_string();
    out.rank_count = to_int(record.get_int_or("ranks", 0));
  } else if (type == "io") {
    ftio::trace::IoRequest r;
    r.rank = to_int(record.get_int_or("rank", 0));
    r.start = record.at("start").as_double();
    r.end = record.at("end").as_double();
    const std::int64_t bytes = record.get_int_or("bytes", 0);
    if (bytes < 0) throw ftio::util::ParseError("negative bytes");
    r.bytes = static_cast<std::uint64_t>(bytes);
    r.kind = record.at("kind").as_string() == "read"
                 ? ftio::trace::IoKind::kRead
                 : ftio::trace::IoKind::kWrite;
    if (r.end < r.start) {
      throw ftio::util::ParseError("trace record with end < start");
    }
    out.requests.push_back(r);
  }
}

inline void apply_record_with_policy(const ftio::util::Json& record,
                                     ftio::trace::Trace& out,
                                     ftio::trace::ParsePolicy policy,
                                     ftio::trace::ParseStats& stats) {
  try {
    if (FTIO_FAILPOINT("trace.parse_garbage")) {
      throw ftio::util::ParseError("failpoint: trace.parse_garbage");
    }
    apply_record(record, out);
    ++stats.records;
  } catch (const ftio::util::ParseError&) {
    if (policy == ftio::trace::ParsePolicy::kStrict) throw;
    ++stats.skipped;
  }
}

inline ftio::trace::Trace from_jsonl(std::string_view text,
                                     ftio::trace::ParsePolicy policy,
                                     ftio::trace::ParseStats* stats) {
  ftio::trace::Trace out;
  ftio::trace::ParseStats local;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = (eol == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() : eol + 1;
    if (line.empty()) continue;
    try {
      apply_record_with_policy(ftio::util::Json::parse(line), out, policy,
                               local);
    } catch (const ftio::util::ParseError&) {
      if (policy == ftio::trace::ParsePolicy::kStrict) throw;
      ++local.skipped;
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

inline ftio::trace::Trace from_msgpack(std::span<const std::uint8_t> bytes,
                                       ftio::trace::ParsePolicy policy,
                                       ftio::trace::ParseStats* stats) {
  ftio::trace::Trace out;
  ftio::trace::ParseStats local;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    std::size_t consumed = 0;
    ftio::util::Json record;
    try {
      record = ftio::util::msgpack::decode(bytes.subspan(pos), consumed);
    } catch (const ftio::util::ParseError&) {
      if (policy == ftio::trace::ParsePolicy::kStrict) throw;
      ++local.skipped;
      break;
    }
    if (consumed == 0) break;
    pos += consumed;
    apply_record_with_policy(record, out, policy, local);
  }
  if (stats != nullptr) *stats = local;
  return out;
}

/// What one parse produced: a rejection, or the trace and its stats.
struct Outcome {
  bool accepted = false;
  ftio::trace::ParseStats stats;
  ftio::trace::Trace trace;
};

/// Runs `parse(policy, &stats)`; a ParseError is a rejection.
template <class Parse>
Outcome run(Parse parse, ftio::trace::ParsePolicy policy) {
  Outcome o;
  try {
    o.trace = parse(policy, &o.stats);
    o.accepted = true;
  } catch (const ftio::util::ParseError&) {
    o.accepted = false;
  }
  return o;
}

/// Empty when the two outcomes agree bit for bit, else what differs.
inline std::string difference(const Outcome& a, const Outcome& b) {
  if (a.accepted != b.accepted) return "accept/reject differs";
  if (!a.accepted) return {};
  if (a.stats.records != b.stats.records) return "ParseStats.records differs";
  if (a.stats.skipped != b.stats.skipped) return "ParseStats.skipped differs";
  if (a.trace.app != b.trace.app) return "app differs";
  if (a.trace.rank_count != b.trace.rank_count) return "rank_count differs";
  if (a.trace.requests.size() != b.trace.requests.size()) {
    return "request count differs";
  }
  for (std::size_t i = 0; i < a.trace.requests.size(); ++i) {
    const auto& x = a.trace.requests[i];
    const auto& y = b.trace.requests[i];
    if (x.rank != y.rank || x.bytes != y.bytes || x.kind != y.kind ||
        std::bit_cast<std::uint64_t>(x.start) !=
            std::bit_cast<std::uint64_t>(y.start) ||
        std::bit_cast<std::uint64_t>(x.end) !=
            std::bit_cast<std::uint64_t>(y.end)) {
      return "request " + std::to_string(i) + " differs";
    }
  }
  return {};
}

using Policy = ftio::trace::ParsePolicy;
using Stats = ftio::trace::ParseStats;

/// Decodes `text` as JSONL with trace::from_jsonl and with the oracle,
/// under `policy`; empty when they agree, else what differs.
inline std::string jsonl_difference(std::string_view text, Policy policy) {
  const auto decoder = [&](Policy p, Stats* s) {
    return ftio::trace::from_jsonl(text, p, s);
  };
  const auto oracle = [&](Policy p, Stats* s) {
    return dom_oracle::from_jsonl(text, p, s);
  };
  return difference(run(decoder, policy), run(oracle, policy));
}

/// The MessagePack counterpart of jsonl_difference.
inline std::string msgpack_difference(std::span<const std::uint8_t> bytes,
                                      Policy policy) {
  const auto decoder = [&](Policy p, Stats* s) {
    return ftio::trace::from_msgpack(bytes, p, s);
  };
  const auto oracle = [&](Policy p, Stats* s) {
    return dom_oracle::from_msgpack(bytes, p, s);
  };
  return difference(run(decoder, policy), run(oracle, policy));
}

}  // namespace ftio::fuzz::dom_oracle
