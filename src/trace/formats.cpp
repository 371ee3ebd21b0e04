#include "trace/formats.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"
#include "util/field_capture.hpp"
#include "util/json.hpp"
#include "util/msgpack.hpp"

namespace ftio::trace {

namespace {

using ftio::util::Json;

Json meta_record(const Trace& trace) {
  Json obj = Json::object();
  obj.set("type", "meta");
  obj.set("app", trace.app);
  obj.set("ranks", static_cast<std::int64_t>(trace.rank_count));
  return obj;
}

Json io_record(const IoRequest& r) {
  Json obj = Json::object();
  obj.set("type", "io");
  obj.set("kind", io_kind_name(r.kind));
  obj.set("rank", static_cast<std::int64_t>(r.rank));
  obj.set("start", r.start);
  obj.set("end", r.end);
  obj.set("bytes", static_cast<std::int64_t>(r.bytes));
  return obj;
}

/// The record keys the trace formats read, in FieldCapture slot order.
/// FieldCapture scans the slots in order for each key, so the order is
/// that of the keys in an `io` record as to_jsonl and to_msgpack write it.
enum RecordField : std::size_t {
  kType,
  kKind,
  kRank,
  kStart,
  kEnd,
  kBytes,
  kApp,
  kRanks,
};
constexpr std::array<std::string_view, 8> kRecordFields = {
    "type", "kind", "rank", "start", "end", "bytes", "app", "ranks"};

/// The shortest `io` record each format encodes, so that input size over
/// it bounds the request count and the decoders reserve the request vector
/// once. `io` needs `type`, `start`, `end` and `kind`; the shortest values
/// are one-digit integers and an empty kind (which reads as a write):
///   JSONL, 41 bytes before the newline:
///     {"type":"io","start":0,"end":0,"kind":""}
///   MessagePack, 27 bytes: fixmap(4) 1 + "type" 5 + "io" 3 + "start" 6
///     + fixint 1 + "end" 4 + fixint 1 + "kind" 5 + "" 1.
/// The reserve is only a hint: a wrong bound costs a regrowth, not a wrong
/// trace. For a large trace the unwritten capacity is address space, not
/// resident memory.
constexpr std::size_t kMinJsonlIoRecord = 41;
constexpr std::size_t kMinMsgpackIoRecord = 27;

/// An integer field narrowed to int. A value the cast would change is a
/// bad record: rank 4294967297 must not read as rank 1.
int int_field(std::int64_t value, const char* what) {
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw ftio::util::ParseError(what);
  }
  return static_cast<int>(value);
}

/// A byte count: a negative value is a bad record, not 2^64 - 1 bytes.
std::uint64_t byte_field(std::int64_t value) {
  if (value < 0) throw ftio::util::ParseError("trace record with bytes < 0");
  return static_cast<std::uint64_t>(value);
}

/// Applies one decoded record to the trace under construction. Unknown
/// record types are skipped for forward compatibility.
void apply_record(const ftio::util::FieldCapture& record, Trace& out) {
  if (!record.is_object() || !record[kType].present()) {
    throw ftio::util::ParseError("trace record without 'type'");
  }
  // "io" first: every record but one is a request.
  const std::string_view type = record[kType].as_string();
  if (type == "io") {
    IoRequest r;
    r.rank = int_field(record.get_int_or(kRank, 0),
                       "trace record with rank outside int");
    r.start = record.at(kStart).as_double();
    r.end = record.at(kEnd).as_double();
    r.bytes = byte_field(record.get_int_or(kBytes, 0));
    r.kind = record.at(kKind).as_string() == "read" ? IoKind::kRead
                                                    : IoKind::kWrite;
    if (r.end < r.start) {
      throw ftio::util::ParseError("trace record with end < start");
    }
    out.requests.push_back(r);
  } else if (type == "meta") {
    if (record[kApp].present()) out.app = record[kApp].as_string();
    out.rank_count = int_field(record.get_int_or(kRanks, 0),
                               "trace meta with ranks outside int");
  }
  // Other types (e.g. "flush") carry no request data; skip them.
}

/// kSkipBad wrapper around apply_record: a malformed record (or a
/// trace.parse_garbage failpoint firing) is counted instead of thrown.
/// Only ParseError is recoverable — anything else is a library bug, not
/// dirty input, and must keep propagating.
void apply_record_with_policy(const ftio::util::FieldCapture& record,
                              Trace& out, ParsePolicy policy,
                              ParseStats& stats) {
  try {
    if (FTIO_FAILPOINT("trace.parse_garbage")) {
      throw ftio::util::ParseError("failpoint: trace.parse_garbage");
    }
    apply_record(record, out);
    ++stats.records;
  } catch (const ftio::util::ParseError&) {
    if (policy == ParsePolicy::kStrict) throw;
    ++stats.skipped;
  }
}

}  // namespace

std::string to_jsonl(const Trace& trace) {
  std::string out = meta_record(trace).dump();
  out.push_back('\n');
  for (const auto& r : trace.requests) {
    out += io_record(r).dump();
    out.push_back('\n');
  }
  return out;
}

Trace from_jsonl(std::string_view text, ParsePolicy policy,
                 ParseStats* stats) {
  Trace out;
  out.requests.reserve(text.size() / kMinJsonlIoRecord);
  ParseStats local;
  ftio::util::FieldCapture record(kRecordFields);
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = (eol == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() : eol + 1;
    if (line.empty()) continue;
    // Parsing the line and applying the record are one recoverable unit:
    // JSONL resynchronises at the next newline, so a bad line never
    // costs more than itself.
    try {
      ftio::util::parse_json_fields(line, record);
      apply_record_with_policy(record, out, policy, local);
    } catch (const ftio::util::ParseError&) {
      if (policy == ParsePolicy::kStrict) throw;
      ++local.skipped;
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<std::uint8_t> to_msgpack(const Trace& trace) {
  std::vector<std::uint8_t> out;
  ftio::util::msgpack::encode_to(meta_record(trace), out);
  for (const auto& r : trace.requests) {
    ftio::util::msgpack::encode_to(io_record(r), out);
  }
  return out;
}

Trace from_msgpack(std::span<const std::uint8_t> bytes, ParsePolicy policy,
                   ParseStats* stats) {
  Trace out;
  out.requests.reserve(bytes.size() / kMinMsgpackIoRecord);
  ParseStats local;
  ftio::util::FieldCapture record(kRecordFields);
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    std::size_t consumed = 0;
    // A framing error leaves no way to find the next document boundary
    // (MessagePack is length-prefixed, not line-delimited), so under
    // kSkipBad the rest of the buffer is dropped as one skipped record.
    try {
      ftio::util::msgpack::decode_fields(bytes.subspan(pos), consumed, record);
    } catch (const ftio::util::ParseError&) {
      if (policy == ParsePolicy::kStrict) throw;
      ++local.skipped;
      break;
    }
    if (consumed == 0) break;  // defensive: decode must consume or throw
    pos += consumed;
    apply_record_with_policy(record, out, policy, local);
  }
  if (stats != nullptr) *stats = local;
  return out;
}

// ---------------------------------------------------------------------------
// Recorder-like CSV
// ---------------------------------------------------------------------------

namespace {

double parse_double_field(const std::string& s) {
  double v = 0.0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) {
    throw ftio::util::ParseError("csv: invalid number '" + s + "'");
  }
  return v;
}

/// A rank column holds a number that truncates to an int ("3", "3.0");
/// one that does not (NaN, infinite, out of range) is a bad row, not an
/// undefined conversion.
int parse_rank_field(const std::string& s) {
  // Exactly the doubles whose truncation is an int; NaN fails both tests.
  constexpr double kBelow =
      static_cast<double>(std::numeric_limits<int>::min()) - 1.0;
  constexpr double kAbove =
      static_cast<double>(std::numeric_limits<int>::max()) + 1.0;
  const double v = parse_double_field(s);
  if (!(v > kBelow && v < kAbove)) {
    throw ftio::util::ParseError("csv: rank out of range '" + s + "'");
  }
  return static_cast<int>(v);
}

std::uint64_t parse_u64_field(const std::string& s) {
  std::uint64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) {
    throw ftio::util::ParseError("csv: invalid integer '" + s + "'");
  }
  return v;
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::string to_recorder_csv(const Trace& trace) {
  ftio::util::CsvTable table;
  table.header = {"rank", "start", "end", "bytes", "op"};
  table.rows.reserve(trace.requests.size());
  for (const auto& r : trace.requests) {
    table.rows.push_back({std::to_string(r.rank), format_double(r.start),
                          format_double(r.end), std::to_string(r.bytes),
                          io_kind_name(r.kind)});
  }
  return ftio::util::write_csv(table);
}

Trace from_recorder_csv(std::string_view text, ParsePolicy policy,
                        ParseStats* stats) {
  const auto table = ftio::util::parse_csv(text);
  const auto c_rank = table.column("rank");
  const auto c_start = table.column("start");
  const auto c_end = table.column("end");
  const auto c_bytes = table.column("bytes");
  const auto c_op = table.column("op");

  Trace out;
  ParseStats local;
  int max_rank = -1;
  for (const auto& row : table.rows) {
    // Rows are independent, so a bad field recovers row-wise under
    // kSkipBad; only the header lookup above stays fatal.
    try {
      if (FTIO_FAILPOINT("trace.parse_garbage")) {
        throw ftio::util::ParseError("failpoint: trace.parse_garbage");
      }
      IoRequest r;
      r.rank = parse_rank_field(row[c_rank]);
      r.start = parse_double_field(row[c_start]);
      r.end = parse_double_field(row[c_end]);
      r.bytes = parse_u64_field(row[c_bytes]);
      r.kind = row[c_op] == "read" ? IoKind::kRead : IoKind::kWrite;
      if (r.end < r.start) {
        throw ftio::util::ParseError("csv: request with end < start");
      }
      max_rank = std::max(max_rank, r.rank);
      out.requests.push_back(r);
      ++local.records;
    } catch (const ftio::util::ParseError&) {
      if (policy == ParsePolicy::kStrict) throw;
      ++local.skipped;
    }
  }
  out.rank_count = rank_count_through(max_rank);
  if (stats != nullptr) *stats = local;
  return out;
}

// ---------------------------------------------------------------------------
// Darshan-like heatmap
// ---------------------------------------------------------------------------

ftio::signal::StepFunction Heatmap::bandwidth() const {
  if (bytes_per_bin.empty() || bin_width <= 0.0) return {};
  std::vector<double> times(bytes_per_bin.size() + 1);
  std::vector<double> values(bytes_per_bin.size());
  for (std::size_t i = 0; i <= bytes_per_bin.size(); ++i) {
    times[i] = start_time + static_cast<double>(i) * bin_width;
  }
  for (std::size_t i = 0; i < bytes_per_bin.size(); ++i) {
    values[i] = bytes_per_bin[i] / bin_width;
  }
  return ftio::signal::StepFunction(std::move(times), std::move(values));
}

std::string to_heatmap_csv(const Heatmap& heatmap) {
  ftio::util::CsvTable table;
  table.header = {"app", "bin_start", "bin_end", "bytes"};
  table.rows.reserve(heatmap.bytes_per_bin.size());
  for (std::size_t i = 0; i < heatmap.bytes_per_bin.size(); ++i) {
    const double lo = heatmap.start_time + static_cast<double>(i) * heatmap.bin_width;
    const double hi = lo + heatmap.bin_width;
    table.rows.push_back({heatmap.app, format_double(lo), format_double(hi),
                          format_double(heatmap.bytes_per_bin[i])});
  }
  return ftio::util::write_csv(table);
}

Heatmap from_heatmap_csv(std::string_view text) {
  const auto table = ftio::util::parse_csv(text);
  const auto c_app = table.column("app");
  const auto c_lo = table.column("bin_start");
  const auto c_hi = table.column("bin_end");
  const auto c_bytes = table.column("bytes");

  Heatmap h;
  ftio::util::expect(!table.rows.empty(), "heatmap csv without rows");
  h.app = table.rows.front()[c_app];
  h.start_time = parse_double_field(table.rows.front()[c_lo]);
  h.bin_width = parse_double_field(table.rows.front()[c_hi]) - h.start_time;
  ftio::util::expect(h.bin_width > 0.0, "heatmap csv with non-positive bins");
  for (const auto& row : table.rows) {
    h.bytes_per_bin.push_back(parse_double_field(row[c_bytes]));
  }
  return h;
}

Heatmap heatmap_from_trace(const Trace& trace, double bin_width) {
  ftio::util::expect(bin_width > 0.0, "heatmap_from_trace: bin_width <= 0");
  Heatmap h;
  h.app = trace.app;
  h.bin_width = bin_width;
  if (trace.empty()) return h;
  h.start_time = trace.begin_time();
  const double duration = trace.duration();
  const auto bins =
      static_cast<std::size_t>(std::ceil(duration / bin_width));
  h.bytes_per_bin.assign(std::max<std::size_t>(bins, 1), 0.0);

  for (const auto& r : trace.requests) {
    if (r.bytes == 0) continue;
    if (r.duration() <= 0.0) {
      // Instantaneous request: attribute all bytes to its bin.
      auto bin = static_cast<std::size_t>((r.start - h.start_time) / bin_width);
      bin = std::min(bin, h.bytes_per_bin.size() - 1);
      h.bytes_per_bin[bin] += static_cast<double>(r.bytes);
      continue;
    }
    const double rate = static_cast<double>(r.bytes) / r.duration();
    auto first = static_cast<std::size_t>((r.start - h.start_time) / bin_width);
    first = std::min(first, h.bytes_per_bin.size() - 1);
    for (std::size_t b = first; b < h.bytes_per_bin.size(); ++b) {
      const double lo = h.start_time + static_cast<double>(b) * bin_width;
      const double hi = lo + bin_width;
      if (lo >= r.end) break;
      const double overlap = std::min(hi, r.end) - std::max(lo, r.start);
      if (overlap > 0.0) h.bytes_per_bin[b] += rate * overlap;
    }
  }
  return h;
}

}  // namespace ftio::trace
