#include "data/csv.h"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/strings.h"

namespace ddos::data {

namespace {

[[noreturn]] void Fail(const char* what, std::size_t line_no) {
  throw std::runtime_error(StrFormat("CSV: %s at line %zu", what, line_no));
}

std::int64_t FieldInt(const std::vector<std::string>& fields, std::size_t idx,
                      std::size_t line_no) {
  const auto v = ParseInt64(fields.at(idx));
  if (!v) Fail("bad integer field", line_no);
  return *v;
}

// Timestamps far outside the plausible monitoring era are rejected: the
// schema carries wall-clock seconds, so a mangled year silently skews every
// interval/duration statistic downstream if allowed through.
const TimePoint& kMinTimestamp = kMinAttackTimestamp;
const TimePoint& kMaxTimestamp = kMaxAttackTimestamp;

bool ParseError(IngestError* err, IngestErrorKind kind, std::string detail) {
  err->kind = kind;
  err->detail = std::move(detail);
  return false;
}

}  // namespace

// Parses and validates one attack row. Returns false with *err filled on
// any malformed field; never throws.
bool TryParseAttackFields(const std::vector<std::string>& f, AttackRecord* out,
                          IngestError* err) {
  if (f.size() != 14) {
    return ParseError(err, IngestErrorKind::kBadFieldCount,
                      StrFormat("expected 14 fields, got %zu", f.size()));
  }
  AttackRecord a;
  const auto ddos_id = ParseInt64(f[0]);
  if (!ddos_id || *ddos_id < 0) {
    return ParseError(err, IngestErrorKind::kUnparseableNumber,
                      "bad ddos_id '" + f[0] + "'");
  }
  a.ddos_id = static_cast<std::uint64_t>(*ddos_id);
  const auto botnet_id = ParseInt64(f[1]);
  if (!botnet_id) {
    return ParseError(err, IngestErrorKind::kUnparseableNumber,
                      "bad botnet_id '" + f[1] + "'");
  }
  a.botnet_id = static_cast<std::uint32_t>(*botnet_id);
  const auto family = ParseFamily(f[2]);
  if (!family) {
    return ParseError(err, IngestErrorKind::kUnparseableNumber,
                      "unknown family '" + f[2] + "'");
  }
  a.family = *family;
  const auto protocol = ParseProtocol(f[3]);
  if (!protocol) {
    return ParseError(err, IngestErrorKind::kUnparseableNumber,
                      "unknown protocol '" + f[3] + "'");
  }
  a.category = *protocol;
  const auto ip = net::IPv4Address::Parse(f[4]);
  if (!ip) {
    return ParseError(err, IngestErrorKind::kUnparseableNumber,
                      "bad target_ip '" + f[4] + "'");
  }
  a.target_ip = *ip;
  for (const std::size_t idx : {std::size_t{5}, std::size_t{6}}) {
    const auto t = TimePoint::TryParse(f[idx]);
    if (!t) {
      return ParseError(err, IngestErrorKind::kOutOfRangeTimestamp,
                        "malformed timestamp '" + f[idx] + "'");
    }
    if (*t < kMinTimestamp || *t > kMaxTimestamp) {
      return ParseError(err, IngestErrorKind::kOutOfRangeTimestamp,
                        "timestamp '" + f[idx] + "' outside 1970..2100");
    }
    (idx == 5 ? a.start_time : a.end_time) = *t;
  }
  if (a.end_time < a.start_time) {
    return ParseError(
        err, IngestErrorKind::kNegativeDuration,
        StrFormat("end_time precedes timestamp by %lld s",
                  static_cast<long long>(a.start_time - a.end_time)));
  }
  const auto asn = ParseInt64(f[7]);
  if (!asn) {
    return ParseError(err, IngestErrorKind::kUnparseableNumber,
                      "bad asn '" + f[7] + "'");
  }
  a.asn = net::Asn(static_cast<std::uint32_t>(*asn));
  a.cc = f[8];
  a.city = f[9];
  const auto lat = ParseDouble(f[10]);
  const auto lon = ParseDouble(f[11]);
  if (!lat || !lon) {
    return ParseError(err, IngestErrorKind::kUnparseableNumber,
                      "bad coordinate '" + (lat ? f[11] : f[10]) + "'");
  }
  // NaN/inf coordinates would flow into geodesic math as NaN distances;
  // reject them here with the rest of the numeric validation.
  if (!std::isfinite(*lat) || !std::isfinite(*lon) || *lat < -90.0 ||
      *lat > 90.0 || *lon < -180.0 || *lon > 180.0) {
    return ParseError(err, IngestErrorKind::kUnparseableNumber,
                      "coordinate out of range or non-finite");
  }
  a.location.lat_deg = *lat;
  a.location.lon_deg = *lon;
  a.organization = f[12];
  const auto magnitude = ParseInt64(f[13]);
  if (!magnitude || *magnitude < 0) {
    return ParseError(err, IngestErrorKind::kUnparseableNumber,
                      "bad magnitude '" + f[13] + "'");
  }
  a.magnitude = static_cast<std::uint32_t>(*magnitude);
  *out = std::move(a);
  return true;
}

bool TryParseAttackLine(std::string_view line, AttackRecord* out,
                        IngestError* err) {
  // Thread-local scratch: the netd ingest path calls this once per received
  // line, and reusing the field buffers keeps the steady state free of heap
  // allocations, same as AttackCsvReader::Next.
  thread_local std::vector<std::string> fields;
  bool unterminated = false;
  ParseCsvLineInto(line, &fields, &unterminated);
  if (unterminated) {
    err->kind = IngestErrorKind::kUnterminatedQuote;
    err->detail = "line ended inside a quoted field";
    return false;
  }
  return TryParseAttackFields(fields, out, err);
}

bool ReadCsvLine(std::istream& in, std::string* line) {
  bool saw_newline;
  return ReadCsvLine(in, line, &saw_newline);
}

bool ReadCsvLine(std::istream& in, std::string* line, bool* saw_newline) {
  if (!std::getline(in, *line)) return false;
  // getline sets eofbit only when the stream ended before the delimiter, so
  // a cleanly terminated final line still reports saw_newline == true.
  *saw_newline = !in.eof();
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return true;
}

std::vector<std::string> ParseCsvLine(std::string_view line) {
  bool unterminated;
  return ParseCsvLine(line, &unterminated);
}

std::vector<std::string> ParseCsvLine(std::string_view line,
                                      bool* unterminated_quote) {
  std::vector<std::string> fields;
  ParseCsvLineInto(line, &fields, unterminated_quote);
  return fields;
}

void ParseCsvLineInto(std::string_view line, std::vector<std::string>* fields,
                      bool* unterminated_quote) {
  // Appends into the caller's strings in place, so a reader looping over a
  // fixed-shape file stops allocating once every field has seen its widest
  // value.
  std::size_t count = 0;
  const auto next_field = [fields, &count]() -> std::string& {
    if (count == fields->size()) fields->emplace_back();
    std::string& f = (*fields)[count++];
    f.clear();
    return f;
  };
  std::string* current = &next_field();
  bool in_quotes = false;
  bool at_field_start = true;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current->push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current->push_back(c);
      }
    } else if (c == '"' && at_field_start) {
      // Only a quote at the start of a field opens quoting; an interior
      // quote (`a"b`) is data, matching the common lenient reading.
      in_quotes = true;
      at_field_start = false;
    } else if (c == ',') {
      current = &next_field();
      at_field_start = true;
    } else {
      current->push_back(c);
      at_field_start = false;
    }
  }
  fields->resize(count);
  *unterminated_quote = in_quotes;
}

std::string CsvEscape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string_view AttackCsvHeader() {
  return "ddos_id,botnet_id,family,category,target_ip,timestamp,end_time,asn,"
         "cc,city,latitude,longitude,organization,magnitude";
}

void WriteAttackCsvRow(std::ostream& out, const AttackRecord& a) {
  out << a.ddos_id << ',' << a.botnet_id << ',' << FamilyName(a.family) << ','
      << ProtocolName(a.category) << ',' << a.target_ip.ToString() << ','
      << a.start_time.ToString() << ',' << a.end_time.ToString() << ','
      << a.asn.value() << ',' << CsvEscape(a.cc) << ',' << CsvEscape(a.city)
      << ',' << StrFormat("%.6f", a.location.lat_deg) << ','
      << StrFormat("%.6f", a.location.lon_deg) << ','
      << CsvEscape(a.organization) << ',' << a.magnitude << '\n';
}

void WriteAttacksCsv(std::ostream& out, std::span<const AttackRecord> attacks) {
  out << AttackCsvHeader() << '\n';
  for (const AttackRecord& a : attacks) WriteAttackCsvRow(out, a);
}

std::vector<AttackRecord> ReadAttacksCsv(std::istream& in) {
  return ReadAttacksCsv(in, ParseOptions{}, nullptr);
}

std::vector<AttackRecord> ReadAttacksCsv(std::istream& in, ParseOptions options,
                                         IngestErrorReport* report) {
  std::vector<AttackRecord> out;
  AttackCsvReader reader(in, options);
  AttackRecord a;
  while (reader.Next(&a)) out.push_back(std::move(a));
  if (report != nullptr) {
    for (int k = 0; k < kIngestErrorKindCount; ++k) {
      report->counts[static_cast<std::size_t>(k)] +=
          reader.error_report().counts[static_cast<std::size_t>(k)];
    }
  }
  return out;
}

AttackCsvReader::AttackCsvReader(std::istream& in, ParseOptions options)
    : in_(&in), options_(options) {
  ResolveMetrics();
}

AttackCsvReader::AttackCsvReader(const std::string& path, ParseOptions options)
    : file_(path), in_(&file_), options_(options) {
  if (!file_) throw std::runtime_error("AttackCsvReader: cannot open " + path);
  ResolveMetrics();
}

void AttackCsvReader::ResolveMetrics() {
  if (options_.metrics == nullptr) return;
  obs_records_ = options_.metrics->GetCounter(
      "ddoscope_ingest_records_total", "Valid attack records parsed");
  obs_bytes_ = options_.metrics->GetCounter(
      "ddoscope_ingest_bytes_total", "Raw feed bytes consumed (incl. newlines)");
  for (int k = 0; k < kIngestErrorKindCount; ++k) {
    const auto kind = static_cast<IngestErrorKind>(k);
    obs_errors_[static_cast<std::size_t>(k)] = options_.metrics->GetCounter(
        "ddoscope_ingest_errors_total", "Rejected rows by IngestErrorKind",
        {{"kind", std::string(IngestErrorKindName(kind))}});
  }
}

bool AttackCsvReader::Next(AttackRecord* out) {
  // line_ and fields_ are members so their buffers survive across records:
  // steady state parses a row with zero heap allocations beyond the
  // record's own strings.
  std::string& line = line_;
  bool saw_newline;
  while (ReadCsvLine(*in_, &line, &saw_newline)) {
    ++line_no_;
    obs::MaybeAdd(obs_bytes_, line.size() + (saw_newline ? 1 : 0));
    if (!header_skipped_) {
      header_skipped_ = true;
      continue;
    }
    if (Trim(line).empty()) continue;

    IngestError err;
    bool ok = false;
    if (line.size() > options_.max_line_bytes) {
      err.kind = IngestErrorKind::kTruncatedLine;
      err.detail = StrFormat("line of %zu bytes exceeds the %zu-byte cap",
                             line.size(), options_.max_line_bytes);
    } else {
      bool unterminated = false;
      ParseCsvLineInto(line, &fields_, &unterminated);
      if (unterminated) {
        err.kind = IngestErrorKind::kUnterminatedQuote;
        err.detail = "line ended inside a quoted field";
      } else {
        ok = TryParseAttackFields(fields_, out, &err);
      }
      // Any failure on a final line that the stream cut short is reported
      // as the torn write it is, not as whatever field the cut landed in.
      if (!ok && !saw_newline) {
        err.kind = IngestErrorKind::kTruncatedLine;
        err.detail = "stream ended mid-record (" + err.detail + ")";
      }
    }
    if (ok && options_.detect_duplicate_ids &&
        !seen_ids_.insert(out->ddos_id).second) {
      ok = false;
      err.kind = IngestErrorKind::kDuplicateId;
      err.detail =
          StrFormat("ddos_id %llu already ingested",
                    static_cast<unsigned long long>(out->ddos_id));
    }
    if (ok) {
      ++records_;
      obs::MaybeAdd(obs_records_);
      return true;
    }

    err.line_no = line_no_;
    err.raw_line = line;
    report_.Add(err.kind);
    obs::MaybeAdd(obs_errors_[static_cast<std::size_t>(err.kind)]);
    if (options_.policy == ParsePolicy::kStrict) {
      throw std::runtime_error(StrFormat(
          "CSV: %s: %s at line %zu",
          std::string(IngestErrorKindName(err.kind)).c_str(),
          err.detail.c_str(), line_no_));
    }
    if (options_.policy == ParsePolicy::kQuarantine &&
        options_.quarantine != nullptr) {
      options_.quarantine->Write(err);
    }
  }
  return false;
}

void AttackCsvReader::ResumeAt(std::size_t line_no, std::size_t records) {
  while (line_no_ < line_no && ReadCsvLine(*in_, &line_)) {
    ++line_no_;
    obs::MaybeAdd(obs_bytes_, line_.size() + 1);
  }
  header_skipped_ = line_no_ >= 1;
  records_ = records;
  // The fast-forwarded region's records were validated pre-crash; credit
  // them so the exposition counter equals records_read().
  obs::MaybeAdd(obs_records_, records);
}

void AttackCsvReader::ResumeAtRecords(std::size_t records) {
  // Replay the already-consumed prefix with error reporting silenced: the
  // pre-checkpoint run already reported (and possibly quarantined) these
  // rows, and kStrict must not abort a resume over a row it survived before.
  // Error *metrics* are silenced with the report - the checkpoint's tallies
  // come back through SeedErrors, and counting the replay too would double
  // them - while record/byte counters keep running: the replayed rows are
  // this process's only pass over that region.
  const ParseOptions saved = options_;
  const auto saved_errors = obs_errors_;
  options_.policy = ParsePolicy::kSkip;
  options_.quarantine = nullptr;
  obs_errors_.fill(nullptr);
  AttackRecord discard;
  while (records_ < records && Next(&discard)) {
  }
  options_ = saved;
  obs_errors_ = saved_errors;
  report_ = IngestErrorReport{};
}

void AttackCsvReader::SeedErrors(const IngestErrorReport& errors) {
  for (int k = 0; k < kIngestErrorKindCount; ++k) {
    const auto idx = static_cast<std::size_t>(k);
    report_.counts[idx] += errors.counts[idx];
    obs::MaybeAdd(obs_errors_[idx], errors.counts[idx]);
  }
}

void WriteBotnetsCsv(std::ostream& out, std::span<const BotnetRecord> botnets) {
  out << "botnet_id,family,controller_ip,first_seen,last_seen\n";
  for (const BotnetRecord& b : botnets) {
    out << b.botnet_id << ',' << FamilyName(b.family) << ','
        << b.controller_ip.ToString() << ',' << b.first_seen.ToString() << ','
        << b.last_seen.ToString() << '\n';
  }
}

std::vector<BotnetRecord> ReadBotnetsCsv(std::istream& in) {
  std::vector<BotnetRecord> out;
  std::string line;
  std::size_t line_no = 0;
  bool header = true;
  while (ReadCsvLine(in, &line)) {
    ++line_no;
    if (header) {
      header = false;
      continue;
    }
    if (Trim(line).empty()) continue;
    const auto f = ParseCsvLine(line);
    if (f.size() != 5) Fail("expected 5 fields", line_no);
    BotnetRecord b;
    b.botnet_id = static_cast<std::uint32_t>(FieldInt(f, 0, line_no));
    const auto family = ParseFamily(f[1]);
    if (!family) Fail("unknown family", line_no);
    b.family = *family;
    const auto ip = net::IPv4Address::Parse(f[2]);
    if (!ip) Fail("bad controller_ip", line_no);
    b.controller_ip = *ip;
    b.first_seen = TimePoint::Parse(f[3]);
    b.last_seen = TimePoint::Parse(f[4]);
    out.push_back(b);
  }
  return out;
}

void WriteSnapshotsCsv(std::ostream& out, std::span<const SnapshotRecord> snaps) {
  out << "time,family,bot_ip\n";
  for (const SnapshotRecord& s : snaps) {
    const std::string stamp = s.time.ToString();
    for (const net::IPv4Address& ip : s.bot_ips) {
      out << stamp << ',' << FamilyName(s.family) << ',' << ip.ToString() << '\n';
    }
  }
}

std::vector<SnapshotRecord> ReadSnapshotsCsv(std::istream& in) {
  std::vector<SnapshotRecord> out;
  std::string line;
  std::size_t line_no = 0;
  bool header = true;
  while (ReadCsvLine(in, &line)) {
    ++line_no;
    if (header) {
      header = false;
      continue;
    }
    if (Trim(line).empty()) continue;
    const auto f = ParseCsvLine(line);
    if (f.size() != 3) Fail("expected 3 fields", line_no);
    const TimePoint time = TimePoint::Parse(f[0]);
    const auto family = ParseFamily(f[1]);
    if (!family) Fail("unknown family", line_no);
    const auto ip = net::IPv4Address::Parse(f[2]);
    if (!ip) Fail("bad bot_ip", line_no);
    // Rows for the same (time, family) are contiguous by construction of the
    // writer; group them back into snapshots.
    if (out.empty() || out.back().time != time || out.back().family != *family) {
      out.push_back(SnapshotRecord{time, *family, {}});
    }
    out.back().bot_ips.push_back(*ip);
  }
  return out;
}

void SaveAttacksCsv(const std::string& path, std::span<const AttackRecord> attacks) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("SaveAttacksCsv: cannot open " + path);
  WriteAttacksCsv(out, attacks);
}

std::vector<AttackRecord> LoadAttacksCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("LoadAttacksCsv: cannot open " + path);
  return ReadAttacksCsv(in);
}

}  // namespace ddos::data
