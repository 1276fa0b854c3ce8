#include "data/csv.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/strings.h"

namespace ddos::data {

namespace {

[[noreturn]] void Fail(const char* what, std::size_t line_no) {
  throw std::runtime_error(StrFormat("CSV: %s at line %zu", what, line_no));
}

bool ParseError(IngestError* err, IngestErrorKind kind, std::string detail) {
  err->kind = kind;
  err->detail = std::move(detail);
  return false;
}

// "<what> '<field>'", built by appending so any byte of the field (a NUL
// included) lands in the detail verbatim.
bool BadValue(IngestError* err, std::string_view what, std::string_view field) {
  std::string detail(what);
  detail.append(" '").append(field).append("'");
  return ParseError(err, IngestErrorKind::kUnparseableNumber,
                    std::move(detail));
}

bool CheckAttackFieldCount(std::size_t count, IngestError* err) {
  if (count == 14) return true;
  return ParseError(err, IngestErrorKind::kBadFieldCount,
                    StrFormat("expected 14 fields, got %zu", count));
}

}  // namespace

std::span<const std::string_view> CsvTokenizer::Split(std::string_view line) {
  fields_.clear();
  unterminated_ = false;
  char* out = nullptr;  // unescape cursor into scratch_, set on first use
  std::size_t pos = 0;
  while (true) {
    if (pos == line.size()) {  // "" or a trailing ','
      fields_.emplace_back();
      break;
    }
    if (line[pos] != '"') {  // unquoted: up to the next ','
      const char* const from = line.data() + pos;
      const auto* comma = static_cast<const char*>(
          std::memchr(from, ',', line.size() - pos));
      const std::size_t len =
          comma != nullptr ? static_cast<std::size_t>(comma - from)
                           : line.size() - pos;
      fields_.emplace_back(from, len);
      if (comma == nullptr) break;
      pos += len + 1;
      continue;
    }
    const std::size_t close = line.find('"', pos + 1);
    if (close == std::string_view::npos) {  // swallows the rest of the line
      fields_.push_back(line.substr(pos + 1));
      unterminated_ = true;
      break;
    }
    if (close + 1 == line.size() || line[close + 1] == ',') {
      fields_.push_back(line.substr(pos + 1, close - pos - 1));
      if (close + 1 == line.size()) break;
      pos = close + 2;
      continue;
    }
    // A doubled quote or text after the closing quote. Unescaped output
    // never outgrows its input, so sizing scratch_ to the line once keeps
    // every earlier view into it valid.
    if (out == nullptr) {
      if (scratch_.size() < line.size()) scratch_.resize(line.size());
      out = scratch_.data();
    }
    char* const field = out;
    bool in_quotes = true;
    for (++pos; pos < line.size() && (in_quotes || line[pos] != ','); ++pos) {
      if (!in_quotes || line[pos] != '"') {
        *out++ = line[pos];
      } else if (pos + 1 < line.size() && line[pos + 1] == '"') {
        *out++ = line[pos++];
      } else {
        in_quotes = false;
      }
    }
    fields_.emplace_back(field, static_cast<std::size_t>(out - field));
    if (pos == line.size()) {
      unterminated_ = in_quotes;
      break;
    }
    ++pos;  // the ',' ending this field
  }
  return fields_;
}

bool SplitAttackRow(std::string_view line, CsvTokenizer* tokenizer,
                    IngestError* err) {
  const auto fields = tokenizer->Split(line);
  if (tokenizer->unterminated()) {
    return ParseError(err, IngestErrorKind::kUnterminatedQuote,
                      "line ended inside a quoted field");
  }
  return CheckAttackFieldCount(fields.size(), err);
}

bool ParseAttackId(std::string_view field, std::uint64_t* out,
                   IngestError* err) {
  const auto v = ParseInt64(field);
  if (!v || *v < 0) return BadValue(err, "bad ddos_id", field);
  *out = static_cast<std::uint64_t>(*v);
  return true;
}

bool ParseAttackU32(std::string_view column, std::string_view field,
                    std::uint32_t* out, IngestError* err) {
  const auto v = ParseInt64(field);
  if (!v || *v < 0 || *v > std::numeric_limits<std::uint32_t>::max()) {
    return BadValue(err, "bad " + std::string(column), field);
  }
  *out = static_cast<std::uint32_t>(*v);
  return true;
}

bool ParseAttackIp(std::string_view field, net::IPv4Address* out,
                   IngestError* err) {
  const auto ip = net::IPv4Address::Parse(field);
  if (!ip) return BadValue(err, "bad target_ip", field);
  *out = *ip;
  return true;
}

// Timestamps far outside the plausible monitoring era are rejected: the
// schema carries wall-clock seconds, so a mangled year silently skews every
// interval/duration statistic downstream if allowed through.
const TimePoint kMinAttackTimestamp(0);  // 1970
const TimePoint kMaxAttackTimestamp = TimePoint::FromDate(2100, 1, 1);

bool ParseAttackTimes(std::string_view start, std::string_view end,
                      TimePoint* start_out, TimePoint* end_out,
                      IngestError* err) {
  for (const auto& [field, out] : {std::pair{start, start_out},
                                   std::pair{end, end_out}}) {
    const auto t = TimePoint::TryParse(field);
    if (!t) {
      return ParseError(err, IngestErrorKind::kOutOfRangeTimestamp,
                        "malformed timestamp '" + std::string(field) + "'");
    }
    if (*t < kMinAttackTimestamp || *t > kMaxAttackTimestamp) {
      return ParseError(err, IngestErrorKind::kOutOfRangeTimestamp,
                        "timestamp '" + std::string(field) +
                            "' outside 1970..2100");
    }
    *out = *t;
  }
  if (*end_out < *start_out) {
    return ParseError(
        err, IngestErrorKind::kNegativeDuration,
        StrFormat("end_time precedes timestamp by %lld s",
                  static_cast<long long>(*start_out - *end_out)));
  }
  return true;
}

bool TryParseAttackFields(std::span<const std::string_view> f,
                          AttackRecord* out, IngestError* err) {
  if (!CheckAttackFieldCount(f.size(), err) ||
      !ParseAttackId(f[0], &out->ddos_id, err) ||
      !ParseAttackU32("botnet_id", f[1], &out->botnet_id, err)) {
    return false;
  }
  const auto family = ParseFamily(f[2]);
  if (!family) return BadValue(err, "unknown family", f[2]);
  out->family = *family;
  const auto protocol = ParseProtocol(f[3]);
  if (!protocol) return BadValue(err, "unknown protocol", f[3]);
  out->category = *protocol;
  std::uint32_t asn = 0;
  if (!ParseAttackIp(f[4], &out->target_ip, err) ||
      !ParseAttackTimes(f[5], f[6], &out->start_time, &out->end_time, err) ||
      !ParseAttackU32("asn", f[7], &asn, err)) {
    return false;
  }
  out->asn = net::Asn(asn);
  out->cc.assign(f[8]);
  out->city.assign(f[9]);
  const auto lat = ParseDouble(f[10]);
  const auto lon = ParseDouble(f[11]);
  if (!lat || !lon) return BadValue(err, "bad coordinate", lat ? f[11] : f[10]);
  // NaN/inf coordinates would flow into geodesic math as NaN distances;
  // reject them here with the rest of the numeric validation.
  if (!std::isfinite(*lat) || !std::isfinite(*lon) || *lat < -90.0 ||
      *lat > 90.0 || *lon < -180.0 || *lon > 180.0) {
    return ParseError(err, IngestErrorKind::kUnparseableNumber,
                      "coordinate out of range or non-finite");
  }
  out->location.lat_deg = *lat;
  out->location.lon_deg = *lon;
  out->organization.assign(f[12]);
  return ParseAttackU32("magnitude", f[13], &out->magnitude, err);
}

bool TryParseAttackLine(std::string_view line, AttackRecord* out,
                        IngestError* err) {
  // Thread-local so the netd ingest path, which calls this once per
  // received line, parses without allocating, same as AttackCsvReader.
  thread_local CsvTokenizer tokenizer;
  return SplitAttackRow(line, &tokenizer, err) &&
         TryParseAttackFields(tokenizer.fields(), out, err);
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

std::vector<std::string> ParseCsvLine(std::string_view line,
                                      bool* unterminated_quote) {
  std::vector<std::string> fields;
  bool unterminated = false;
  ParseCsvLineInto(line, &fields, &unterminated);
  if (unterminated_quote != nullptr) *unterminated_quote = unterminated;
  return fields;
}

void ParseCsvLineInto(std::string_view line, std::vector<std::string>* fields,
                      bool* unterminated_quote) {
  thread_local CsvTokenizer tokenizer;
  const auto views = tokenizer.Split(line);
  fields->resize(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) (*fields)[i].assign(views[i]);
  *unterminated_quote = tokenizer.unterminated();
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
  if (report != nullptr) report->Merge(reader.error_report());
  return out;
}

AttackCsvReader::AttackCsvReader(std::istream& in, ParseOptions options)
    : in_(&in),
      options_(options),
      dedupe_(options.policy != ParsePolicy::kStrict) {
  ResolveMetrics();
}

AttackCsvReader::AttackCsvReader(const std::string& path, ParseOptions options)
    : file_(path),
      in_(&file_),
      options_(options),
      dedupe_(options.policy != ParsePolicy::kStrict) {
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
  // line_ and tokenizer_ are members so their buffers survive across
  // records: steady state parses a row with zero heap allocations, and the
  // record's strings reuse their capacity.
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
      ok = SplitAttackRow(line, &tokenizer_, &err) &&
           TryParseAttackFields(tokenizer_.fields(), out, &err);
      // Any failure on a final line that the stream cut short is reported
      // as the torn write it is, not as whatever field the cut landed in.
      if (!ok && !saw_newline) {
        err.kind = IngestErrorKind::kTruncatedLine;
        err.detail = "stream ended mid-record (" + err.detail + ")";
      }
    }
    if (ok && dedupe_ && !seen_ids_.Insert(out->ddos_id)) {
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
      throw std::runtime_error(StrictErrorMessage(err));
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

void AttackCsvReader::SeedSeenIds(common::IdSet ids) {
  if (dedupe_) seen_ids_ = std::move(ids);
}

void AttackCsvReader::SeedErrors(const IngestErrorReport& errors) {
  report_.Merge(errors);
  for (std::size_t k = 0; k < errors.counts.size(); ++k) {
    obs::MaybeAdd(obs_errors_[k], errors.counts[k]);
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
    IngestError err;
    if (!ParseAttackU32("botnet_id", f[0], &b.botnet_id, &err)) {
      Fail("bad botnet_id", line_no);
    }
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
