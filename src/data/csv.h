// CSV serialization of the dataset schemas.
//
// The attack CSV columns mirror Table I exactly (ddos_id, botnet_id,
// category, target_ip, timestamp, end_time, asn, cc, city, latitude,
// longitude) plus the joined family/organization/magnitude columns. This
// lets externally collected traces be fed through the same analyses, and it
// is the archival format of the synthetic traces the benches generate.
//
// Quoting: fields containing ',', '"' or newlines are double-quoted with
// inner quotes doubled (RFC 4180). A '"' in the interior of an unquoted
// field is kept literally (the common lenient reading); only a quote at the
// start of a field opens quoting, and text after a closing quote is kept
// up to the next ','. Line endings may be LF or CRLF; a trailing '\r' is
// stripped before parsing so files written on Windows parse identically.
// One tokenizer (CsvTokenizer) implements these rules; every CSV reader
// and the sharded router's pre-scan (data/linescan.h) split through it.
//
// Error handling: every malformed row is diagnosed with a typed
// IngestErrorKind (see data/ingest_error.h). Under the default
// ParsePolicy::kStrict the readers throw std::runtime_error with a line
// number, exactly as they always have; kSkip and kQuarantine count the
// error in an IngestErrorReport (and optionally preserve the raw line) and
// keep reading, so a 207-day feed survives its bad rows.
#ifndef DDOSCOPE_DATA_CSV_H_
#define DDOSCOPE_DATA_CSV_H_

#include <array>
#include <fstream>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/id_set.h"
#include "data/dataset.h"
#include "data/ingest_error.h"
#include "obs/metrics.h"

namespace ddos::data {

// Splits CSV lines into field views in one pass, without copying: an
// unquoted field, and a quoted one with no doubled quote, is a view into
// the line itself. Only a quoted field holding `""`, or text after its
// closing quote, is unescaped, into scratch the tokenizer reuses. A line
// that ends inside a quoted field is still split (that field runs to the
// end of the line) and sets unterminated(). Reusable and allocation-free in
// steady state; not thread-safe.
class CsvTokenizer {
 public:
  // Splits `line`. The views stay valid while `line`'s bytes do and until
  // the next Split.
  std::span<const std::string_view> Split(std::string_view line);
  std::span<const std::string_view> fields() const { return fields_; }
  bool unterminated() const { return unterminated_; }

 private:
  std::vector<std::string_view> fields_;
  std::string scratch_;
  bool unterminated_ = false;
};

// Copying forms of CsvTokenizer::Split for the small readers and tests,
// reporting unterminated() through unterminated_quote when it is non-null.
// ParseCsvLineInto resizes *fields to the field count and reuses each
// element's capacity.
std::vector<std::string> ParseCsvLine(std::string_view line,
                                      bool* unterminated_quote = nullptr);
void ParseCsvLineInto(std::string_view line, std::vector<std::string>* fields,
                      bool* unterminated_quote);
// Escapes one field for CSV output.
std::string CsvEscape(const std::string& field);

// One-row building blocks of the attack-table format, shared by the file
// readers/writers and the netd line-protocol ingest path (src/netd), which
// receives the same Table-I rows one line at a time over TCP.
//
// All of them fill *err with the kind and diagnosis on failure (line_no and
// raw_line are left for the caller, which knows its own feed position) and
// return false. *out is unspecified after a failure: the parse writes
// straight into it, reusing its string capacity, and may have set some
// fields before it hit the bad one.
//
// SplitAttackRow tokenizes a row and checks its shape: kUnterminatedQuote,
// then kBadFieldCount unless it has 14 fields. TryParseAttackFields
// validates the 14 fields in column order; TryParseAttackLine does both.
bool SplitAttackRow(std::string_view line, CsvTokenizer* tokenizer,
                    IngestError* err);
bool TryParseAttackFields(std::span<const std::string_view> fields,
                          AttackRecord* out, IngestError* err);
bool TryParseAttackLine(std::string_view line, AttackRecord* out,
                        IngestError* err);

// The column checks TryParseAttackFields runs on ddos_id, the 32-bit
// columns (botnet_id, asn, magnitude: [0, 2^32-1], named by `column` in the
// detail), target_ip and the timestamp pair (format, range, then order).
// The router's pre-scan (data/linescan.h) runs the same ones on the routed
// columns, so a bad routed column gets the same kind and detail from both.
bool ParseAttackId(std::string_view field, std::uint64_t* out,
                   IngestError* err);
bool ParseAttackU32(std::string_view column, std::string_view field,
                    std::uint32_t* out, IngestError* err);
bool ParseAttackIp(std::string_view field, net::IPv4Address* out,
                   IngestError* err);
bool ParseAttackTimes(std::string_view start, std::string_view end,
                      TimePoint* start_out, TimePoint* end_out,
                      IngestError* err);

// The attack-table header row (no trailing newline) and a single data row
// (trailing newline included), exactly as WriteAttacksCsv emits them.
std::string_view AttackCsvHeader();
void WriteAttackCsvRow(std::ostream& out, const AttackRecord& a);

// getline wrapper shared by all CSV readers: strips one trailing '\r' so
// CRLF-terminated files parse like LF files. Returns false at EOF. The
// three-argument form additionally reports whether the line was terminated
// by a newline; a final line without one is the signature of a torn write.
bool ReadCsvLine(std::istream& in, std::string* line);
bool ReadCsvLine(std::istream& in, std::string* line, bool* saw_newline);

// How AttackCsvReader reacts to malformed rows. Under kSkip and kQuarantine
// a reader also rejects a row whose ddos_id it already ingested
// (kDuplicateId), keeping one row per attack; kStrict trusts its file and
// keeps no id set.
struct ParseOptions {
  ParsePolicy policy = ParsePolicy::kStrict;
  // Receives every rejected raw line when policy == kQuarantine. Owned by
  // the caller; may be null (kQuarantine then degrades to kSkip).
  QuarantineWriter* quarantine = nullptr;
  // Rows longer than this are rejected as kTruncatedLine instead of being
  // buffered without bound (defense against binary garbage on the feed).
  std::size_t max_line_bytes = 1 << 20;
  // When non-null the reader publishes ddoscope_ingest_* counters (records,
  // bytes, errors by kind) here. Handles are resolved once at construction;
  // the per-row cost is a relaxed atomic add (obs/metrics.h). Owned by the
  // caller, which must outlive the reader.
  obs::MetricsRegistry* metrics = nullptr;

  static ParseOptions Strict() { return ParseOptions{}; }
  static ParseOptions Skip() {
    ParseOptions o;
    o.policy = ParsePolicy::kSkip;
    return o;
  }
  static ParseOptions Quarantine(QuarantineWriter* writer) {
    ParseOptions o;
    o.policy = ParsePolicy::kQuarantine;
    o.quarantine = writer;
    return o;
  }
};

// Streaming one-record-at-a-time reader over the attack table. Unlike
// ReadAttacksCsv it never materializes the file: each Next() parses one
// row, so an arbitrarily large trace can be consumed in constant memory
// (the backbone of ddos::stream ingestion). Blank lines are skipped; the
// header line is consumed lazily on the first Next().
class AttackCsvReader {
 public:
  // Reads from a caller-owned stream (kept alive by the caller).
  explicit AttackCsvReader(std::istream& in, ParseOptions options = {});
  // Opens `path`; throws std::runtime_error if it cannot be opened.
  explicit AttackCsvReader(const std::string& path, ParseOptions options = {});

  // Parses the next record into *out. Returns false at end of input.
  // Under ParsePolicy::kStrict, throws std::runtime_error (with a line
  // number and error kind) on malformed rows; under kSkip/kQuarantine the
  // row is counted in error_report() and reading continues.
  bool Next(AttackRecord* out);

  // Fast-forwards past raw lines (without parsing) until line_number()
  // reaches `line_no`, and restores the records-read counter - the resume
  // path after a checkpoint reload. The skipped region was already
  // validated by the pre-crash run, so its errors are not re-reported.
  void ResumeAt(std::size_t line_no, std::size_t records);

  // Count-based resume for non-seekable feeds (stdin): parses and discards
  // rows until `records` valid records have been consumed. Unlike ResumeAt
  // this cannot skip by raw line, so it re-parses the region - but it works
  // on a pipe, where the pre-checkpoint bytes arrive again only because the
  // producer replays them. Errors in the replayed region were reported by
  // the pre-crash run and are suppressed, not re-reported. The replay
  // rebuilds the seen-id set, so it needs no SeedSeenIds.
  void ResumeAtRecords(std::size_t records);

  // Restores the ids a checkpointed predecessor ingested, so a row after
  // the resume point repeating one of them is still a kDuplicateId. Call
  // after ResumeAt; a no-op under kStrict.
  void SeedSeenIds(common::IdSet ids);

  // Folds a checkpointed predecessor's error tallies into error_report()
  // (and the attached obs counters), making the reader the single source of
  // truth after a resume: the final report and the metrics exposition both
  // equal "uninterrupted run" counts with no double counting. Call after
  // ResumeAt/ResumeAtRecords.
  void SeedErrors(const IngestErrorReport& errors);

  std::size_t records_read() const { return records_; }
  std::size_t line_number() const { return line_no_; }
  const IngestErrorReport& error_report() const { return report_; }
  // The ddos_ids ingested so far (empty under kStrict) - what a checkpoint
  // saves for SeedSeenIds.
  const common::IdSet& seen_ids() const { return seen_ids_; }

 private:
  void ResolveMetrics();

  std::ifstream file_;  // engaged only by the path constructor
  std::istream* in_;
  ParseOptions options_;
  // Fixed by the policy at construction: ResumeAtRecords replays under a
  // temporary kSkip, and a strict reader must not start deduping then.
  bool dedupe_;
  IngestErrorReport report_;
  common::IdSet seen_ids_;
  std::size_t line_no_ = 0;
  std::size_t records_ = 0;
  bool header_skipped_ = false;
  // Scratch reused across Next() calls (hot-loop allocation avoidance).
  std::string line_;
  CsvTokenizer tokenizer_;
  // Resolved metric handles; all null when options_.metrics is null.
  obs::Counter* obs_records_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  std::array<obs::Counter*, kIngestErrorKindCount> obs_errors_{};
};

void WriteAttacksCsv(std::ostream& out, std::span<const AttackRecord> attacks);
std::vector<AttackRecord> ReadAttacksCsv(std::istream& in);
// Error-policy variant; per-kind tallies are added to *report if non-null.
std::vector<AttackRecord> ReadAttacksCsv(std::istream& in, ParseOptions options,
                                         IngestErrorReport* report = nullptr);

void WriteBotnetsCsv(std::ostream& out, std::span<const BotnetRecord> botnets);
std::vector<BotnetRecord> ReadBotnetsCsv(std::istream& in);

// Snapshots are flattened to one row per (time, family, bot_ip).
void WriteSnapshotsCsv(std::ostream& out, std::span<const SnapshotRecord> snaps);
std::vector<SnapshotRecord> ReadSnapshotsCsv(std::istream& in);

// Convenience: write/read the attack table to/from a file path.
void SaveAttacksCsv(const std::string& path, std::span<const AttackRecord> attacks);
std::vector<AttackRecord> LoadAttacksCsv(const std::string& path);

}  // namespace ddos::data

#endif  // DDOSCOPE_DATA_CSV_H_
