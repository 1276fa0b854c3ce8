// Typed ingestion-error taxonomy, error-policy selection, and quarantine.
//
// The paper's pipeline consumed a 207-day commercial monitoring feed; feeds
// of that kind arrive with torn writes, mangled fields, and duplicated rows,
// and a multi-day `ddoscope watch` run must not discard its state over one
// bad line. This header defines the failure vocabulary shared by the CSV
// readers, the fault injector, and the CLI:
//
//  * IngestErrorKind - every way a row can be rejected, one enumerator per
//    observable failure, so operators can tell a truncated transfer (lots of
//    kTruncatedLine) from an upstream schema drift (lots of kBadFieldCount).
//  * ParsePolicy - what the reader does on a bad row: kStrict throws (the
//    historical behavior and still the default), kSkip counts and drops,
//    kQuarantine counts and preserves the raw line for later replay.
//  * IngestErrorReport - per-kind counters accumulated by a reader.
//  * QuarantineWriter - writes each rejected line, prefixed by a '#' comment
//    carrying the line number and diagnosis; stripping '#' lines yields a
//    replayable CSV fragment.
#ifndef DDOSCOPE_DATA_INGEST_ERROR_H_
#define DDOSCOPE_DATA_INGEST_ERROR_H_

#include <array>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

namespace ddos::data {

enum class IngestErrorKind : std::uint8_t {
  kBadFieldCount = 0,       // wrong number of CSV fields
  kUnparseableNumber,       // numeric/enum/ip/coordinate field unreadable
  kUnterminatedQuote,       // line ended inside a quoted field
  kOutOfRangeTimestamp,     // timestamp malformed or outside [1970, 2100]
  kNegativeDuration,        // end_time earlier than timestamp
  kDuplicateId,             // ddos_id already ingested in this stream
  kTruncatedLine,           // stream ended mid-record (torn write) or the
                            // line exceeded the configured length cap
};

inline constexpr int kIngestErrorKindCount = 7;

std::string_view IngestErrorKindName(IngestErrorKind kind);

// One rejected row.
struct IngestError {
  IngestErrorKind kind = IngestErrorKind::kBadFieldCount;
  std::size_t line_no = 0;
  std::string detail;    // human-readable diagnosis ("bad integer field 7")
  std::string raw_line;  // the offending line, verbatim
};

// The exception text of a ParsePolicy::kStrict rejection,
// "CSV: <kind>: <detail> at line <n>" - one formatter, so every ingest
// path aborts with the same message for the same row.
std::string StrictErrorMessage(const IngestError& error);

enum class ParsePolicy : std::uint8_t {
  kStrict = 0,  // throw std::runtime_error on the first bad row
  kSkip,        // count the error and continue with the next row
  kQuarantine,  // count, write the raw line to the quarantine, continue
};

// Per-kind tallies for one ingestion run.
struct IngestErrorReport {
  std::array<std::uint64_t, kIngestErrorKindCount> counts{};

  void Add(IngestErrorKind kind) {
    ++counts[static_cast<std::size_t>(kind)];
  }
  std::uint64_t count(IngestErrorKind kind) const {
    return counts[static_cast<std::size_t>(kind)];
  }
  // Adds `other`'s tally of every kind to this one.
  void Merge(const IngestErrorReport& other) {
    for (std::size_t k = 0; k < counts.size(); ++k) counts[k] += other.counts[k];
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const std::uint64_t c : counts) t += c;
    return t;
  }
  // Multi-line "  kind: n" listing of the non-zero kinds; empty when clean.
  std::string ToString() const;
};

// Preserves rejected raw lines for offline inspection and replay. Each
// rejection becomes two lines:
//
//   # line 1742: unparseable-number: bad integer field 7
//   8841,12,Dirtjumper,syn,10.0.0.1,...,notanum,...
//
// so `grep -v '^#' quarantine.csv` (plus a header) is feedable back through
// the reader once the upstream defect is fixed.
//
// The path constructor follows the same stage-and-rename discipline as
// checkpoints (stream/checkpoint.h): lines accumulate in `path + ".tmp"`
// and Close() atomically renames the finished file into place, so `path`
// is only ever a complete quarantine. A failed write or rename removes the
// stage file instead of leaving a half-written .tmp behind; a crash
// mid-run leaves only the clearly-partial .tmp, never a truncated `path`.
class QuarantineWriter {
 public:
  // Stages to `path + ".tmp"`; throws std::runtime_error on failure.
  explicit QuarantineWriter(const std::string& path);
  // Writes to a caller-owned stream (kept alive by the caller). Close() is
  // then a flush; nothing is staged or renamed.
  explicit QuarantineWriter(std::ostream& out);
  // Best-effort Close(); errors are swallowed (the stage file, if any, is
  // still removed). Call Close() explicitly to observe failures.
  ~QuarantineWriter();

  QuarantineWriter(const QuarantineWriter&) = delete;
  QuarantineWriter& operator=(const QuarantineWriter&) = delete;

  void Write(const IngestError& error);

  // Publishes the staged file at its final path. Throws std::runtime_error
  // when any write or the rename failed - after deleting the .tmp file, so
  // a failure never leaves debris. Idempotent; Write after Close throws.
  void Close();

  std::size_t written() const { return written_; }

 private:
  std::string path_;      // final path ("" under the stream constructor)
  std::string tmp_path_;  // stage file ("" under the stream constructor)
  std::ofstream file_;    // engaged only by the path constructor
  std::ostream* out_;
  bool closed_ = false;
  std::size_t written_ = 0;
};

}  // namespace ddos::data

#endif  // DDOSCOPE_DATA_INGEST_ERROR_H_
