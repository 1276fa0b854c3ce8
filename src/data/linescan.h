// Zero-copy line scanning and the router-side attack-row pre-scan.
//
// The parse-in-shard pipeline (stream/sharded.h) splits AttackCsvReader's
// job in two: the router walks raw bytes and routes line *spans*; workers
// parse fields inside their shard. Two pieces live here:
//
//  * LineSpanScanner - iterates a memory-mapped (or otherwise stable)
//    buffer as CSV lines without copying: each LineSpan points into the
//    buffer with its 1-based line number, byte offset, and whether the
//    line was newline-terminated (a final line without one is the torn
//    write AttackCsvReader reports as kTruncatedLine). SeekTo() restores a
//    checkpointed byte offset, which is how span-based resume works.
//
//  * AttackLinePreScanner - the router's check of one line. It splits the
//    line with the full parse's CsvTokenizer (data/csv.h) and runs the
//    full parse's shape check and column checks on exactly the fields
//    routing needs: ddos_id (dup detection), botnet_id (the record shard
//    key), target_ip (the collab shard key) and both timestamps (the
//    global inter-attack gap).
//
// Pre-scan contract: a line the pre-scan rejects would also be rejected by
// the full TryParseAttackLine parse, with the same IngestErrorKind and
// detail when that line has a single defect (the same code reports it).
// With several defects the full parse reports the first in column order,
// which may be a family or protocol the pre-scan skips. The converse does
// not hold: a row can pass the pre-scan and still fail full parse in a
// worker (bad family/protocol/asn/coordinate/magnitude) - those are
// reported by the shard with the original line number. DESIGN.md
// ("parse-in-shard ingest") documents what that asymmetry means for
// interval statistics.
#ifndef DDOSCOPE_DATA_LINESCAN_H_
#define DDOSCOPE_DATA_LINESCAN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "data/csv.h"
#include "data/ingest_error.h"

namespace ddos::data {

// One raw input line, pointing into the scanner's backing buffer.
struct LineSpan {
  std::string_view text;      // the line, without its '\n' or "\r\n"
  std::size_t line_no = 0;    // 1-based, matching AttackCsvReader
  std::uint64_t offset = 0;   // byte offset of the line start in the buffer
  bool saw_newline = true;    // false only for an unterminated final line
};

// Splits a stable in-memory buffer into LineSpans. Handles LF and CRLF
// endings (the '\r' is excluded from the span, like ReadCsvLine strips
// it); a trailing line without a newline is yielded with
// saw_newline == false. The buffer must outlive every yielded span.
class LineSpanScanner {
 public:
  explicit LineSpanScanner(std::string_view buffer) : buffer_(buffer) {}

  // Yields the next line. Returns false at end of buffer.
  bool Next(LineSpan* out);

  // Byte offset of the first unread line - after a checkpoint barrier this
  // is the resume cursor to persist (CheckpointMeta::source_offset).
  std::uint64_t offset() const { return pos_; }
  // Lines yielded so far (equals the last span's line_no).
  std::size_t line_number() const { return line_no_; }

  // Repositions to a byte offset previously obtained from offset(), with
  // line numbering continuing from `line_no`. Offsets from a different
  // buffer are the caller's bug; an offset past the end simply yields EOF.
  void SeekTo(std::uint64_t offset, std::size_t line_no) {
    pos_ = offset;
    line_no_ = line_no;
  }

 private:
  std::string_view buffer_;
  std::uint64_t pos_ = 0;
  std::size_t line_no_ = 0;
};

// The routing-relevant fields of one attack row.
struct AttackLinePreScan {
  std::uint64_t ddos_id = 0;
  std::uint32_t botnet_id = 0;   // record shard key
  std::uint32_t target_bits = 0; // collab shard key (IPv4 host-order bits)
  std::int64_t start_s = 0;      // 'timestamp' column, epoch seconds
  std::int64_t end_s = 0;        // 'end_time' column
};

// Reusable: the tokenizer stops allocating once it has seen the widest
// line, so the router's steady state allocates nothing. Not thread-safe;
// one instance per routing thread.
class AttackLinePreScanner {
 public:
  // Returns true and fills *out when the line passes. On rejection fills
  // err->kind/detail (line_no/raw_line are the caller's, which knows its
  // feed position) and returns false.
  bool Scan(std::string_view line, AttackLinePreScan* out, IngestError* err);

 private:
  CsvTokenizer tokenizer_;
};

}  // namespace ddos::data

#endif  // DDOSCOPE_DATA_LINESCAN_H_
