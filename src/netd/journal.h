// The daemon's write-ahead ingest journal.
//
// ddoscoped's exactly-once story hangs on one ordering rule: a record
// reaches the journal before it reaches the engine, and the ACK that
// covers it is flushed only after both. The journal is therefore the
// daemon's source of truth - after any crash, `journal state >= engine
// state >= client-visible ACKs`, and recovery replays the journal tail
// past the last checkpoint to rebuild the exact engine state and the
// per-session committed counts that RESUME handshakes are answered from.
//
// Format (version 2): one header line `#ddoscoped-journal v2`, then one
// line per accepted record:
//
//   <session-id>\t<session-seq>\t<attack CSV row>
//
// `session-id` is `-` for sessionless feeds (plain FeedClient / nc); their
// `session-seq` is the row's position on its connection, which no RESUME
// reads. The row is the line exactly as the daemon received and parsed it
// (framing terminator and one trailing '\r' stripped), not a re-render of
// the parsed record, so replay parses the same bytes the daemon ACKed:
// quoting, decimal digits and name spelling all survive. Version-1
// journals (bare attack CSV with header) are still readable so
// pre-existing archives replay.
//
// Batch atomicity: AppendRows writes a whole poll-tick's rows as one
// buffer and either all of it lands or none does - a failed or short
// write is undone by truncating back to the pre-batch size, so the
// journal is always record-aligned and its line order IS the engine push
// order (replay needs no dedup). Writes go through common/iohooks.h, so
// the chaos layer can serve ENOSPC/EIO/short writes here.
//
// Durability policy (--journal-fsync):
//   always   - fsync after every committed batch. Loss window on machine
//              crash: zero committed-and-ACKed records.
//   interval - fsync every `fsync_every` records and at checkpoints/drain.
//              Loss window on machine crash: up to fsync_every records.
//   off      - fsync only at checkpoints and drain. Loss window on machine
//              crash: everything since the last checkpoint.
// Process kill (kill -9) loses nothing under ANY policy: write(2)'d data
// survives the process; fsync only guards machine/kernel crashes.
#ifndef DDOSCOPE_NETD_JOURNAL_H_
#define DDOSCOPE_NETD_JOURNAL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/records.h"

namespace ddos::netd {

enum class FsyncPolicy : std::uint8_t { kAlways, kInterval, kOff };

std::string_view FsyncPolicyName(FsyncPolicy policy);
std::optional<FsyncPolicy> ParseFsyncPolicy(std::string_view text);

// One accepted row for Journal::AppendRows: the CSV row as received (no
// line terminator) and its session sequence number.
struct JournalRow {
  std::string_view row;
  std::uint64_t seq = 0;
};

class Journal {
 public:
  // Opens (creating or truncating; appending when `append_existing` and
  // the file exists) and writes the v2 header on fresh files. Throws
  // std::runtime_error when the file cannot be opened.
  Journal(const std::string& path, bool append_existing, FsyncPolicy policy,
          std::uint64_t fsync_every);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Appends one batch of rows, all-or-nothing: on any unrecoverable write
  // error the file is truncated back to its pre-batch size and the call
  // returns false (EINTR and short writes are retried/continued, not
  // errors). `session_id` may be empty (journaled as `-`). Each row is
  // written verbatim as `<session-id>\t<seq>\t<row>\n`, so a row must not
  // contain '\n' (framed lines never do).
  bool AppendRows(std::string_view session_id,
                  std::span<const JournalRow> rows);

  // Record form of AppendRows: renders each record as an attack CSV row
  // (data::WriteAttackCsvRow) and appends those. `records` pairs each
  // record with its session sequence number.
  bool AppendBatch(
      const std::string& session_id,
      const std::vector<std::pair<data::AttackRecord, std::uint64_t>>&
          records);

  // Forces an fsync now (checkpoint barrier / drain), regardless of
  // policy. Returns false when fsync itself failed (counted, non-fatal).
  bool Sync();

  std::uint64_t records_appended() const { return records_appended_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t append_failures() const { return append_failures_; }
  std::uint64_t fsyncs() const { return fsyncs_; }
  std::uint64_t fsync_failures() const { return fsync_failures_; }
  FsyncPolicy policy() const { return policy_; }

 private:
  bool WriteAll(const char* data, std::size_t len);
  void MaybePolicySync();

  int fd_ = -1;
  std::string buf_;  // one batch's bytes; reused so appends stop allocating
  FsyncPolicy policy_;
  std::uint64_t fsync_every_;
  std::uint64_t cur_size_ = 0;           // committed byte size of the file
  std::uint64_t records_appended_ = 0;
  std::uint64_t records_since_sync_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t append_failures_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t fsync_failures_ = 0;
};

// One replayed journal line.
struct JournalEntry {
  std::string session;  // "" for sessionless ("-") entries
  std::uint64_t seq = 0;
  data::AttackRecord record;
};

struct JournalContents {
  std::vector<JournalEntry> entries;  // exact ingest order
  // Highest committed sequence per session - the RESUME answer table.
  std::map<std::string, std::uint64_t> session_high;
  bool torn_tail = false;  // trailing unparseable line(s) were dropped
};

// Reads a v2 (or v1 CSV) journal. Unparseable trailing lines - a batch a
// kill interrupted mid-write - are dropped and flagged, never fatal.
// Throws std::runtime_error only when the file cannot be opened.
JournalContents ReadJournal(const std::string& path);

}  // namespace ddos::netd

#endif  // DDOSCOPE_NETD_JOURNAL_H_
