#include "netd/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/iohooks.h"
#include "common/strings.h"
#include "data/csv.h"

namespace ddos::netd {

namespace {

constexpr std::string_view kJournalHeader = "#ddoscoped-journal v2";

}  // namespace

std::string_view FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kOff: return "off";
  }
  return "unknown";
}

std::optional<FsyncPolicy> ParseFsyncPolicy(std::string_view text) {
  if (text == "always") return FsyncPolicy::kAlways;
  if (text == "interval") return FsyncPolicy::kInterval;
  if (text == "off") return FsyncPolicy::kOff;
  return std::nullopt;
}

Journal::Journal(const std::string& path, bool append_existing,
                 FsyncPolicy policy, std::uint64_t fsync_every)
    : policy_(policy), fsync_every_(fsync_every == 0 ? 1 : fsync_every) {
  int flags = O_WRONLY | O_CREAT;
  if (!append_existing) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("netd: cannot open journal " + path + ": " +
                             std::strerror(errno));
  }
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  cur_size_ = end > 0 ? static_cast<std::uint64_t>(end) : 0;
  if (cur_size_ == 0) {
    // Fresh file: the header travels outside AppendRows accounting, but
    // uses the same all-or-nothing discipline.
    std::string header(kJournalHeader);
    header.push_back('\n');
    if (!WriteAll(header.data(), header.size())) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("netd: cannot write journal header to " + path);
    }
    cur_size_ = header.size();
  }
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

bool Journal::WriteAll(const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = common::io_hooks()->Write(fd_, data + off, len - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // ENOSPC/EIO/...: caller undoes the partial batch
  }
  return true;
}

bool Journal::AppendRows(std::string_view session_id,
                         std::span<const JournalRow> rows) {
  if (fd_ < 0 || rows.empty()) return fd_ >= 0;
  const std::string_view sid = session_id.empty() ? "-" : session_id;
  buf_.clear();
  for (const JournalRow& r : rows) {
    char seq[20];  // max u64 has 20 digits
    char* const seq_end = std::to_chars(seq, seq + sizeof seq, r.seq).ptr;
    buf_.append(sid);
    buf_.push_back('\t');
    buf_.append(seq, seq_end);
    buf_.push_back('\t');
    buf_.append(r.row);
    buf_.push_back('\n');
  }
  if (!WriteAll(buf_.data(), buf_.size())) {
    ++append_failures_;
    // All-or-nothing: truncate back to the committed size so the file
    // stays record-aligned and replay order equals push order. The undo
    // uses the raw syscall - injected faults must not break the undo.
    [[maybe_unused]] const int rc =
        ::ftruncate(fd_, static_cast<off_t>(cur_size_));
    ::lseek(fd_, static_cast<off_t>(cur_size_), SEEK_SET);
    return false;
  }
  cur_size_ += buf_.size();
  bytes_written_ += buf_.size();
  records_appended_ += rows.size();
  records_since_sync_ += rows.size();
  MaybePolicySync();
  return true;
}

bool Journal::AppendBatch(
    const std::string& session_id,
    const std::vector<std::pair<data::AttackRecord, std::uint64_t>>& records) {
  std::ostringstream out;
  std::vector<std::size_t> ends;
  ends.reserve(records.size());
  for (const auto& [record, seq] : records) {
    data::WriteAttackCsvRow(out, record);
    ends.push_back(static_cast<std::size_t>(out.tellp()));
  }
  const std::string text = out.str();
  std::vector<JournalRow> rows;
  rows.reserve(records.size());
  std::size_t begin = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Each rendered row ends in '\n', which AppendRows adds back.
    rows.push_back({std::string_view(text).substr(begin, ends[i] - 1 - begin),
                    records[i].second});
    begin = ends[i];
  }
  return AppendRows(session_id, rows);
}

void Journal::MaybePolicySync() {
  if (policy_ == FsyncPolicy::kOff) return;
  if (policy_ == FsyncPolicy::kInterval &&
      records_since_sync_ < fsync_every_) {
    return;
  }
  Sync();
}

bool Journal::Sync() {
  if (fd_ < 0) return false;
  records_since_sync_ = 0;
  ++fsyncs_;
  for (;;) {
    if (common::io_hooks()->Fsync(fd_) == 0) return true;
    if (errno == EINTR) continue;
    // EIO here means the data may not be durable against a machine crash;
    // the journal<->engine ordering is unaffected, so ingest continues and
    // the failure is surfaced through counters/health instead of undoing
    // records that are already in the engine.
    ++fsync_failures_;
    return false;
  }
}

JournalContents ReadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("netd: cannot read journal " + path);
  }
  JournalContents contents;
  std::string line;
  bool first = true;
  bool v2 = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (first) {
      first = false;
      if (line == kJournalHeader) {
        v2 = true;
        continue;
      }
      // v1: bare attack CSV; tolerate (and skip) its header line.
      if (line.rfind("ddos_id,", 0) == 0) continue;
    }
    if (line.empty()) continue;
    JournalEntry entry;
    std::string row;
    if (v2) {
      const std::size_t t1 = line.find('\t');
      const std::size_t t2 =
          t1 == std::string::npos ? t1 : line.find('\t', t1 + 1);
      if (t2 == std::string::npos) {
        contents.torn_tail = true;
        continue;  // a line the crash tore; later lines cannot exist
      }
      const std::string sid = line.substr(0, t1);
      const auto seq = ParseInt64(line.substr(t1 + 1, t2 - t1 - 1));
      if (!seq.has_value() || *seq < 0) {
        contents.torn_tail = true;
        continue;
      }
      entry.session = sid == "-" ? std::string() : sid;
      entry.seq = static_cast<std::uint64_t>(*seq);
      row = line.substr(t2 + 1);
    } else {
      row = line;
    }
    data::IngestError err;
    if (!data::TryParseAttackLine(row, &entry.record, &err)) {
      contents.torn_tail = true;
      continue;
    }
    if (!entry.session.empty()) {
      auto& high = contents.session_high[entry.session];
      if (entry.seq > high) high = entry.seq;
    }
    contents.entries.push_back(std::move(entry));
  }
  return contents;
}

}  // namespace ddos::netd
