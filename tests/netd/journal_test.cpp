// Journal contract: v2 round trip in exact order, rows written byte for
// byte as given, per-session high-water marks for RESUME, all-or-nothing
// batches under injected write failures (row and record forms), torn-tail
// tolerance, v1 compatibility, and fsync policy cadence.
#include "netd/journal.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/iohooks.h"
#include "data/csv.h"
#include "test_support.h"

namespace ddos::netd {
namespace {

using Batch = std::vector<std::pair<data::AttackRecord, std::uint64_t>>;

Batch MakeBatch(std::size_t offset, std::size_t count,
                std::uint64_t first_seq) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  Batch batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.emplace_back(attacks[offset + i], first_seq + i);
  }
  return batch;
}

// Rows of attacks [offset, offset + count) as the daemon would hand them
// to AppendRows: CSV text without the line terminator. The strings own the
// bytes the JournalRow views point into.
struct RowBatch {
  std::vector<std::string> text;
  std::vector<JournalRow> rows;
};

RowBatch MakeRows(std::size_t offset, std::size_t count,
                  std::uint64_t first_seq) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  RowBatch batch;
  for (std::size_t i = 0; i < count; ++i) {
    std::ostringstream out;
    data::WriteAttackCsvRow(out, attacks[offset + i]);
    std::string row = out.str();
    row.pop_back();  // the '\n'
    batch.text.push_back(std::move(row));
  }
  for (std::size_t i = 0; i < count; ++i) {
    batch.rows.push_back({batch.text[i], first_seq + i});
  }
  return batch;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(Journal, RoundTripPreservesOrderSessionsAndSeqs) {
  const std::string path = TempPath("journal_roundtrip.csv");
  {
    Journal journal(path, /*append_existing=*/false, FsyncPolicy::kOff, 0);
    EXPECT_TRUE(journal.AppendBatch("alpha", MakeBatch(0, 3, 1)));
    EXPECT_TRUE(journal.AppendBatch("", MakeBatch(3, 2, 0)));  // sessionless
    EXPECT_TRUE(journal.AppendBatch("beta", MakeBatch(5, 4, 1)));
    EXPECT_TRUE(journal.AppendBatch("alpha", MakeBatch(9, 2, 4)));
    EXPECT_EQ(journal.records_appended(), 11u);
    EXPECT_EQ(journal.append_failures(), 0u);
  }

  const JournalContents contents = ReadJournal(path);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 11u);

  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  for (std::size_t i = 0; i < 11; ++i) {
    EXPECT_EQ(contents.entries[i].record.ddos_id, attacks[i].ddos_id) << i;
  }
  EXPECT_EQ(contents.entries[0].session, "alpha");
  EXPECT_EQ(contents.entries[0].seq, 1u);
  EXPECT_EQ(contents.entries[3].session, "");  // "-" maps back to empty
  EXPECT_EQ(contents.entries[5].session, "beta");
  EXPECT_EQ(contents.entries[10].seq, 5u);

  // The RESUME answer table: highest committed seq per session.
  ASSERT_EQ(contents.session_high.size(), 2u);
  EXPECT_EQ(contents.session_high.at("alpha"), 5u);
  EXPECT_EQ(contents.session_high.at("beta"), 4u);
  std::remove(path.c_str());
}

TEST(Journal, AppendRowsWritesEachRowVerbatim) {
  const std::string path = TempPath("journal_rows.csv");
  // Rows a record re-render could not reproduce: spelling, extra decimal
  // digits and quoting are kept exactly as given.
  const std::vector<std::string> text = {
      "1,2,DIRTJUMPER,HTTP,10.0.0.1,2012-09-01 10:00:00,2012-09-01 "
      "11:00:00,65001,\"U,S\",Moscow,55.7558260123,37.6172999871,Org,5",
      "3,4,pandora,udp,10.0.0.2,2012-09-01 10:00:00,2012-09-01 "
      "10:30:00,65002,\"\"\"RU\",\"a \"\"b\"\"\",1.5,2.25,\"x,y\",7"};
  {
    Journal journal(path, /*append_existing=*/false, FsyncPolicy::kOff, 0);
    const std::vector<JournalRow> first = {{text[0], 17}};
    const std::vector<JournalRow> second = {{text[1], 0}, {text[0], 18}};
    ASSERT_TRUE(journal.AppendRows("alpha", first));
    ASSERT_TRUE(journal.AppendRows("", second));  // sessionless: `-`
    EXPECT_EQ(journal.records_appended(), 3u);
  }
  EXPECT_EQ(FileBytes(path), "#ddoscoped-journal v2\n"
                             "alpha\t17\t" + text[0] + "\n"
                             "-\t0\t" + text[1] + "\n"
                             "-\t18\t" + text[0] + "\n");

  const JournalContents contents = ReadJournal(path);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 3u);
  EXPECT_EQ(contents.entries[0].record.cc, "U,S");
  EXPECT_EQ(contents.entries[0].record.location.lat_deg, 55.7558260123);
  EXPECT_EQ(contents.entries[1].record.cc, "\"RU");
  EXPECT_EQ(contents.entries[1].record.city, "a \"b\"");
  EXPECT_EQ(contents.entries[1].session, "");
  EXPECT_EQ(contents.session_high.at("alpha"), 17u);
  std::remove(path.c_str());
}

TEST(Journal, AppendExistingContinuesAfterReopen) {
  const std::string path = TempPath("journal_reopen.csv");
  {
    Journal journal(path, /*append_existing=*/false, FsyncPolicy::kOff, 0);
    ASSERT_TRUE(journal.AppendBatch("s", MakeBatch(0, 2, 1)));
  }
  {
    // The daemon's --resume path: reopen for append, no second header.
    Journal journal(path, /*append_existing=*/true, FsyncPolicy::kOff, 0);
    ASSERT_TRUE(journal.AppendBatch("s", MakeBatch(2, 2, 3)));
  }
  const JournalContents contents = ReadJournal(path);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 4u);
  EXPECT_EQ(contents.session_high.at("s"), 4u);
  std::remove(path.c_str());
}

// Write hook that fails with ENOSPC after a byte budget, optionally
// accepting a short prefix first - the torn-batch scenario.
class EnospcAfterHooks : public common::IoHooks {
 public:
  explicit EnospcAfterHooks(std::size_t budget) : budget_(budget) {}

  ssize_t Write(int fd, const void* buf, size_t len) override {
    if (budget_ == 0) {
      errno = ENOSPC;
      return -1;
    }
    const size_t allowed = len < budget_ ? len : budget_;
    const ssize_t n = common::IoHooks::Write(fd, buf, allowed);
    if (n > 0) budget_ -= static_cast<size_t>(n);
    return n;
  }

 private:
  std::size_t budget_;
};

TEST(Journal, FailedBatchIsInvisibleAllOrNothing) {
  const std::string path = TempPath("journal_enospc.csv");
  Journal journal(path, /*append_existing=*/false, FsyncPolicy::kOff, 0);
  ASSERT_TRUE(journal.AppendBatch("s", MakeBatch(0, 3, 1)));

  {
    // Accept ~40 bytes of the next batch, then ENOSPC: the partial write
    // must be truncated away, leaving the first batch byte-identical.
    EnospcAfterHooks hooks(40);
    common::IoHooks* prev = common::SetIoHooks(&hooks);
    EXPECT_FALSE(journal.AppendBatch("s", MakeBatch(3, 3, 4)));
    common::SetIoHooks(prev);
  }
  EXPECT_EQ(journal.append_failures(), 1u);
  EXPECT_EQ(journal.records_appended(), 3u);
  const std::string committed = FileBytes(path);

  {
    // The same undo through the row form: a torn row batch vanishes.
    const RowBatch batch = MakeRows(3, 3, 4);
    EnospcAfterHooks hooks(40);
    common::IoHooks* prev = common::SetIoHooks(&hooks);
    EXPECT_FALSE(journal.AppendRows("s", batch.rows));
    common::SetIoHooks(prev);
  }
  EXPECT_EQ(journal.append_failures(), 2u);
  EXPECT_EQ(journal.records_appended(), 3u);
  EXPECT_EQ(FileBytes(path), committed);

  // The journal stays parseable and record-aligned; a retried batch lands.
  ASSERT_TRUE(journal.AppendBatch("s", MakeBatch(3, 3, 4)));
  const RowBatch retry = MakeRows(6, 2, 7);
  ASSERT_TRUE(journal.AppendRows("s", retry.rows));
  const JournalContents contents = ReadJournal(path);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 8u);
  EXPECT_EQ(contents.session_high.at("s"), 8u);
  std::remove(path.c_str());
}

TEST(Journal, TornTailIsDroppedAndFlagged) {
  const std::string path = TempPath("journal_torn.csv");
  {
    Journal journal(path, /*append_existing=*/false, FsyncPolicy::kOff, 0);
    ASSERT_TRUE(journal.AppendBatch("s", MakeBatch(0, 2, 1)));
  }
  {
    // Simulate a kill mid-write: a final line cut off mid-record.
    std::ofstream out(path, std::ios::app);
    out << "s\t3\t999999,7,Dirtjum";  // no newline, truncated CSV
  }
  const JournalContents contents = ReadJournal(path);
  EXPECT_TRUE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 2u);
  EXPECT_EQ(contents.session_high.at("s"), 2u);
  std::remove(path.c_str());
}

TEST(Journal, ReadsVersion1BareCsvArchives) {
  const std::string path = TempPath("journal_v1.csv");
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  {
    std::ofstream out(path);
    out << data::AttackCsvHeader() << "\n";
    for (std::size_t i = 0; i < 5; ++i) {
      data::WriteAttackCsvRow(out, attacks[i]);
    }
  }
  const JournalContents contents = ReadJournal(path);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 5u);
  EXPECT_TRUE(contents.session_high.empty());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(contents.entries[i].record.ddos_id, attacks[i].ddos_id);
    EXPECT_EQ(contents.entries[i].session, "");
  }
  std::remove(path.c_str());
}

// Fsync-counting hook: verifies the per-policy sync cadence.
class CountFsyncHooks : public common::IoHooks {
 public:
  int Fsync(int fd) override {
    ++count;
    return common::IoHooks::Fsync(fd);
  }
  int count = 0;
};

TEST(Journal, FsyncPolicyCadence) {
  CountFsyncHooks hooks;
  common::IoHooks* prev = common::SetIoHooks(&hooks);

  {
    const std::string path = TempPath("journal_fsync_always.csv");
    Journal journal(path, false, FsyncPolicy::kAlways, 0);
    journal.AppendBatch("s", MakeBatch(0, 2, 1));
    journal.AppendBatch("s", MakeBatch(2, 2, 3));
    EXPECT_EQ(journal.fsyncs(), 2u);  // one per committed batch
    std::remove(path.c_str());
  }
  {
    const std::string path = TempPath("journal_fsync_interval.csv");
    Journal journal(path, false, FsyncPolicy::kInterval, 4);
    journal.AppendBatch("s", MakeBatch(0, 3, 1));
    EXPECT_EQ(journal.fsyncs(), 0u);  // 3 < 4: not yet
    journal.AppendBatch("s", MakeBatch(3, 3, 4));
    EXPECT_EQ(journal.fsyncs(), 1u);  // 6 >= 4: due
    std::remove(path.c_str());
  }
  {
    // The row form counts records, not batches, the same way.
    const std::string path = TempPath("journal_fsync_rows.csv");
    Journal journal(path, false, FsyncPolicy::kInterval, 4);
    const RowBatch a = MakeRows(0, 3, 1);
    const RowBatch b = MakeRows(3, 3, 4);
    journal.AppendRows("s", a.rows);
    EXPECT_EQ(journal.fsyncs(), 0u);  // 3 < 4: not yet
    journal.AppendRows("s", b.rows);
    EXPECT_EQ(journal.fsyncs(), 1u);  // 6 >= 4: due
    journal.AppendRows("s", a.rows);
    EXPECT_EQ(journal.fsyncs(), 1u);  // counter restarted: 3 < 4
    std::remove(path.c_str());
  }
  {
    const std::string path = TempPath("journal_fsync_always_rows.csv");
    Journal journal(path, false, FsyncPolicy::kAlways, 0);
    const RowBatch a = MakeRows(0, 2, 1);
    journal.AppendRows("s", a.rows);
    journal.AppendRows("s", a.rows);
    EXPECT_EQ(journal.fsyncs(), 2u);  // one per committed batch
    std::remove(path.c_str());
  }
  {
    const std::string path = TempPath("journal_fsync_off.csv");
    Journal journal(path, false, FsyncPolicy::kOff, 0);
    journal.AppendBatch("s", MakeBatch(0, 6, 1));
    EXPECT_EQ(journal.fsyncs(), 0u);
    EXPECT_TRUE(journal.Sync());  // explicit barrier still works
    EXPECT_EQ(journal.fsyncs(), 1u);
    std::remove(path.c_str());
  }

  common::SetIoHooks(prev);
  EXPECT_GE(hooks.count, 7);
}

TEST(Journal, PolicyNamesParseAndRoundTrip) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kAlways, FsyncPolicy::kInterval, FsyncPolicy::kOff}) {
    const std::string name(FsyncPolicyName(policy));
    const auto parsed = ParseFsyncPolicy(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").has_value());
  EXPECT_FALSE(ParseFsyncPolicy("").has_value());
}

}  // namespace
}  // namespace ddos::netd
