// Graceful drain and resume: a drain mid-feed final-ACKs the client
// (`ACK <n> drain`, its durable high-water mark), writes a checkpoint, and
// a `--resume` daemon fed the unacked tail reproduces an uninterrupted
// same-shard-count run bit-for-bit - sketches included, per the sharded
// engine's resume contract. The journal keeps every accepted row as
// received, so a journal-only resume reproduces rows a CSV re-render of
// the parsed record could not.
#include "netd/server.h"

#include <sys/socket.h>

#include <bit>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/taxonomy.h"
#include "netd/client.h"
#include "netd/socket.h"
#include "stream/sharded.h"
#include "test_support.h"

namespace ddos::netd {
namespace {

NetdConfig DrainConfig(const std::string& checkpoint) {
  NetdConfig config;
  config.shards = 2;
  config.limits.ack_every = 8;
  config.checkpoint_path = checkpoint;
  return config;
}

TEST(NetdDrain, DrainCheckpointResumeEqualsUninterruptedRun) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  ASSERT_GE(attacks.size(), 30u);
  const std::size_t cut = attacks.size() * 2 / 3;

  const std::string checkpoint =
      ::testing::TempDir() + "/netd_drain_ckpt.bin";
  std::remove(checkpoint.c_str());

  // First daemon: drained mid-feed, after `cut` records.
  std::uint64_t acked = 0;
  {
    IngestServer server(DrainConfig(checkpoint));
    server.Bind();
    std::thread loop([&server] { server.Run(); });

    FeedClient client("127.0.0.1", server.ingest_port());
    for (std::size_t i = 0; i < cut; ++i) client.SendRecord(attacks[i]);
    // PING syncs the feed into the engine, then the drain fires while the
    // connection is still open mid-feed (no END was sent).
    ASSERT_EQ(client.Ping(), cut);
    server.RequestDrain();
    // The final `ACK <n> drain` is the durable high-water mark.
    while (!client.ReadLine().empty()) {
    }
    acked = client.last_acked();
    loop.join();

    EXPECT_EQ(acked, cut);
    EXPECT_EQ(server.accepted_records(), cut);
    EXPECT_EQ(server.FinishAndSnapshot().attacks, cut);
    ASSERT_TRUE(std::ifstream(checkpoint).good())
        << "drain must leave a final checkpoint";
  }

  // Second daemon: --resume, fed the unacked tail [acked, N).
  NetdConfig resume_config = DrainConfig(checkpoint);
  resume_config.resume = true;
  IngestServer resumed(resume_config);
  resumed.Bind();
  EXPECT_EQ(resumed.accepted_records(), cut) << "resume restores the count";
  std::thread loop([&resumed] { resumed.Run(); });

  FeedClient tail("127.0.0.1", resumed.ingest_port());
  for (std::size_t i = acked; i < attacks.size(); ++i) {
    tail.SendRecord(attacks[i]);
  }
  EXPECT_EQ(tail.End(), attacks.size() - acked);
  resumed.RequestDrain();
  loop.join();
  EXPECT_EQ(resumed.accepted_records(), attacks.size());

  // Reference: one uninterrupted sharded run over the whole trace with the
  // same shard count.
  stream::ShardedStreamEngineConfig reference_config;
  reference_config.shards = 2;
  stream::ShardedStreamEngine reference(reference_config);
  for (const data::AttackRecord& a : attacks) reference.Push(a);
  reference.Finish();

  const stream::StreamSnapshot a = resumed.FinishAndSnapshot();
  const stream::StreamSnapshot b = reference.Snapshot();
  EXPECT_EQ(a.attacks, b.attacks);
  EXPECT_EQ(a.first_start, b.first_start);
  EXPECT_EQ(a.last_start, b.last_start);
  EXPECT_EQ(a.family_attacks, b.family_attacks);
  EXPECT_EQ(a.countries, b.countries);
  EXPECT_EQ(a.intervals.summary.count, b.intervals.summary.count);
  EXPECT_DOUBLE_EQ(a.intervals.fraction_concurrent,
                   b.intervals.fraction_concurrent);
  EXPECT_EQ(a.durations.summary.count, b.durations.summary.count);
  EXPECT_DOUBLE_EQ(a.durations.fraction_under_4h, b.durations.fraction_under_4h);
  EXPECT_EQ(a.collab.events, b.collab.events);
  EXPECT_EQ(a.collab.total_participants, b.collab.total_participants);
  EXPECT_EQ(a.attacks_in_window, b.attacks_in_window);
  EXPECT_DOUBLE_EQ(a.distinct_targets, b.distinct_targets);
  EXPECT_DOUBLE_EQ(a.distinct_botnets, b.distinct_botnets);
  // Same shard count: the resumed sketches are indistinguishable too.
  EXPECT_DOUBLE_EQ(a.durations.summary.median, b.durations.summary.median);
  EXPECT_DOUBLE_EQ(a.durations.p80_seconds, b.durations.p80_seconds);
  EXPECT_DOUBLE_EQ(a.intervals.summary.median, b.intervals.summary.median);
  EXPECT_DOUBLE_EQ(a.intervals.summary.mean, b.intervals.summary.mean);
  EXPECT_DOUBLE_EQ(a.durations.summary.stddev, b.durations.summary.stddev);

  std::remove(checkpoint.c_str());
}

TEST(NetdDrain, HealthzReports503WhileDraining) {
  // A drain with no clients completes immediately; this only checks that
  // the drain leaves the server cleanly even with zero connections.
  NetdConfig config;
  IngestServer server(config);
  server.Bind();
  std::thread loop([&server] { server.Run(); });
  server.RequestDrain();
  loop.join();
  EXPECT_EQ(server.accepted_records(), 0u);
  EXPECT_EQ(server.FinishAndSnapshot().attacks, 0u);
}

TEST(NetdDrain, PeriodicCheckpointWrittenDuringFeed) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  const std::string checkpoint =
      ::testing::TempDir() + "/netd_periodic_ckpt.bin";
  std::remove(checkpoint.c_str());

  NetdConfig config = DrainConfig(checkpoint);
  config.checkpoint_every = 10;  // every 10 accepted records
  IngestServer server(config);
  server.Bind();
  std::thread loop([&server] { server.Run(); });

  FeedClient client("127.0.0.1", server.ingest_port());
  for (std::size_t i = 0; i < 25; ++i) client.SendRecord(attacks[i]);
  ASSERT_EQ(client.Ping(), 25u);
  // The loop writes periodic checkpoints after dispatching replies, so the
  // first PONG can race the write; a second round trip cannot - the prior
  // iteration completed (checkpoint included) before this PING was read.
  ASSERT_EQ(client.Ping(), 25u);
  EXPECT_TRUE(std::ifstream(checkpoint).good());
  client.End();
  server.RequestDrain();
  loop.join();
  EXPECT_EQ(server.accepted_records(), 25u);
  server.FinishAndSnapshot();
  std::remove(checkpoint.c_str());
}

// `a` as a CSV row whose fields are CSV-escaped as usual, except those
// named in `raw`, whose text replaces the field verbatim.
std::string RowWith(const data::AttackRecord& a,
                    const std::map<std::size_t, std::string>& raw) {
  std::string line = FormatAttackLine(a);
  line.pop_back();  // '\n'
  const std::vector<std::string> fields = data::ParseCsvLine(line);
  std::string row;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) row += ',';
    const auto it = raw.find(i);
    row += it != raw.end() ? it->second : data::CsvEscape(fields[i]);
  }
  return row;
}

std::string Upper(std::string text) {
  for (char& c : text) c = static_cast<char>(std::toupper(c));
  return text;
}

void ExpectSameRecord(const data::AttackRecord& a, const data::AttackRecord& b,
                      std::size_t i) {
  EXPECT_EQ(a.ddos_id, b.ddos_id) << i;
  EXPECT_EQ(a.botnet_id, b.botnet_id) << i;
  EXPECT_EQ(a.family, b.family) << i;
  EXPECT_EQ(a.category, b.category) << i;
  EXPECT_EQ(a.target_ip, b.target_ip) << i;
  EXPECT_EQ(a.start_time, b.start_time) << i;
  EXPECT_EQ(a.end_time, b.end_time) << i;
  EXPECT_EQ(a.asn, b.asn) << i;
  EXPECT_EQ(a.cc, b.cc) << i;
  EXPECT_EQ(a.city, b.city) << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.location.lat_deg),
            std::bit_cast<std::uint64_t>(b.location.lat_deg)) << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.location.lon_deg),
            std::bit_cast<std::uint64_t>(b.location.lon_deg)) << i;
  EXPECT_EQ(a.organization, b.organization) << i;
  EXPECT_EQ(a.magnitude, b.magnitude) << i;
}

TEST(NetdDrain, JournalKeepsRowsAsReceivedAndResumeReproducesThem) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  ASSERT_GE(attacks.size(), 6u);
  // Field indices: 2 family, 3 protocol, 8 cc, 10 latitude, 11 longitude.
  const std::vector<std::string> session_rows = {
      RowWith(attacks[0], {{2, Upper(std::string(
                                   data::FamilyName(attacks[0].family)))},
                           {3, Upper(std::string(data::ProtocolName(
                                   attacks[0].category)))}}),
      RowWith(attacks[1], {{8, "\"U,S\""}}),
      RowWith(attacks[2], {{10, "12.3456789012"}, {11, "-45.678901234"}}),
      RowWith(attacks[3], {}),
  };
  const std::vector<std::string> plain_rows = {
      RowWith(attacks[4], {}),
      RowWith(attacks[5], {{8, "\"\"\"DE\""}}),  // the cc `"DE`
  };

  const std::string journal = ::testing::TempDir() + "/netd_fidelity.journal";
  std::remove(journal.c_str());
  NetdConfig config;
  config.shards = 2;
  config.journal_path = journal;

  stream::StreamSnapshot uninterrupted;
  {
    IngestServer server(config);
    server.Bind();
    std::thread loop([&server] { server.Run(); });

    // A session feed with CRLF line endings.
    FeedClient client("127.0.0.1", server.ingest_port());
    ASSERT_EQ(client.Resume("fidelity", 0), 0u);
    for (const std::string& row : session_rows) client.SendLine(row + "\r\n");
    EXPECT_EQ(client.End(), session_rows.size());

    // A sessionless feed whose final row has no newline: the daemon takes
    // it at EOF and closes, so reading EOF means both rows are committed.
    FdHandle raw = Connect("127.0.0.1", server.ingest_port());
    SetRecvTimeout(raw.get(), 10000);
    const std::string bytes = plain_rows[0] + "\r\n" + plain_rows[1];
    ASSERT_EQ(::send(raw.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    ::shutdown(raw.get(), SHUT_WR);
    char sink[64];
    while (::recv(raw.get(), sink, sizeof sink, 0) > 0) {
    }

    server.RequestDrain();
    loop.join();
    ASSERT_EQ(server.accepted_records(),
              session_rows.size() + plain_rows.size());
    uninterrupted = server.FinishAndSnapshot();
  }

  const JournalContents contents = ReadJournal(journal);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), session_rows.size() + plain_rows.size());
  std::vector<std::string> rows = session_rows;
  rows.insert(rows.end(), plain_rows.begin(), plain_rows.end());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    data::AttackRecord parsed;
    data::IngestError err;
    ASSERT_TRUE(data::TryParseAttackLine(rows[i], &parsed, &err)) << rows[i];
    ExpectSameRecord(contents.entries[i].record, parsed, i);
    // Each row's seq is its position on its connection (1-based).
    const bool in_session = i < session_rows.size();
    EXPECT_EQ(contents.entries[i].session, in_session ? "fidelity" : "") << i;
    EXPECT_EQ(contents.entries[i].seq,
              in_session ? i + 1 : i + 1 - session_rows.size()) << i;
  }
  EXPECT_EQ(contents.entries[1].record.cc, "U,S");
  EXPECT_EQ(contents.entries[5].record.cc, "\"DE");
  EXPECT_EQ(contents.session_high.at("fidelity"), session_rows.size());

  // A journal-only --resume rebuilds the uninterrupted run's engine.
  NetdConfig resume_config = config;
  resume_config.resume = true;
  IngestServer resumed(resume_config);
  resumed.Bind();
  EXPECT_EQ(resumed.replayed_records(), rows.size());
  std::thread loop([&resumed] { resumed.Run(); });
  resumed.RequestDrain();
  loop.join();
  const stream::StreamSnapshot a = resumed.FinishAndSnapshot();
  const stream::StreamSnapshot& b = uninterrupted;
  EXPECT_EQ(a.attacks, b.attacks);
  EXPECT_EQ(a.first_start, b.first_start);
  EXPECT_EQ(a.last_start, b.last_start);
  EXPECT_EQ(a.family_attacks, b.family_attacks);
  EXPECT_EQ(a.countries, b.countries);
  EXPECT_EQ(a.intervals.summary.count, b.intervals.summary.count);
  EXPECT_DOUBLE_EQ(a.intervals.summary.mean, b.intervals.summary.mean);
  EXPECT_EQ(a.durations.summary.count, b.durations.summary.count);
  EXPECT_DOUBLE_EQ(a.durations.summary.median, b.durations.summary.median);
  EXPECT_EQ(a.collab.events, b.collab.events);
  EXPECT_DOUBLE_EQ(a.distinct_targets, b.distinct_targets);
  EXPECT_DOUBLE_EQ(a.distinct_botnets, b.distinct_botnets);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace ddos::netd
