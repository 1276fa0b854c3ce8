#include "data/csv.h"

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.h"

namespace ddos::data {
namespace {

TEST(CsvLine, SimpleFields) {
  const auto f = ParseCsvLine("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(CsvLine, QuotedFieldWithComma) {
  const auto f = ParseCsvLine("a,\"x, y\",c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[1], "x, y");
}

TEST(CsvLine, EscapedQuote) {
  const auto f = ParseCsvLine("\"he said \"\"hi\"\"\",b");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "he said \"hi\"");
}

TEST(CsvLine, EmptyFields) {
  const auto f = ParseCsvLine(",,");
  ASSERT_EQ(f.size(), 3u);
  for (const auto& s : f) EXPECT_TRUE(s.empty());
}

TEST(CsvLine, UnterminatedQuoteIsFlagged) {
  bool unterminated = false;
  const auto f = ParseCsvLine("a,\"never closed,b", &unterminated);
  EXPECT_TRUE(unterminated);
  ASSERT_EQ(f.size(), 2u);  // the open quote swallows the rest of the line
  EXPECT_EQ(f[1], "never closed,b");

  unterminated = true;
  ParseCsvLine("a,\"closed\",b", &unterminated);
  EXPECT_FALSE(unterminated);
}

TEST(CsvLine, QuoteInsideUnquotedFieldIsLiteral) {
  // A quote only opens quoting at field start; mid-field it is data. Real
  // exports produce this (e.g. inch marks) and it must not derail parsing.
  bool unterminated = true;
  const auto f = ParseCsvLine("19\" rack,b,c", &unterminated);
  EXPECT_FALSE(unterminated);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "19\" rack");
  EXPECT_EQ(f[1], "b");
}

TEST(CsvLine, EmbeddedCarriageReturnInQuotedFieldSurvives) {
  const auto f = ParseCsvLine("a,\"line1\rline2\",c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[1], "line1\rline2");
}

TEST(CsvLine, EmptyTrailingFieldIsPreserved) {
  const auto f = ParseCsvLine("a,b,");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[2], "");
  const auto quoted = ParseCsvLine("a,b,\"\"");
  ASSERT_EQ(quoted.size(), 3u);
  EXPECT_EQ(quoted[2], "");
}

TEST(CsvEscape, OnlyQuotesWhenNeeded) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvEscape("with\"quote"), "\"with\"\"quote\"");
}

TEST(CsvEscape, RoundTripsThroughParse) {
  const std::string nasty = "a,\"b\"\nc";
  const auto f = ParseCsvLine(CsvEscape("x") + "," + CsvEscape("with,comma"));
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[1], "with,comma");
}

AttackRecord SampleAttack() {
  AttackRecord a;
  a.ddos_id = 42;
  a.botnet_id = 7;
  a.family = Family::kDirtjumper;
  a.category = Protocol::kHttp;
  a.target_ip = *net::IPv4Address::Parse("198.51.100.7");
  a.start_time = TimePoint::Parse("2012-09-01 10:00:00");
  a.end_time = TimePoint::Parse("2012-09-01 11:30:00");
  a.asn = net::Asn(65001);
  a.cc = "RU";
  a.city = "Moscow";
  a.location = {55.76, 37.62};
  a.organization = "RU-WebHosting-01";
  a.magnitude = 120;
  return a;
}

TEST(AttackCsv, SingleRecordRoundTrip) {
  const AttackRecord a = SampleAttack();
  std::stringstream ss;
  WriteAttacksCsv(ss, std::vector<AttackRecord>{a});
  const auto back = ReadAttacksCsv(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].ddos_id, a.ddos_id);
  EXPECT_EQ(back[0].botnet_id, a.botnet_id);
  EXPECT_EQ(back[0].family, a.family);
  EXPECT_EQ(back[0].category, a.category);
  EXPECT_EQ(back[0].target_ip, a.target_ip);
  EXPECT_EQ(back[0].start_time, a.start_time);
  EXPECT_EQ(back[0].end_time, a.end_time);
  EXPECT_EQ(back[0].asn, a.asn);
  EXPECT_EQ(back[0].cc, a.cc);
  EXPECT_EQ(back[0].city, a.city);
  EXPECT_NEAR(back[0].location.lat_deg, a.location.lat_deg, 1e-5);
  EXPECT_NEAR(back[0].location.lon_deg, a.location.lon_deg, 1e-5);
  EXPECT_EQ(back[0].organization, a.organization);
  EXPECT_EQ(back[0].magnitude, a.magnitude);
}

TEST(AttackCsv, CityWithCommaSurvives) {
  AttackRecord a = SampleAttack();
  a.city = "Washington, DC";
  std::stringstream ss;
  WriteAttacksCsv(ss, std::vector<AttackRecord>{a});
  const auto back = ReadAttacksCsv(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].city, "Washington, DC");
}

TEST(AttackCsv, TextFieldsNeedingQuotesRoundTrip) {
  // cc, city and organization are all free text to the parser, so the
  // writer must quote each of them whenever the parser would misread it.
  for (const std::string text :
       {"U,S", "U\"S", "\"US", "\"", "a,\"b\"", "\"\"x,"}) {
    AttackRecord a = SampleAttack();
    a.cc = text;
    a.city = text;
    a.organization = text;
    std::ostringstream out;
    WriteAttackCsvRow(out, a);
    std::string row = out.str();
    ASSERT_EQ(row.back(), '\n');
    row.pop_back();

    bool unterminated = true;
    EXPECT_EQ(ParseCsvLine(row, &unterminated).size(), 14u) << row;
    EXPECT_FALSE(unterminated) << row;
    AttackRecord back;
    IngestError err;
    ASSERT_TRUE(TryParseAttackLine(row, &back, &err)) << row << ": "
                                                      << err.detail;
    EXPECT_EQ(back.cc, text) << row;
    EXPECT_EQ(back.city, text) << row;
    EXPECT_EQ(back.organization, text) << row;
    EXPECT_EQ(back.ddos_id, a.ddos_id);
    EXPECT_EQ(back.magnitude, a.magnitude);
  }
}

// botnet_id, asn and magnitude are 32-bit columns: a value outside
// [0, 2^32-1] is rejected, not wrapped onto another botnet/AS/magnitude.
TEST(AttackCsv, RejectsThirtyTwoBitColumnsOutOfRange) {
  const auto row = [](const char* botnet, const char* asn, const char* mag) {
    return std::string("42,") + botnet +
           ",dirtjumper,HTTP,198.51.100.7,2012-09-01 10:00:00,"
           "2012-09-01 11:30:00," +
           asn + ",RU,Moscow,55.76,37.62,RU-WebHosting-01," + mag;
  };
  const struct {
    std::string line;
    const char* detail;
  } bad[] = {
      {row("4294967297", "65001", "120"), "bad botnet_id '4294967297'"},
      {row("-1", "65001", "120"), "bad botnet_id '-1'"},
      {row("7", "-3", "120"), "bad asn '-3'"},
      {row("7", "4294967296", "120"), "bad asn '4294967296'"},
      {row("7", "65001", "4294967296"), "bad magnitude '4294967296'"},
      {row("7", "65001", "-1"), "bad magnitude '-1'"},
  };
  for (const auto& c : bad) {
    AttackRecord out;
    IngestError err;
    EXPECT_FALSE(TryParseAttackLine(c.line, &out, &err)) << c.line;
    EXPECT_EQ(err.kind, IngestErrorKind::kUnparseableNumber) << c.line;
    EXPECT_EQ(err.detail, c.detail);
  }
  AttackRecord out;
  IngestError err;
  ASSERT_TRUE(TryParseAttackLine(row("4294967295", "4294967295", "4294967295"),
                                 &out, &err))
      << err.detail;
  EXPECT_EQ(out.botnet_id, 4294967295u);
  EXPECT_EQ(out.asn.value(), 4294967295u);
  EXPECT_EQ(out.magnitude, 4294967295u);
  ASSERT_TRUE(TryParseAttackLine(row("0", "0", "0"), &out, &err)) << err.detail;
  EXPECT_EQ(out.botnet_id, 0u);
}

TEST(AttackCsv, RejectsWrongFieldCount) {
  std::stringstream ss("header\n1,2,3\n");
  EXPECT_THROW(ReadAttacksCsv(ss), std::runtime_error);
}

TEST(AttackCsv, RejectsBadFamily) {
  const AttackRecord a = SampleAttack();
  std::stringstream ss;
  WriteAttacksCsv(ss, std::vector<AttackRecord>{a});
  std::string text = ss.str();
  const auto pos = text.find("dirtjumper");
  text.replace(pos, 10, "mirai-mini");
  std::stringstream bad(text);
  EXPECT_THROW(ReadAttacksCsv(bad), std::runtime_error);
}

TEST(AttackCsv, SkipsBlankLines) {
  const AttackRecord a = SampleAttack();
  std::stringstream ss;
  WriteAttacksCsv(ss, std::vector<AttackRecord>{a});
  std::stringstream padded(ss.str() + "\n\n");
  EXPECT_EQ(ReadAttacksCsv(padded).size(), 1u);
}

TEST(BotnetCsv, RoundTrip) {
  BotnetRecord b;
  b.botnet_id = 99;
  b.family = Family::kPandora;
  b.controller_ip = *net::IPv4Address::Parse("203.0.113.9");
  b.first_seen = TimePoint::Parse("2012-08-29");
  b.last_seen = TimePoint::Parse("2013-03-24");
  std::stringstream ss;
  WriteBotnetsCsv(ss, std::vector<BotnetRecord>{b});
  const auto back = ReadBotnetsCsv(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].botnet_id, 99u);
  EXPECT_EQ(back[0].family, Family::kPandora);
  EXPECT_EQ(back[0].controller_ip, b.controller_ip);
  EXPECT_EQ(back[0].last_seen, b.last_seen);
}

// botnet_id is a u32: ids outside [0, 2^32 - 1] are rejected with their
// line, not wrapped (4294967297 used to read back as 1, -1 as 4294967295).
TEST(BotnetCsv, OutOfRangeIdIsRejectedNotWrapped) {
  const std::string header =
      "botnet_id,family,controller_ip,first_seen,last_seen\n";
  const std::string rest =
      ",pandora,203.0.113.9,2012-08-29 00:00:00,2013-03-24 00:00:00\n";
  for (const char* id : {"4294967296", "4294967297", "-1"}) {
    SCOPED_TRACE(id);
    std::stringstream in(header + id + rest);
    try {
      ReadBotnetsCsv(in);
      FAIL() << "accepted botnet_id " << id;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("at line 2"), std::string::npos)
          << e.what();
    }
  }
  std::stringstream max_id(header + "4294967295" + rest);
  const auto back = ReadBotnetsCsv(max_id);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].botnet_id, 4294967295u);
}

TEST(SnapshotCsv, RoundTripGroupsRows) {
  std::vector<SnapshotRecord> snaps;
  snaps.push_back(SnapshotRecord{TimePoint(3600), Family::kNitol,
                                 {*net::IPv4Address::Parse("1.1.1.1"),
                                  *net::IPv4Address::Parse("2.2.2.2")}});
  snaps.push_back(SnapshotRecord{TimePoint(7200), Family::kNitol,
                                 {*net::IPv4Address::Parse("3.3.3.3")}});
  std::stringstream ss;
  WriteSnapshotsCsv(ss, snaps);
  const auto back = ReadSnapshotsCsv(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].bot_ips.size(), 2u);
  EXPECT_EQ(back[1].bot_ips.size(), 1u);
  EXPECT_EQ(back[0].time, TimePoint(3600));
}

TEST(AttackCsv, FullSyntheticDatasetRoundTrips) {
  const auto& ds = ::ddos::testing::SmallDataset();
  std::stringstream ss;
  WriteAttacksCsv(ss, ds.attacks());
  const auto back = ReadAttacksCsv(ss);
  ASSERT_EQ(back.size(), ds.attacks().size());
  for (std::size_t i = 0; i < back.size(); i += 97) {
    EXPECT_EQ(back[i].ddos_id, ds.attacks()[i].ddos_id);
    EXPECT_EQ(back[i].target_ip, ds.attacks()[i].target_ip);
    EXPECT_EQ(back[i].start_time, ds.attacks()[i].start_time);
    EXPECT_EQ(back[i].magnitude, ds.attacks()[i].magnitude);
  }
}

TEST(AttackCsv, CrlfParsesIdenticallyToLf) {
  const auto& ds = ::ddos::testing::SmallDataset();
  std::vector<AttackRecord> sample(ds.attacks().begin(),
                                   ds.attacks().begin() + 50);
  std::stringstream ss;
  WriteAttacksCsv(ss, sample);
  const std::string lf_text = ss.str();
  std::string crlf_text;
  crlf_text.reserve(lf_text.size() + sample.size() + 1);
  for (char c : lf_text) {
    if (c == '\n') crlf_text.push_back('\r');
    crlf_text.push_back(c);
  }

  std::stringstream lf(lf_text), crlf(crlf_text);
  const auto from_lf = ReadAttacksCsv(lf);
  const auto from_crlf = ReadAttacksCsv(crlf);
  ASSERT_EQ(from_crlf.size(), from_lf.size());
  for (std::size_t i = 0; i < from_lf.size(); ++i) {
    EXPECT_EQ(from_crlf[i].ddos_id, from_lf[i].ddos_id);
    EXPECT_EQ(from_crlf[i].organization, from_lf[i].organization);
    EXPECT_EQ(from_crlf[i].magnitude, from_lf[i].magnitude);
    EXPECT_EQ(from_crlf[i].end_time, from_lf[i].end_time);
  }
}

TEST(AttackCsv, CrlfWithoutTrailingNewlineParses) {
  const AttackRecord a = SampleAttack();
  std::stringstream ss;
  WriteAttacksCsv(ss, std::vector<AttackRecord>{a});
  std::string text = ss.str();
  for (std::size_t pos = 0; (pos = text.find('\n', pos)) != std::string::npos;
       pos += 2) {
    text.insert(pos, 1, '\r');
  }
  text.pop_back();  // drop the final LF; the last line ends in a bare '\r'
  std::stringstream in(text);
  const auto back = ReadAttacksCsv(in);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].cc, "RU");
  EXPECT_EQ(back[0].magnitude, a.magnitude);
}

TEST(BotnetCsv, CrlfRoundTrip) {
  std::stringstream in(
      "botnet_id,family,controller_ip,first_seen,last_seen\r\n"
      "7,pandora,203.0.113.9,2012-08-29 00:00:00,2013-03-24 00:00:00\r\n");
  const auto back = ReadBotnetsCsv(in);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].botnet_id, 7u);
  EXPECT_EQ(back[0].last_seen, TimePoint::Parse("2013-03-24"));
}

TEST(SnapshotCsv, CrlfRoundTrip) {
  std::stringstream in(
      "time,family,bot_ip\r\n"
      "1970-01-01 01:00:00,nitol,1.1.1.1\r\n"
      "1970-01-01 01:00:00,nitol,2.2.2.2\r\n");
  const auto back = ReadSnapshotsCsv(in);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].bot_ips.size(), 2u);
}

TEST(AttackCsvReader, StreamsRecordsOneAtATime) {
  const auto& ds = ::ddos::testing::SmallDataset();
  std::stringstream ss;
  WriteAttacksCsv(ss, ds.attacks());
  AttackCsvReader reader(ss);
  AttackRecord a;
  std::size_t i = 0;
  while (reader.Next(&a)) {
    ASSERT_LT(i, ds.attacks().size());
    EXPECT_EQ(a.ddos_id, ds.attacks()[i].ddos_id);
    EXPECT_EQ(a.start_time, ds.attacks()[i].start_time);
    ++i;
  }
  EXPECT_EQ(i, ds.attacks().size());
  EXPECT_EQ(reader.records_read(), ds.attacks().size());
}

TEST(AttackCsvReader, OpensFilesAndReportsLineNumbers) {
  const AttackRecord a = SampleAttack();
  const std::string path = ::testing::TempDir() + "/attacks_stream_test.csv";
  SaveAttacksCsv(path, std::vector<AttackRecord>{a});
  AttackCsvReader reader(path);
  AttackRecord back;
  ASSERT_TRUE(reader.Next(&back));
  EXPECT_EQ(back.ddos_id, a.ddos_id);
  EXPECT_EQ(reader.line_number(), 2u);  // header + first record
  EXPECT_FALSE(reader.Next(&back));
  EXPECT_THROW(AttackCsvReader("/nonexistent/dir/x.csv"), std::runtime_error);
}

TEST(AttackCsvReader, ThrowsWithLineNumberOnMalformedRow) {
  const AttackRecord a = SampleAttack();
  std::stringstream ss;
  WriteAttacksCsv(ss, std::vector<AttackRecord>{a});
  std::stringstream bad(ss.str() + "1,2,3\n");
  AttackCsvReader reader(bad);
  AttackRecord rec;
  EXPECT_TRUE(reader.Next(&rec));
  EXPECT_THROW(reader.Next(&rec), std::runtime_error);
}

TEST(AttackCsvReader, ResumeAtSkipsAlreadyConsumedLines) {
  const auto& ds = ::ddos::testing::SmallDataset();
  std::stringstream full;
  WriteAttacksCsv(full, ds.attacks());
  const std::string text = full.str();

  // Consume the first 100 records with one reader, note its position...
  std::stringstream first(text);
  AttackCsvReader head(first);
  AttackRecord a;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(head.Next(&a));

  // ...then a fresh reader over the same bytes resumes past them.
  std::stringstream second(text);
  AttackCsvReader resumed(second);
  resumed.ResumeAt(head.line_number(), head.records_read());
  ASSERT_TRUE(resumed.Next(&a));
  EXPECT_EQ(a.ddos_id, ds.attacks()[100].ddos_id);
  std::size_t i = 101;
  while (resumed.Next(&a)) ++i;
  EXPECT_EQ(i, ds.attacks().size());
  EXPECT_EQ(resumed.records_read(), ds.attacks().size());
}

TEST(CsvLine, ParseCsvLineIntoReusesFieldStorage) {
  std::vector<std::string> fields;
  bool unterminated = false;
  ParseCsvLineInto("a,\"x, y\",c", &fields, &unterminated);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "x, y");
  EXPECT_FALSE(unterminated);
  // A shorter line must shrink the vector and clear stale contents.
  ParseCsvLineInto("p,q", &fields, &unterminated);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "p");
  EXPECT_EQ(fields[1], "q");
  // Agreement with the allocating form on a quoted edge case.
  ParseCsvLineInto("\"he said \"\"hi\"\"\",b,", &fields, &unterminated);
  EXPECT_EQ(fields, ParseCsvLine("\"he said \"\"hi\"\"\",b,"));
}

// Regression for `ddoscope watch - --checkpoint`: stdin cannot seek, so
// resume must skip by record count (re-parsing the replayed prefix), not by
// raw line number.
TEST(AttackCsvReader, ResumeAtRecordsSkipsConsumedPrefixOnReplayedFeed) {
  const auto& ds = ::ddos::testing::SmallDataset();
  std::stringstream full;
  WriteAttacksCsv(full, ds.attacks());
  const std::string text = full.str();

  // First run consumed 100 records, then "crashed".
  std::stringstream first(text);
  AttackCsvReader head(first, ParseOptions::Skip());
  AttackRecord a;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(head.Next(&a));

  // The pipe replays the same bytes from the start; a count-based resume
  // lands exactly on record 101.
  std::stringstream replay(text);
  AttackCsvReader resumed(replay, ParseOptions::Skip());
  resumed.ResumeAtRecords(head.records_read());
  EXPECT_EQ(resumed.records_read(), 100u);
  ASSERT_TRUE(resumed.Next(&a));
  EXPECT_EQ(a.ddos_id, ds.attacks()[100].ddos_id);
  std::size_t i = 101;
  while (resumed.Next(&a)) ++i;
  EXPECT_EQ(i, ds.attacks().size());
  EXPECT_EQ(resumed.records_read(), ds.attacks().size());
}

TEST(AttackCsvReader, ResumeAtRecordsSuppressesReplayedErrors) {
  const auto& ds = ::ddos::testing::SmallDataset();
  std::stringstream full;
  WriteAttacksCsv(
      full, std::span<const AttackRecord>(ds.attacks().data(), 20));
  // Wedge garbage rows into the replayed region and one after it.
  std::vector<std::string> lines;
  {
    std::string line;
    std::stringstream src(full.str());
    while (std::getline(src, line)) lines.push_back(line);
  }
  lines.insert(lines.begin() + 5, "not,a,record");
  lines.insert(lines.begin() + 9, "also,not,a,record");
  lines.push_back("trailing,garbage");
  std::string text;
  for (const std::string& l : lines) text += l + "\n";

  std::stringstream replay(text);
  AttackCsvReader resumed(replay, ParseOptions::Skip());
  resumed.ResumeAtRecords(10);
  // Errors inside the replayed prefix were reported by the pre-crash run;
  // the resumed reader must not double-count them...
  EXPECT_EQ(resumed.error_report().total(), 0u);
  AttackRecord a;
  std::size_t read = 0;
  while (resumed.Next(&a)) {
    EXPECT_EQ(a.ddos_id, ds.attacks()[10 + read].ddos_id);
    ++read;
  }
  EXPECT_EQ(read, 10u);
  // ...but fresh errors past the resume point still count.
  EXPECT_EQ(resumed.error_report().total(), 1u);
}

// Line-layout drift between the original feed and the replay (here: the
// producer dropped the quarantined rows) breaks line-offset resume but not
// count-based resume.
TEST(AttackCsvReader, ResumeAtRecordsSurvivesLineLayoutDrift) {
  const auto& ds = ::ddos::testing::SmallDataset();
  std::stringstream clean;
  WriteAttacksCsv(
      clean, std::span<const AttackRecord>(ds.attacks().data(), 20));

  // The original run saw garbage interleaved (so its line numbers drifted).
  std::vector<std::string> lines;
  {
    std::string line;
    std::stringstream src(clean.str());
    while (std::getline(src, line)) lines.push_back(line);
  }
  lines.insert(lines.begin() + 3, "garbage,row");
  std::string dirty;
  for (const std::string& l : lines) dirty += l + "\n";
  std::stringstream first(dirty);
  AttackCsvReader head(first, ParseOptions::Skip());
  AttackRecord a;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(head.Next(&a));

  // The replay is the cleaned feed: same records, different line numbers.
  std::stringstream replay(clean.str());
  AttackCsvReader resumed(replay, ParseOptions::Skip());
  resumed.ResumeAtRecords(head.records_read());
  ASSERT_TRUE(resumed.Next(&a));
  EXPECT_EQ(a.ddos_id, ds.attacks()[10].ddos_id);
}

TEST(AttackCsv, FileSaveLoad) {
  const AttackRecord a = SampleAttack();
  const std::string path = ::testing::TempDir() + "/attacks_test.csv";
  SaveAttacksCsv(path, std::vector<AttackRecord>{a});
  const auto back = LoadAttacksCsv(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].ddos_id, a.ddos_id);
}

TEST(AttackCsv, LoadMissingFileThrows) {
  EXPECT_THROW(LoadAttacksCsv("/nonexistent/dir/x.csv"), std::runtime_error);
}

}  // namespace
}  // namespace ddos::data
