// Line-span scanning and routing pre-scan tests: the input layer of the
// parse-in-shard pipeline. The scanner must attribute the same 1-based
// line numbers and byte offsets regardless of LF/CRLF endings or a torn
// final line, SeekTo must reproduce the tail of a scan exactly (the
// span-offset resume path), and AttackLinePreScanner must honor its
// contract with the full parse: a pre-scan rejection is always a full
// parse rejection with the same kind, and every simulated row passes both.
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/linescan.h"
#include "test_support.h"

namespace ddos::data {
namespace {

std::vector<LineSpan> ScanAll(std::string_view buffer) {
  LineSpanScanner scanner(buffer);
  std::vector<LineSpan> spans;
  LineSpan span;
  while (scanner.Next(&span)) spans.push_back(span);
  return spans;
}

TEST(LineSpanScanner, SplitsLfLinesWithOffsetsAndNumbers) {
  const std::string buffer = "alpha\nbeta\n\ngamma\n";
  const std::vector<LineSpan> spans = ScanAll(buffer);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].text, "alpha");
  EXPECT_EQ(spans[0].line_no, 1u);
  EXPECT_EQ(spans[0].offset, 0u);
  EXPECT_TRUE(spans[0].saw_newline);
  EXPECT_EQ(spans[1].text, "beta");
  EXPECT_EQ(spans[1].line_no, 2u);
  EXPECT_EQ(spans[1].offset, 6u);
  EXPECT_EQ(spans[2].text, "");  // blank line is still a line
  EXPECT_EQ(spans[2].line_no, 3u);
  EXPECT_EQ(spans[3].text, "gamma");
  EXPECT_EQ(spans[3].line_no, 4u);
  EXPECT_EQ(spans[3].offset, 12u);
}

TEST(LineSpanScanner, StripsCrOfCrlfButCountsItInOffsets) {
  const std::string buffer = "one\r\ntwo\r\nthree\n";
  const std::vector<LineSpan> spans = ScanAll(buffer);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].text, "one");  // no trailing '\r' in the span
  EXPECT_EQ(spans[1].text, "two");
  EXPECT_EQ(spans[1].offset, 5u);  // "one\r\n" is five bytes
  EXPECT_EQ(spans[2].text, "three");
  EXPECT_EQ(spans[2].offset, 10u);
}

TEST(LineSpanScanner, UnterminatedFinalLineReportsNoNewline) {
  const std::vector<LineSpan> spans = ScanAll("done\ntorn-tail");
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].saw_newline);
  EXPECT_EQ(spans[1].text, "torn-tail");
  EXPECT_FALSE(spans[1].saw_newline);
}

TEST(LineSpanScanner, EmptyBufferYieldsNothing) {
  LineSpanScanner scanner("");
  LineSpan span;
  EXPECT_FALSE(scanner.Next(&span));
  EXPECT_EQ(scanner.offset(), 0u);
  EXPECT_EQ(scanner.line_number(), 0u);
}

TEST(LineSpanScanner, OffsetIsAlwaysTheFirstUnreadByte) {
  const std::string buffer = "aa\nbbbb\r\ncc";
  LineSpanScanner scanner(buffer);
  LineSpan span;
  ASSERT_TRUE(scanner.Next(&span));
  EXPECT_EQ(scanner.offset(), 3u);
  ASSERT_TRUE(scanner.Next(&span));
  EXPECT_EQ(scanner.offset(), 9u);
  ASSERT_TRUE(scanner.Next(&span));
  EXPECT_EQ(scanner.offset(), buffer.size());
  EXPECT_FALSE(scanner.Next(&span));
}

// The resume contract: re-entering the buffer at a previously observed
// (offset, line_number) cursor yields exactly the spans an uninterrupted
// scan would have yielded from that point - for every cut position.
TEST(LineSpanScanner, SeekToReproducesTheTailFromEveryCut) {
  const std::string buffer = "h1\nrow-a\r\nrow-b\n\nrow-c";
  const std::vector<LineSpan> all = ScanAll(buffer);

  for (std::size_t cut = 0; cut <= all.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    LineSpanScanner prefix(buffer);
    LineSpan span;
    for (std::size_t i = 0; i < cut; ++i) ASSERT_TRUE(prefix.Next(&span));

    LineSpanScanner resumed(buffer);
    resumed.SeekTo(prefix.offset(), prefix.line_number());
    std::vector<LineSpan> tail;
    while (resumed.Next(&span)) tail.push_back(span);

    ASSERT_EQ(tail.size(), all.size() - cut);
    for (std::size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i].text, all[cut + i].text);
      EXPECT_EQ(tail[i].line_no, all[cut + i].line_no);
      EXPECT_EQ(tail[i].offset, all[cut + i].offset);
      EXPECT_EQ(tail[i].saw_newline, all[cut + i].saw_newline);
    }
  }
}

TEST(LineSpanScanner, SeekPastEndIsEof) {
  LineSpanScanner scanner("abc\n");
  scanner.SeekTo(100, 7);
  LineSpan span;
  EXPECT_FALSE(scanner.Next(&span));
}

std::string RowFor(const AttackRecord& record) {
  std::ostringstream out;
  WriteAttackCsvRow(out, record);
  std::string row = out.str();
  if (!row.empty() && row.back() == '\n') row.pop_back();
  return row;
}

TEST(AttackLinePreScanner, ExtractsExactlyTheRoutingFields) {
  const std::string line =
      "123456,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
      "2012-06-01 11:20:30,64500,US,\"Kansas City\",39.09,-94.57,"
      "ExampleOrg,1500";
  AttackLinePreScanner prescan;
  AttackLinePreScan scan;
  IngestError err;
  ASSERT_TRUE(prescan.Scan(line, &scan, &err)) << err.detail;

  AttackRecord record;
  ASSERT_TRUE(TryParseAttackLine(line, &record, &err)) << err.detail;
  EXPECT_EQ(scan.ddos_id, record.ddos_id);
  EXPECT_EQ(scan.botnet_id, record.botnet_id);
  EXPECT_EQ(scan.target_bits, record.target_ip.bits());
  EXPECT_EQ(scan.start_s, record.start_time.seconds());
  EXPECT_EQ(scan.end_s, record.end_time.seconds());
}

// Property over the whole simulated trace (quoted cities, every family and
// protocol, the full value ranges): each row passes the pre-scan, and the
// extracted routing fields agree with the fully parsed record.
TEST(AttackLinePreScanner, EverySimulatedRowPassesAndFieldsAgree) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  ASSERT_GT(attacks.size(), 100u);
  AttackLinePreScanner prescan;
  AttackLinePreScan scan;
  IngestError err;
  for (const AttackRecord& a : attacks) {
    const std::string line = RowFor(a);
    ASSERT_TRUE(prescan.Scan(line, &scan, &err))
        << line << ": " << err.detail;
    EXPECT_EQ(scan.ddos_id, a.ddos_id);
    EXPECT_EQ(scan.botnet_id, a.botnet_id);
    EXPECT_EQ(scan.target_bits, a.target_ip.bits());
    EXPECT_EQ(scan.start_s, a.start_time.seconds());
    EXPECT_EQ(scan.end_s, a.end_time.seconds());
  }
}

// The router/worker boundary contract (linescan.h): a line the pre-scan
// rejects must be rejected by the full parse too, with the same kind when
// the line has a single defect. Anything less and sharded ingest would
// tally errors differently from the single-threaded reader.
TEST(AttackLinePreScanner, RejectionsMatchTheFullParseKindForKind) {
  const struct {
    const char* label;
    std::string line;
    IngestErrorKind kind;
  } cases[] = {
      {"missing field",
       "123456,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
       "2012-06-01 11:20:30,64500,US,City,39.09,-94.57,ExampleOrg",
       IngestErrorKind::kBadFieldCount},
      {"bad ddos_id",
       "notanum,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
       "2012-06-01 11:20:30,64500,US,City,39.09,-94.57,ExampleOrg,1500",
       IngestErrorKind::kUnparseableNumber},
      {"botnet_id past 2^32",
       "123456,4294967297,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
       "2012-06-01 11:20:30,64500,US,City,39.09,-94.57,ExampleOrg,1500",
       IngestErrorKind::kUnparseableNumber},
      {"negative botnet_id",
       "123456,-1,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
       "2012-06-01 11:20:30,64500,US,City,39.09,-94.57,ExampleOrg,1500",
       IngestErrorKind::kUnparseableNumber},
      {"bad target_ip",
       "123456,77,dirtjumper,HTTP,999.0.113.9,2012-06-01 10:20:30,"
       "2012-06-01 11:20:30,64500,US,City,39.09,-94.57,ExampleOrg,1500",
       IngestErrorKind::kUnparseableNumber},
      {"unterminated quote",
       "123456,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
       "2012-06-01 11:20:30,64500,US,\"City,39.09,-94.57,ExampleOrg,1500",
       IngestErrorKind::kUnterminatedQuote},
      {"malformed timestamp",
       "123456,77,dirtjumper,HTTP,203.0.113.9,not-a-time,"
       "2012-06-01 11:20:30,64500,US,City,39.09,-94.57,ExampleOrg,1500",
       IngestErrorKind::kOutOfRangeTimestamp},
      {"timestamp past 2100",
       "123456,77,dirtjumper,HTTP,203.0.113.9,2150-06-01 10:20:30,"
       "2150-06-01 11:20:30,64500,US,City,39.09,-94.57,ExampleOrg,1500",
       IngestErrorKind::kOutOfRangeTimestamp},
      {"negative duration",
       "123456,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 11:20:30,"
       "2012-06-01 10:20:30,64500,US,City,39.09,-94.57,ExampleOrg,1500",
       IngestErrorKind::kNegativeDuration},
  };
  AttackLinePreScanner prescan;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    AttackLinePreScan scan;
    IngestError pre_err;
    EXPECT_FALSE(prescan.Scan(c.line, &scan, &pre_err));
    EXPECT_EQ(pre_err.kind, c.kind);

    AttackRecord record;
    IngestError full_err;
    EXPECT_FALSE(TryParseAttackLine(c.line, &record, &full_err));
    EXPECT_EQ(full_err.kind, c.kind);
  }
}

// The converse direction is deliberately weaker: defects in fields the
// router never looks at (family, protocol, asn, coordinates, magnitude)
// pass the pre-scan and are caught by the full parse inside a worker.
TEST(AttackLinePreScanner, WorkerOnlyDefectsPassThePreScan) {
  const std::string lines[] = {
      // unknown family
      "123456,77,nosuchfamily,HTTP,203.0.113.9,2012-06-01 10:20:30,"
      "2012-06-01 11:20:30,64500,US,City,39.09,-94.57,ExampleOrg,1500",
      // unknown protocol
      "123456,77,dirtjumper,CARRIERPIGEON,203.0.113.9,2012-06-01 10:20:30,"
      "2012-06-01 11:20:30,64500,US,City,39.09,-94.57,ExampleOrg,1500",
      // bad magnitude
      "123456,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
      "2012-06-01 11:20:30,64500,US,City,39.09,-94.57,ExampleOrg,notanum",
      // negative asn
      "123456,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
      "2012-06-01 11:20:30,-3,US,City,39.09,-94.57,ExampleOrg,1500",
      // magnitude past 2^32
      "123456,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
      "2012-06-01 11:20:30,64500,US,City,39.09,-94.57,ExampleOrg,4294967296",
      // latitude off the planet
      "123456,77,dirtjumper,HTTP,203.0.113.9,2012-06-01 10:20:30,"
      "2012-06-01 11:20:30,64500,US,City,91.5,-94.57,ExampleOrg,1500",
  };
  AttackLinePreScanner prescan;
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    AttackLinePreScan scan;
    IngestError err;
    EXPECT_TRUE(prescan.Scan(line, &scan, &err)) << err.detail;
    AttackRecord record;
    EXPECT_FALSE(TryParseAttackLine(line, &record, &err));
    EXPECT_EQ(err.kind, IngestErrorKind::kUnparseableNumber);
  }
}

}  // namespace
}  // namespace ddos::data
