// Parse-in-shard ingest tests: the PushLine span path must be externally
// indistinguishable from AttackCsvReader + Push for every shard count -
// identical exact tallies on a clean feed, identical per-kind error
// reports and byte-identical quarantine output on a dirty feed (the
// determinism the ISSUE requires across K in {1, 2, 8}), the reader's
// exact strict-mode exception for both router- and worker-detected
// rejections, and span-offset checkpoint resume that reproduces an
// uninterrupted run bit-for-bit.
#include <algorithm>
#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/ingest_error.h"
#include "data/linescan.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"
#include "stream/sharded.h"
#include "test_support.h"

namespace ddos::stream {
namespace {

std::string CleanFeedText(std::size_t records) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  std::ostringstream out;
  data::WriteAttacksCsv(
      out, std::span(attacks.data(), std::min(records, attacks.size())));
  return out.str();
}

// A feed with one defect of every interesting class at a known line.
// Lines: 1 header, 2..61 valid rows, then (in order) a bad-field-count
// row, a bad-family row (worker-detected: it passes the router's
// pre-scan), a duplicate of the first row, a blank line, more valid rows,
// and a torn final line.
struct DirtyFeed {
  std::string text;
  std::size_t bad_field_line = 0;
  std::size_t bad_family_line = 0;
  std::size_t duplicate_line = 0;
  std::size_t torn_line = 0;
};

DirtyFeed MakeDirtyFeed() {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  DirtyFeed feed;
  std::ostringstream out;
  data::WriteAttacksCsv(out, std::span(attacks.data(), 60));
  std::size_t line = 61;  // header + 60 rows written so far

  out << "only,five,fields,in,total\n";
  feed.bad_field_line = ++line;

  std::ostringstream row;
  data::WriteAttackCsvRow(row, attacks[60]);
  std::string bad_family = row.str();
  // Swap the family column (third field) for an unknown name.
  const std::size_t p0 = bad_family.find(',', bad_family.find(',') + 1) + 1;
  const std::size_t p1 = bad_family.find(',', p0);
  bad_family.replace(p0, p1 - p0, "nosuchfamily");
  out << bad_family;
  feed.bad_family_line = ++line;

  std::ostringstream dup;
  data::WriteAttackCsvRow(dup, attacks[0]);
  out << dup.str();
  feed.duplicate_line = ++line;

  out << "\n";
  ++line;  // blank: skipped silently, but still numbered

  for (std::size_t i = 61; i < 80; ++i) {
    std::ostringstream r;
    data::WriteAttackCsvRow(r, attacks[i]);
    out << r.str();
    ++line;
  }

  std::ostringstream torn;
  data::WriteAttackCsvRow(torn, attacks[80]);
  const std::string torn_row = torn.str();
  out << torn_row.substr(0, torn_row.size() / 2);  // no newline, cut mid-row
  feed.torn_line = ++line;

  feed.text = out.str();
  return feed;
}

// Reference ingest: the single-threaded reader path over the same bytes.
struct ReaderRun {
  StreamSnapshot snapshot;
  std::uint64_t records = 0;
  data::IngestErrorReport report;
  std::string quarantine;
};

ReaderRun RunReader(const std::string& text) {
  ReaderRun run;
  std::ostringstream qout;
  data::QuarantineWriter quarantine(qout);
  data::ParseOptions options = data::ParseOptions::Quarantine(&quarantine);
  std::istringstream in(text);
  data::AttackCsvReader reader(in, options);
  StreamEngine engine;
  data::AttackRecord a;
  while (reader.Next(&a)) engine.Push(a);
  engine.Finish();
  quarantine.Close();
  run.snapshot = engine.Snapshot();
  run.records = reader.records_read();
  run.report = reader.error_report();
  run.quarantine = qout.str();
  return run;
}

// Span ingest: PushLine over LineSpanScanner spans, like the watch CLI's
// mmap path (the in-memory string stands in for the mapping).
struct SpanRun {
  StreamSnapshot snapshot;
  std::uint64_t records = 0;
  data::IngestErrorReport report;
  std::string quarantine;
};

SpanRun RunSpans(const std::string& text, std::size_t shards) {
  SpanRun run;
  ShardedStreamEngineConfig config;
  config.shards = shards;
  config.parse.policy = data::ParsePolicy::kQuarantine;
  ShardedStreamEngine engine(config);
  data::LineSpanScanner scanner(text);
  data::LineSpan span;
  while (scanner.Next(&span)) {
    if (span.line_no == 1) continue;  // header
    engine.PushLine(span.text, span.line_no, span.saw_newline);
  }
  run.records = engine.ParsedRecords();
  engine.Finish();
  run.report = engine.ErrorReport();
  std::ostringstream qout;
  data::QuarantineWriter quarantine(qout);
  for (const data::IngestError& e : engine.DrainErrors()) quarantine.Write(e);
  quarantine.Close();
  run.quarantine = qout.str();
  run.snapshot = engine.Snapshot();
  return run;
}

// Everything except the interval value statistics (see below).
void ExpectNonIntervalFieldsIdentical(const StreamSnapshot& got,
                                      const StreamSnapshot& want) {
  EXPECT_EQ(got.attacks, want.attacks);
  EXPECT_EQ(got.first_start, want.first_start);
  EXPECT_EQ(got.last_start, want.last_start);
  EXPECT_EQ(got.family_attacks, want.family_attacks);
  EXPECT_EQ(got.countries, want.countries);
  EXPECT_EQ(got.intervals.summary.count, want.intervals.summary.count);
  EXPECT_EQ(got.durations.summary.count, want.durations.summary.count);
  EXPECT_DOUBLE_EQ(got.durations.fraction_under_4h,
                   want.durations.fraction_under_4h);
  EXPECT_EQ(got.collab.events, want.collab.events);
  EXPECT_EQ(got.collab.intra_family_events, want.collab.intra_family_events);
  EXPECT_EQ(got.collab.inter_family_events, want.collab.inter_family_events);
  EXPECT_EQ(got.collab.total_participants, want.collab.total_participants);
  EXPECT_DOUBLE_EQ(got.distinct_targets, want.distinct_targets);
  EXPECT_DOUBLE_EQ(got.distinct_botnets, want.distinct_botnets);
  EXPECT_DOUBLE_EQ(got.durations.summary.min, want.durations.summary.min);
  EXPECT_DOUBLE_EQ(got.durations.summary.max, want.durations.summary.max);
}

void ExpectExactFieldsIdentical(const StreamSnapshot& got,
                                const StreamSnapshot& want) {
  ExpectNonIntervalFieldsIdentical(got, want);
  EXPECT_DOUBLE_EQ(got.intervals.fraction_concurrent,
                   want.intervals.fraction_concurrent);
  EXPECT_DOUBLE_EQ(got.intervals.fraction_1k_10k,
                   want.intervals.fraction_1k_10k);
  // Welford moments merge algebraically; allow float reassociation.
  EXPECT_NEAR(got.intervals.summary.mean, want.intervals.summary.mean,
              1e-6 * (1.0 + want.intervals.summary.mean));
}

TEST(SpanIngest, CleanFeedMatchesReaderPathForEveryShardCount) {
  const std::string text = CleanFeedText(500);
  const ReaderRun reference = RunReader(text);
  ASSERT_EQ(reference.report.total(), 0u);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE(shards);
    const SpanRun run = RunSpans(text, shards);
    EXPECT_EQ(run.records, reference.records);
    EXPECT_EQ(run.report.total(), 0u);
    EXPECT_TRUE(run.quarantine.empty());
    ExpectExactFieldsIdentical(run.snapshot, reference.snapshot);
  }
}

TEST(SpanIngest, DirtyFeedErrorsAreDeterministicAcrossShardCounts) {
  const DirtyFeed feed = MakeDirtyFeed();
  const ReaderRun reference = RunReader(feed.text);
  // The planted defects, as the reader tallies them.
  EXPECT_EQ(reference.report.count(data::IngestErrorKind::kBadFieldCount), 1u);
  EXPECT_EQ(reference.report.count(data::IngestErrorKind::kUnparseableNumber),
            1u);
  EXPECT_EQ(reference.report.count(data::IngestErrorKind::kDuplicateId), 1u);
  EXPECT_EQ(reference.report.count(data::IngestErrorKind::kTruncatedLine), 1u);
  EXPECT_EQ(reference.report.total(), 4u);
  // Quarantine carries each planted line number.
  for (const std::size_t line :
       {feed.bad_field_line, feed.bad_family_line, feed.duplicate_line,
        feed.torn_line}) {
    EXPECT_NE(reference.quarantine.find("line " + std::to_string(line)),
              std::string::npos)
        << reference.quarantine;
  }

  // The span path's own reference: determinism across shard counts is
  // measured against K=1 over the same bytes.
  const SpanRun span_reference = RunSpans(feed.text, 1);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE(shards);
    const SpanRun run = RunSpans(feed.text, shards);
    EXPECT_EQ(run.records, reference.records);
    EXPECT_EQ(run.report.counts, reference.report.counts);
    // Byte-identical quarantine: same lines, same order, same diagnoses -
    // worker-detected rejections (the bad-family row) included, even
    // though they are buffered on whichever shard parsed them.
    EXPECT_EQ(run.quarantine, reference.quarantine);
    // Interval VALUE statistics are the one documented divergence from
    // the reader on a feed with worker-detected rejections (DESIGN.md,
    // parse-in-shard ingest): the bad-family row passes the router's
    // pre-scan, so the global gap chain advances over it, while the
    // reader path computes the next gap against the last fully-valid
    // row. Counts still agree; the one interval spanning the rejected
    // row takes a different value.
    ExpectNonIntervalFieldsIdentical(run.snapshot, reference.snapshot);
    // The span path itself is deterministic: every shard count is
    // bit-identical to K=1, interval statistics included.
    ExpectExactFieldsIdentical(run.snapshot, span_reference.snapshot);
  }
}

TEST(SpanIngest, DrainErrorsIsSortedAndConsumes) {
  const DirtyFeed feed = MakeDirtyFeed();
  ShardedStreamEngineConfig config;
  config.shards = 4;
  config.parse.policy = data::ParsePolicy::kSkip;
  ShardedStreamEngine engine(config);
  data::LineSpanScanner scanner(feed.text);
  data::LineSpan span;
  while (scanner.Next(&span)) {
    if (span.line_no == 1) continue;
    engine.PushLine(span.text, span.line_no, span.saw_newline);
  }
  engine.Finish();
  const std::vector<data::IngestError> errors = engine.DrainErrors();
  ASSERT_EQ(errors.size(), 4u);
  for (std::size_t i = 1; i < errors.size(); ++i) {
    EXPECT_LT(errors[i - 1].line_no, errors[i].line_no);
  }
  EXPECT_EQ(errors[0].line_no, feed.bad_field_line);
  EXPECT_EQ(errors[1].line_no, feed.bad_family_line);
  EXPECT_EQ(errors[1].kind, data::IngestErrorKind::kUnparseableNumber);
  EXPECT_EQ(errors[2].line_no, feed.duplicate_line);
  EXPECT_EQ(errors[3].line_no, feed.torn_line);
  EXPECT_EQ(errors[3].kind, data::IngestErrorKind::kTruncatedLine);
  // Under kSkip no raw lines are kept (quarantine-only payload).
  for (const data::IngestError& e : errors) EXPECT_TRUE(e.raw_line.empty());
  // Tallies are unaffected by draining; the buffer is consumed.
  EXPECT_EQ(engine.ErrorReport().total(), 4u);
  EXPECT_TRUE(engine.DrainErrors().empty());
}

// Strict mode must throw the reader's exact exception text. For a
// router-detected defect the throw is immediate; for a worker-detected one
// it surfaces at the next PushLine or at Finish, still attributed to the
// earliest offending line.
TEST(SpanIngest, StrictModeThrowsTheReaderExactMessage) {
  const DirtyFeed feed = MakeDirtyFeed();

  // Reference message: the strict reader over the same bytes.
  std::string reader_message;
  try {
    std::istringstream in(feed.text);
    data::AttackCsvReader reader(in);  // default strict
    data::AttackRecord a;
    while (reader.Next(&a)) {
    }
    FAIL() << "reader accepted the dirty feed";
  } catch (const std::runtime_error& e) {
    reader_message = e.what();
  }
  EXPECT_NE(
      reader_message.find("at line " + std::to_string(feed.bad_field_line)),
      std::string::npos)
      << reader_message;

  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    ShardedStreamEngineConfig config;
    config.shards = shards;
    ShardedStreamEngine engine(config);  // parse defaults to kStrict
    data::LineSpanScanner scanner(feed.text);
    data::LineSpan span;
    std::string span_message;
    try {
      while (scanner.Next(&span)) {
        if (span.line_no == 1) continue;
        engine.PushLine(span.text, span.line_no, span.saw_newline);
      }
      engine.Finish();
      FAIL() << "span path accepted the dirty feed";
    } catch (const std::runtime_error& e) {
      span_message = e.what();
    }
    EXPECT_EQ(span_message, reader_message);
  }
}

// Swaps the family column (third field) of a rendered row for an unknown
// name: a defect only the worker's full parse detects.
std::string WithUnknownFamily(std::string row) {
  const std::size_t p0 = row.find(',', row.find(',') + 1) + 1;
  row.replace(p0, row.find(',', p0) - p0, "nosuchfamily");
  return row;
}

// A repeated ddos_id on a row that also fails the full parse is rejected
// for that failure, as the reader rejects it (it checks every column before
// the id). FaultInjector's additive faults emit exactly such rows: a
// corrupted copy right after its original.
TEST(SpanIngest, RepeatedIdWithAColumnDefectIsRejectedForTheDefect) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  std::ostringstream out;
  data::WriteAttacksCsv(out, std::span(attacks.data(), 30));
  std::ostringstream row;
  data::WriteAttackCsvRow(row, attacks[3]);
  out << WithUnknownFamily(row.str());  // repeat + bad family
  out << row.str();                     // plain repeat
  // Torn final line: the repeat cut before its magnitude, no newline.
  out << row.str().substr(0, row.str().rfind(',') + 1);
  const std::string text = out.str();

  const ReaderRun reference = RunReader(text);
  EXPECT_EQ(reference.report.count(data::IngestErrorKind::kUnparseableNumber),
            1u);
  EXPECT_EQ(reference.report.count(data::IngestErrorKind::kDuplicateId), 1u);
  EXPECT_EQ(reference.report.count(data::IngestErrorKind::kTruncatedLine), 1u);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE(shards);
    const SpanRun run = RunSpans(text, shards);
    EXPECT_EQ(run.records, reference.records);
    EXPECT_EQ(run.report.counts, reference.report.counts);
    EXPECT_EQ(run.quarantine, reference.quarantine);
  }
}

// A row the worker rejects does not claim its id: a later valid row with
// the same id is that id's first valid row, as in the reader, which only
// records the ids of rows that parse. The repeat takes a barrier so the
// router learns of the rejection before it decides.
TEST(SpanIngest, AWorkerRejectedRowDoesNotHideALaterRowWithItsId) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  std::uint64_t max_id = 0;
  for (const data::AttackRecord& a : attacks) {
    max_id = std::max(max_id, a.ddos_id);
  }
  std::ostringstream out;
  data::WriteAttacksCsv(out, std::span(attacks.data(), 30));
  data::AttackRecord fresh = attacks[30];
  fresh.ddos_id = max_id + 1;
  std::ostringstream row;
  data::WriteAttackCsvRow(row, fresh);
  out << WithUnknownFamily(row.str());  // worker-detected, fresh id
  out << row.str();                     // the same id, valid
  for (std::size_t i = 31; i < 50; ++i) {
    std::ostringstream r;
    data::WriteAttackCsvRow(r, attacks[i]);
    out << r.str();
  }
  const std::string text = out.str();

  const ReaderRun reference = RunReader(text);
  EXPECT_EQ(reference.records, 50u);
  EXPECT_EQ(reference.report.total(), 1u);
  EXPECT_EQ(reference.report.count(data::IngestErrorKind::kDuplicateId), 0u);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE(shards);
    const SpanRun run = RunSpans(text, shards);
    EXPECT_EQ(run.records, reference.records);
    EXPECT_EQ(run.report.counts, reference.report.counts);
    EXPECT_EQ(run.quarantine, reference.quarantine);
    ExpectNonIntervalFieldsIdentical(run.snapshot, reference.snapshot);
  }
}

// Under kStrict the earliest bad line aborts the run, as in the reader,
// even when it is worker-detected and a router-detected defect follows
// while the earlier line may still sit unparsed in a ring.
TEST(SpanIngest, StrictAbortNamesAnEarlierWorkerDefectBeforeALaterRouterOne) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  std::ostringstream out;
  data::WriteAttacksCsv(out, std::span(attacks.data(), 20));
  std::ostringstream row;
  data::WriteAttackCsvRow(row, attacks[20]);
  out << WithUnknownFamily(row.str());    // line 22: worker-detected
  out << "only,five,fields,in,total\n";  // line 23: router-detected
  for (std::size_t i = 21; i < 40; ++i) {
    std::ostringstream r;
    data::WriteAttackCsvRow(r, attacks[i]);
    out << r.str();
  }
  const std::string text = out.str();

  std::string reader_message;
  try {
    std::istringstream in(text);
    data::AttackCsvReader reader(in);
    data::AttackRecord a;
    while (reader.Next(&a)) {
    }
    FAIL();
  } catch (const std::runtime_error& e) {
    reader_message = e.what();
  }
  ASSERT_NE(reader_message.find("at line 22"), std::string::npos);

  for (const std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE(shards);
    ShardedStreamEngineConfig config;
    config.shards = shards;
    ShardedStreamEngine engine(config);
    data::LineSpanScanner scanner(text);
    data::LineSpan span;
    std::string span_message;
    try {
      while (scanner.Next(&span)) {
        if (span.line_no == 1) continue;
        engine.PushLine(span.text, span.line_no, span.saw_newline);
      }
      engine.Finish();
      FAIL() << "span path accepted the feed";
    } catch (const std::runtime_error& e) {
      span_message = e.what();
    }
    EXPECT_EQ(span_message, reader_message);
  }
}

TEST(SpanIngest, StrictWorkerDetectedDefectThrowsForTheEarliestLine) {
  // A feed whose ONLY defect is worker-detected (bad family passes the
  // router pre-scan), so the throw must come from the fatal-flag path.
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  std::ostringstream out;
  data::WriteAttacksCsv(out, std::span(attacks.data(), 20));
  std::ostringstream row;
  data::WriteAttackCsvRow(row, attacks[20]);
  std::string bad = row.str();
  const std::size_t p0 = bad.find(',', bad.find(',') + 1) + 1;
  bad.replace(p0, bad.find(',', p0) - p0, "nosuchfamily");
  out << bad;
  for (std::size_t i = 21; i < 40; ++i) {
    std::ostringstream r;
    data::WriteAttackCsvRow(r, attacks[i]);
    out << r.str();
  }
  const std::string text = out.str();
  const std::size_t bad_line = 22;  // header + 20 rows + this one

  std::string reader_message;
  try {
    std::istringstream in(text);
    data::AttackCsvReader reader(in);
    data::AttackRecord a;
    while (reader.Next(&a)) {
    }
    FAIL();
  } catch (const std::runtime_error& e) {
    reader_message = e.what();
  }
  ASSERT_NE(reader_message.find("at line " + std::to_string(bad_line)),
            std::string::npos);

  for (const std::size_t shards : {2u, 8u}) {
    SCOPED_TRACE(shards);
    ShardedStreamEngineConfig config;
    config.shards = shards;
    ShardedStreamEngine engine(config);
    data::LineSpanScanner scanner(text);
    data::LineSpan span;
    std::string span_message;
    try {
      while (scanner.Next(&span)) {
        if (span.line_no == 1) continue;
        engine.PushLine(span.text, span.line_no, span.saw_newline);
      }
      engine.Finish();
      FAIL() << "worker-detected defect not surfaced";
    } catch (const std::runtime_error& e) {
      span_message = e.what();
    }
    EXPECT_EQ(span_message, reader_message);
  }
}

// Span-offset resume: checkpoint mid-feed with the scanner's byte cursor,
// restore into a fresh engine, SeekTo the offset, finish the feed - the
// result must be exactly an uninterrupted run's (same shard count).
TEST(SpanIngest, OffsetCheckpointResumeEqualsUninterruptedRun) {
  const std::string text = CleanFeedText(600);

  const SpanRun uninterrupted = RunSpans(text, 4);

  ShardedStreamEngineConfig config;
  config.shards = 4;
  config.parse.policy = data::ParsePolicy::kSkip;

  std::stringstream file;
  std::uint64_t saved_offset = 0;
  std::size_t saved_line = 0;
  {
    ShardedStreamEngine first(config);
    data::LineSpanScanner scanner(text);
    data::LineSpan span;
    std::size_t pushed = 0;
    while (pushed < 300 && scanner.Next(&span)) {
      if (span.line_no == 1) continue;
      first.PushLine(span.text, span.line_no, span.saw_newline);
      ++pushed;
    }
    CheckpointMeta meta;
    meta.records = first.ParsedRecords();
    meta.source_line = scanner.line_number();
    meta.source_offset = scanner.offset();
    meta.errors = first.ErrorReport();
    saved_offset = meta.source_offset;
    saved_line = meta.source_line;
    first.SaveCheckpoint(file, meta);
    first.Finish();
  }

  const ShardedCheckpointState state = ReadShardedCheckpoint(file);
  EXPECT_EQ(state.meta.source_offset, saved_offset);
  EXPECT_EQ(state.meta.source_line, saved_line);
  EXPECT_EQ(state.meta.records, 300u);

  ShardedStreamEngine resumed(config);
  resumed.RestoreFrom(state);
  resumed.SeedErrors(state.meta.errors);
  data::LineSpanScanner scanner(text);
  scanner.SeekTo(state.meta.source_offset, state.meta.source_line);
  data::LineSpan span;
  while (scanner.Next(&span)) {
    resumed.PushLine(span.text, span.line_no, span.saw_newline);
  }
  EXPECT_EQ(resumed.ParsedRecords(), uninterrupted.records);
  resumed.Finish();
  ExpectExactFieldsIdentical(resumed.Snapshot(), uninterrupted.snapshot);
}

// CheckpointMeta round-trips the source_offset field through the current
// single-engine frame (legacy files read back as offset 0, which the CLI
// treats as "fall back to line-skip resume").
TEST(SpanIngest, MetaRoundTripsSourceOffset) {
  EXPECT_EQ(kCheckpointVersion, 5u);
  EXPECT_EQ(kShardedCheckpointVersion, 6u);
  // A current single-engine checkpoint carries the offset.
  StreamEngine engine;
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  for (std::size_t i = 0; i < 10; ++i) engine.Push(attacks[i]);
  CheckpointMeta meta;
  meta.records = 10;
  meta.source_line = 11;
  meta.source_offset = 4242;
  std::stringstream file;
  WriteCheckpoint(file, engine, meta);
  CheckpointMeta back;
  StreamEngine restored = ReadCheckpoint(file, &back);
  EXPECT_EQ(back.records, 10u);
  EXPECT_EQ(back.source_line, 11u);
  EXPECT_EQ(back.source_offset, 4242u);
  EXPECT_EQ(restored.attacks_seen(), 10u);
}

}  // namespace
}  // namespace ddos::stream
