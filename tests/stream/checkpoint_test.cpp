// The crash-resume contract: an engine restored from a checkpoint taken
// mid-trace and fed the remainder must reach a final Snapshot() identical
// to an uninterrupted run's - exact tallies and sketch-backed views alike,
// because state is serialized bit-for-bit. A damaged checkpoint must throw,
// never half-restore.
#include "stream/checkpoint.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/id_set.h"
#include "common/rng.h"
#include "stream/engine.h"
#include "test_support.h"

namespace ddos::stream {
namespace {

const data::Dataset& Trace() { return ::ddos::testing::SmallDataset(); }

void ExpectSnapshotsIdentical(const StreamSnapshot& a, const StreamSnapshot& b) {
  EXPECT_EQ(a.attacks, b.attacks);
  EXPECT_EQ(a.first_start, b.first_start);
  EXPECT_EQ(a.last_start, b.last_start);
  EXPECT_EQ(a.family_attacks, b.family_attacks);
  EXPECT_EQ(a.countries, b.countries);

  ASSERT_EQ(a.protocols.size(), b.protocols.size());
  for (std::size_t i = 0; i < a.protocols.size(); ++i) {
    EXPECT_EQ(a.protocols[i].protocol, b.protocols[i].protocol);
    EXPECT_EQ(a.protocols[i].attacks, b.protocols[i].attacks);
  }

  EXPECT_EQ(a.intervals.summary.count, b.intervals.summary.count);
  EXPECT_EQ(a.intervals.summary.mean, b.intervals.summary.mean);
  EXPECT_EQ(a.intervals.summary.stddev, b.intervals.summary.stddev);
  EXPECT_EQ(a.intervals.summary.median, b.intervals.summary.median);
  EXPECT_EQ(a.intervals.p80_seconds, b.intervals.p80_seconds);
  EXPECT_EQ(a.intervals.fraction_concurrent, b.intervals.fraction_concurrent);
  EXPECT_EQ(a.durations.summary.count, b.durations.summary.count);
  EXPECT_EQ(a.durations.summary.mean, b.durations.summary.mean);
  EXPECT_EQ(a.durations.summary.median, b.durations.summary.median);
  EXPECT_EQ(a.durations.p80_seconds, b.durations.p80_seconds);
  EXPECT_EQ(a.durations.fraction_under_4h, b.durations.fraction_under_4h);

  EXPECT_EQ(a.distinct_targets, b.distinct_targets);
  EXPECT_EQ(a.distinct_botnets, b.distinct_botnets);
  ASSERT_EQ(a.top_targets.size(), b.top_targets.size());
  for (std::size_t i = 0; i < a.top_targets.size(); ++i) {
    EXPECT_EQ(a.top_targets[i].label, b.top_targets[i].label);
    EXPECT_EQ(a.top_targets[i].count, b.top_targets[i].count);
  }

  EXPECT_EQ(a.collab.events, b.collab.events);
  EXPECT_EQ(a.collab.intra_family_events, b.collab.intra_family_events);
  EXPECT_EQ(a.collab.inter_family_events, b.collab.inter_family_events);
  for (std::size_t f = 0; f < data::kFamilyCount; ++f) {
    EXPECT_EQ(a.collab.table.intra[f], b.collab.table.intra[f]) << f;
    EXPECT_EQ(a.collab.table.inter[f], b.collab.table.inter[f]) << f;
  }
  EXPECT_EQ(a.attacks_in_window, b.attacks_in_window);
}

CheckpointMeta MetaWithRecords(std::uint64_t records) {
  CheckpointMeta meta;
  meta.records = records;
  return meta;
}

std::string SerializeToCheckpoint(const StreamEngine& engine,
                                  const CheckpointMeta& meta) {
  std::ostringstream out;
  WriteCheckpoint(out, engine, meta);
  return out.str();
}

TEST(Checkpoint, RoundTripPreservesSnapshotAndMeta) {
  StreamEngine engine;
  for (const data::AttackRecord& a : Trace().attacks()) engine.Push(a);

  CheckpointMeta meta;
  meta.records = engine.attacks_seen();
  meta.source_line = engine.attacks_seen() + 1;
  meta.errors.Add(data::IngestErrorKind::kBadFieldCount);
  meta.errors.Add(data::IngestErrorKind::kDuplicateId);
  meta.errors.Add(data::IngestErrorKind::kDuplicateId);

  std::istringstream in(SerializeToCheckpoint(engine, meta));
  CheckpointMeta restored_meta;
  StreamEngine restored = ReadCheckpoint(in, &restored_meta);

  EXPECT_EQ(restored_meta.records, meta.records);
  EXPECT_EQ(restored_meta.source_line, meta.source_line);
  EXPECT_EQ(restored_meta.errors.count(data::IngestErrorKind::kDuplicateId), 2u);
  EXPECT_EQ(restored_meta.errors.total(), 3u);

  engine.Finish();
  restored.Finish();
  ExpectSnapshotsIdentical(engine.Snapshot(), restored.Snapshot());
}

TEST(Checkpoint, CrashResumeEquivalenceOnAttackPath) {
  // Uninterrupted run.
  StreamEngine uninterrupted;
  for (const data::AttackRecord& a : Trace().attacks()) uninterrupted.Push(a);
  uninterrupted.Finish();

  // Interrupted run: checkpoint mid-trace, "crash", restore, finish.
  const std::size_t cut = Trace().attacks().size() / 3;
  StreamEngine first_half;
  for (std::size_t i = 0; i < cut; ++i) first_half.Push(Trace().attacks()[i]);
  const std::string checkpoint =
      SerializeToCheckpoint(first_half, MetaWithRecords(cut));

  std::istringstream in(checkpoint);
  CheckpointMeta meta;
  StreamEngine resumed = ReadCheckpoint(in, &meta);
  ASSERT_EQ(meta.records, cut);
  for (std::size_t i = cut; i < Trace().attacks().size(); ++i) {
    resumed.Push(Trace().attacks()[i]);
  }
  resumed.Finish();

  ExpectSnapshotsIdentical(uninterrupted.Snapshot(), resumed.Snapshot());
}

TEST(Checkpoint, CrashResumeEquivalenceOnObservationPath) {
  // The sessionizer's open runs and the collab detector's pending groups
  // must survive the round trip: cut mid-stream with runs still open.
  auto push_all = [](StreamEngine& engine, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const data::AttackRecord& a = Trace().attacks()[i];
      core::Observation obs;
      obs.botnet_id = a.botnet_id;
      obs.family = a.family;
      obs.protocol = a.category;
      obs.target_ip = a.target_ip;
      obs.start = a.start_time;
      obs.end = a.end_time;
      obs.sources = a.magnitude;
      engine.PushObservation(obs);
    }
  };
  const std::size_t n = Trace().attacks().size();

  StreamEngine uninterrupted;
  push_all(uninterrupted, 0, n);
  uninterrupted.Finish();

  StreamEngine first_half;
  push_all(first_half, 0, n / 2);
  std::istringstream in(
      SerializeToCheckpoint(first_half, MetaWithRecords(n / 2)));
  StreamEngine resumed = ReadCheckpoint(in, nullptr);
  push_all(resumed, n / 2, n);
  resumed.Finish();

  ExpectSnapshotsIdentical(uninterrupted.Snapshot(), resumed.Snapshot());
}

TEST(Checkpoint, NonDefaultConfigSurvivesTheRoundTrip) {
  StreamEngineConfig config;
  config.quantile_epsilon = 0.02;
  config.topk_capacity = 64;
  config.distinct_k = 256;
  config.rolling_window_s = 6 * kSecondsPerHour;
  StreamEngine engine(config);
  for (const data::AttackRecord& a : Trace().attacks()) engine.Push(a);

  std::istringstream in(SerializeToCheckpoint(engine, CheckpointMeta{}));
  StreamEngine restored = ReadCheckpoint(in, nullptr);
  EXPECT_EQ(restored.config().topk_capacity, 64u);
  EXPECT_EQ(restored.config().distinct_k, 256u);
  EXPECT_EQ(restored.config().rolling_window_s, 6 * kSecondsPerHour);
  ExpectSnapshotsIdentical(engine.Snapshot(), restored.Snapshot());
}

TEST(Checkpoint, CorruptionIsDetectedNotHalfRestored) {
  StreamEngine engine;
  for (const data::AttackRecord& a : Trace().attacks()) engine.Push(a);
  const std::string good = SerializeToCheckpoint(engine, CheckpointMeta{});

  {  // flipped payload byte -> checksum mismatch
    std::string bad = good;
    bad[bad.size() / 2] ^= 0x01;
    std::istringstream in(bad);
    EXPECT_THROW(ReadCheckpoint(in, nullptr), std::runtime_error);
  }
  {  // wrong magic
    std::string bad = good;
    bad[0] = 'X';
    std::istringstream in(bad);
    EXPECT_THROW(ReadCheckpoint(in, nullptr), std::runtime_error);
  }
  {  // unsupported version (bytes 8..11)
    std::string bad = good;
    bad[8] = '\x7f';
    std::istringstream in(bad);
    EXPECT_THROW(ReadCheckpoint(in, nullptr), std::runtime_error);
  }
  {  // truncated file
    std::istringstream in(good.substr(0, good.size() / 2));
    EXPECT_THROW(ReadCheckpoint(in, nullptr), std::runtime_error);
  }
  {  // empty file
    std::istringstream in{std::string()};
    EXPECT_THROW(ReadCheckpoint(in, nullptr), std::runtime_error);
  }
}

TEST(Checkpoint, FileWriterStagesAndRenamesAtomically) {
  const std::string path = ::testing::TempDir() + "/ddoscope_ckpt_test.bin";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  StreamEngine engine;
  for (const data::AttackRecord& a : Trace().attacks()) engine.Push(a);
  WriteCheckpoint(path, engine, MetaWithRecords(engine.attacks_seen()));

  // The staging file must be gone and the real file readable.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  CheckpointMeta meta;
  StreamEngine restored = ReadCheckpoint(path, &meta);
  EXPECT_EQ(meta.records, engine.attacks_seen());
  engine.Finish();
  restored.Finish();
  ExpectSnapshotsIdentical(engine.Snapshot(), restored.Snapshot());

  // Overwriting an existing checkpoint also goes through the staging path.
  WriteCheckpoint(path, restored, MetaWithRecords(1));
  StreamEngine again = ReadCheckpoint(path, &meta);
  EXPECT_EQ(meta.records, 1u);
  std::remove(path.c_str());

  EXPECT_THROW(ReadCheckpoint(path, nullptr), std::runtime_error);
}

TEST(Checkpoint, FailedRenameLeavesNoStageFileBehind) {
  // Renaming over a non-empty directory fails, standing in for any
  // publish-time failure: the writer must throw AND clean up its .tmp so
  // repeated failures cannot accumulate debris.
  const std::string path = ::testing::TempDir() + "/ddoscope_ckpt_blocked";
  const std::string tmp = path + ".tmp";
  std::remove(tmp.c_str());
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  const std::string blocker = path + "/occupied";
  { std::ofstream(blocker) << "x"; }

  StreamEngine engine;
  for (const data::AttackRecord& a : Trace().attacks()) engine.Push(a);
  EXPECT_THROW(WriteCheckpoint(path, engine, MetaWithRecords(1)),
               std::runtime_error);
  EXPECT_FALSE(std::ifstream(tmp).good())
      << "failed rename must delete the stage file";

  std::remove(blocker.c_str());
  ::rmdir(path.c_str());
}

// --- The seen-id set, the version history, and corrupt input ---
//
// DDOSCOPE_MUTANT_ITERATIONS sets the number of byte mutants per test
// (default 2,000; the sanitizer CI job runs many more).

int MutantIterations() {
  const char* env = std::getenv("DDOSCOPE_MUTANT_ITERATIONS");
  return env != nullptr ? std::atoi(env) : 2000;
}

// A checkpoint file around `payload`, framed as the writers frame it.
std::string Frame(std::uint32_t version, const std::string& payload) {
  std::ostringstream out;
  out.write("DDSCKPT\n", 8);
  io::WriteU32(out, version);
  io::WriteU64(out, payload.size());
  out << payload;
  io::Fnv1a64 checksum;
  checksum.Update(payload);
  io::WriteU64(out, checksum.digest());
  return out.str();
}

// The frame is 8 bytes of magic, a u32 version and a u64 size before the
// payload, and the u64 checksum after it.
constexpr std::size_t kFrameHead = 20;
constexpr std::size_t kFrameTail = 8;

std::string PayloadOf(const std::string& file) {
  return file.substr(kFrameHead, file.size() - kFrameHead - kFrameTail);
}

std::uint32_t VersionOf(const std::string& file) {
  std::istringstream in(file.substr(8, 4));
  return io::ReadU32(in);
}

StreamEngine EngineOver(std::size_t from, std::size_t count) {
  StreamEngine engine;
  for (std::size_t i = from; i < from + count; ++i) {
    engine.Push(Trace().attacks()[i]);
  }
  return engine;
}

CheckpointMeta MetaWithSeenIds() {
  CheckpointMeta meta;
  meta.records = 40;
  meta.source_line = 45;
  meta.source_offset = 9000;
  meta.errors.Add(data::IngestErrorKind::kDuplicateId);
  meta.errors.Add(data::IngestErrorKind::kBadFieldCount);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    if (id != 17) meta.seen_ids.Insert(id);
  }
  meta.seen_ids.Insert(1000);
  return meta;
}

ShardedCheckpointState TwoSectionState() {
  ShardedCheckpointState state;
  state.meta = MetaWithSeenIds();
  state.engines.push_back(EngineOver(0, 20));
  state.engines.push_back(EngineOver(20, 20));
  state.router_attacks = 40;
  state.router_first_start_s = state.engines[0].first_start().seconds();
  state.router_last_start_s = state.engines[1].last_start().seconds();
  return state;
}

std::string SingleFile() {
  std::ostringstream out;
  WriteCheckpoint(out, EngineOver(0, 40), MetaWithSeenIds());
  return out.str();
}

std::string ShardedFile() {
  std::ostringstream out;
  WriteShardedCheckpoint(out, TwoSectionState());
  return out.str();
}

void ExpectMetaEqual(const CheckpointMeta& got, const CheckpointMeta& want) {
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.source_line, want.source_line);
  EXPECT_EQ(got.source_offset, want.source_offset);
  EXPECT_EQ(got.errors.counts, want.errors.counts);
  EXPECT_EQ(got.seen_ids, want.seen_ids);
}

TEST(Checkpoint, SeenIdsRoundTripInVersions5And6) {
  const std::string single = SingleFile();
  const std::string sharded = ShardedFile();
  EXPECT_EQ(VersionOf(single), 5u);
  EXPECT_EQ(VersionOf(sharded), 6u);
  for (const std::string& file : {single, sharded}) {
    std::istringstream in(file);
    const ShardedCheckpointState state = ReadShardedCheckpoint(in);
    ExpectMetaEqual(state.meta, MetaWithSeenIds());
    std::istringstream again(file);
    CheckpointMeta meta;
    const StreamEngine engine = ReadCheckpoint(again, &meta);
    ExpectMetaEqual(meta, MetaWithSeenIds());
    EXPECT_EQ(engine.attacks_seen(), 40u);
  }
}

// Versions 1-4, framed by hand in their own layouts, still read: the
// fields they lack read as zero and an empty seen-id set.
TEST(Checkpoint, EarlierVersionsReadWithAnEmptySeenIdSet) {
  const ShardedCheckpointState current = TwoSectionState();
  const StreamEngine whole = EngineOver(0, 40);
  for (std::uint32_t version = 1; version <= 4; ++version) {
    SCOPED_TRACE(version);
    std::ostringstream payload;
    io::WriteU64(payload, current.meta.records);
    io::WriteU64(payload, current.meta.source_line);
    if (version >= 3) io::WriteU64(payload, current.meta.source_offset);
    for (const std::uint64_t n : current.meta.errors.counts) {
      io::WriteU64(payload, n);
    }
    const bool sharded = version % 2 == 0;
    if (sharded) {
      io::WriteU32(payload, 2);
      io::WriteU64(payload, current.router_attacks);
      io::WriteI64(payload, current.router_first_start_s);
      io::WriteI64(payload, current.router_last_start_s);
      for (const StreamEngine& e : current.engines) e.SerializeTo(payload);
    } else {
      whole.SerializeTo(payload);
    }
    std::istringstream in(Frame(version, payload.str()));
    const ShardedCheckpointState state = ReadShardedCheckpoint(in);
    CheckpointMeta want = current.meta;
    want.seen_ids = common::IdSet{};
    if (version < 3) want.source_offset = 0;
    ExpectMetaEqual(state.meta, want);
    EXPECT_EQ(state.engines.size(), sharded ? 2u : 1u);
    EXPECT_EQ(state.router_attacks, 40u);
  }
}

// Reads `file` with both readers: each must throw std::runtime_error or
// return a state; anything else (another exception, a crash, a sanitizer
// report) fails the test.
void ExpectThrowsOrReads(const std::string& file) {
  try {
    std::istringstream in(file);
    ReadShardedCheckpoint(in);
  } catch (const std::runtime_error&) {
  }
  try {
    std::istringstream in(file);
    ReadCheckpoint(in, nullptr);
  } catch (const std::runtime_error&) {
  }
}

// 1-3 random bytes of `bytes` flipped or overwritten.
std::string Mutate(std::string bytes, Rng& rng) {
  const int edits = static_cast<int>(rng.UniformInt(1, 3));
  for (int e = 0; e < edits; ++e) {
    const auto at = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(bytes.size()) - 1));
    if (rng.Bernoulli(0.5)) {
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.UniformInt(0, 7)));
    } else {
      bytes[at] = static_cast<char>(rng.UniformInt(0, 255));
    }
  }
  return bytes;
}

TEST(Checkpoint, EveryTruncationOfVersions5And6Throws) {
  for (const std::string& file : {SingleFile(), ShardedFile()}) {
    SCOPED_TRACE(VersionOf(file));
    for (std::size_t n = 0; n < file.size(); ++n) {
      std::istringstream in(file.substr(0, n));
      EXPECT_THROW(ReadShardedCheckpoint(in), std::runtime_error) << n;
    }
    // The payload cut short but framed and checksummed as if whole, so the
    // decoders themselves meet the end of their input at every byte.
    const std::string payload = PayloadOf(file);
    for (std::size_t n = 0; n < payload.size(); ++n) {
      std::istringstream in(Frame(VersionOf(file), payload.substr(0, n)));
      EXPECT_THROW(ReadShardedCheckpoint(in), std::runtime_error) << n;
    }
  }
}

TEST(Checkpoint, ByteMutantsOfVersions5And6ThrowOrRead) {
  const Rng root(20150623);
  const int iterations = MutantIterations();
  for (const std::string& file : {SingleFile(), ShardedFile()}) {
    const std::uint32_t version = VersionOf(file);
    SCOPED_TRACE(version);
    const std::string payload = PayloadOf(file);
    for (int i = 0; i < iterations; ++i) {
      SCOPED_TRACE(i);
      Rng rng = root.Fork(version * 1'000'000 + static_cast<std::uint64_t>(i));
      // The file as stored: mostly checksum failures, but a mutated version
      // or size field reaches the decoders with the wrong layout.
      ExpectThrowsOrReads(Mutate(file, rng));
      // The payload mutated and re-signed, so every decoder behind the
      // checksum sees corrupt fields.
      ExpectThrowsOrReads(Frame(version, Mutate(payload, rng)));
    }
  }
}

}  // namespace
}  // namespace ddos::stream
