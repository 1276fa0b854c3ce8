// IdSet: a differential test against std::set<uint64_t> over the id
// shapes ddoscope feeds produce (dense, batch-interleaved, random, repeated,
// erased, the extremes 0 and UINT64_MAX), a serialization round trip,
// truncations and seeded byte mutants of a serialized set, and the memory
// bound a deduping AttackCsvReader keeps over replayed feeds.
//
// DDOSCOPE_MUTANT_ITERATIONS sets the number of byte mutants (default
// 2,000; the sanitizer CI job runs many more).
#include "common/id_set.h"

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/rng.h"
#include "data/csv.h"
#include "test_support.h"

namespace ddos::common {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

int MutantIterations() {
  const char* env = std::getenv("DDOSCOPE_MUTANT_ITERATIONS");
  return env != nullptr ? std::atoi(env) : 2000;
}

// Runs are canonical: lo <= hi, sorted, disjoint and never adjacent.
void ExpectCanonical(const IdSet& set) {
  bool first = true;
  std::uint64_t prev_hi = 0;
  for (const auto& [lo, hi] : set.runs()) {
    ASSERT_LE(lo, hi);
    if (!first) {
      ASSERT_LT(prev_hi, kMax);
      ASSERT_GT(lo, prev_hi + 1) << "adjacent or overlapping runs";
    }
    first = false;
    prev_hi = hi;
  }
}

// The runs, expanded, are exactly the reference set's ids.
void ExpectSameIds(const IdSet& set, const std::set<std::uint64_t>& ref) {
  ExpectCanonical(set);
  auto it = ref.begin();
  for (const auto& [lo, hi] : set.runs()) {
    for (std::uint64_t id = lo;; ++id) {
      ASSERT_NE(it, ref.end()) << "extra id " << id;
      ASSERT_EQ(*it, id);
      ++it;
      if (id == hi) break;
    }
  }
  EXPECT_EQ(it, ref.end()) << "missing id " << *it;
}

// Applies one operation to both sets and compares the verdicts.
struct Differential {
  IdSet set;
  std::set<std::uint64_t> ref;

  void Insert(std::uint64_t id) {
    ASSERT_EQ(set.Insert(id), ref.insert(id).second) << "Insert " << id;
  }
  void Erase(std::uint64_t id) {
    ASSERT_EQ(set.Erase(id), ref.erase(id) == 1) << "Erase " << id;
  }
  // A random insert or erase of `id`.
  void Any(Rng& rng, std::uint64_t id) {
    if (rng.Bernoulli(0.65)) {
      Insert(id);
    } else {
      Erase(id);
    }
  }
};

const Rng& Root() {
  static const Rng root(20150622);
  return root;
}

TEST(IdSet, DenseIdsInOrderWithRepeatsStayOneRun) {
  Rng rng = Root().Fork(1);
  Differential d;
  for (std::uint64_t id = 1; id <= 20000; ++id) {
    d.Insert(id);
    // A repeat of an earlier id, as a replayed or duplicated row brings.
    if (rng.Bernoulli(0.05)) {
      d.Insert(static_cast<std::uint64_t>(
          rng.UniformInt(1, static_cast<std::int64_t>(id))));
    }
  }
  ExpectSameIds(d.set, d.ref);
  EXPECT_EQ(d.set.runs().size(), 1u);
}

TEST(IdSet, BatchesInterleavedAcrossTwoConnections) {
  // Two clients each send their own dense id range in 1,024-row batches;
  // the server sees the batches in whatever order they arrive.
  Rng rng = Root().Fork(2);
  Differential d;
  std::uint64_t next[2] = {1, 1'000'000};
  for (int batch = 0; batch < 200; ++batch) {
    const int conn = rng.Bernoulli(0.5) ? 1 : 0;
    for (int i = 0; i < 1024; ++i) d.Insert(next[conn]++);
    // The batch's last rows again, as a client resending after a reset.
    if (rng.Bernoulli(0.1)) {
      for (int i = 1; i <= 16; ++i) d.Insert(next[conn] - i);
    }
  }
  ExpectSameIds(d.set, d.ref);
  EXPECT_LE(d.set.runs().size(), 2u);
}

TEST(IdSet, RandomIdsInANarrowDomainMergeAndSplitRuns) {
  // A narrow domain makes inserts join runs from both sides and erases
  // split them, over and over.
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    SCOPED_TRACE(stream);
    Rng rng = Root().Fork(100 + stream);
    Differential d;
    for (int op = 0; op < 20000; ++op) {
      d.Any(rng, static_cast<std::uint64_t>(rng.UniformInt(0, 511)));
      if (op % 1000 == 0) ExpectSameIds(d.set, d.ref);
    }
    ExpectSameIds(d.set, d.ref);
  }
}

TEST(IdSet, RandomWideIds) {
  Rng rng = Root().Fork(3);
  Differential d;
  std::vector<std::uint64_t> inserted;
  for (int op = 0; op < 20000; ++op) {
    // Fresh 64-bit ids, their neighbours, and ids seen before.
    std::uint64_t id = rng.NextU64();
    if (!inserted.empty() && rng.Bernoulli(0.5)) {
      id = inserted[static_cast<std::size_t>(rng.UniformInt(
               0, static_cast<std::int64_t>(inserted.size()) - 1))] +
           static_cast<std::uint64_t>(rng.UniformInt(-1, 1));
    }
    inserted.push_back(id);
    d.Any(rng, id);
  }
  ExpectSameIds(d.set, d.ref);
}

TEST(IdSet, EraseSplitsAndTrimsRuns) {
  Differential d;
  for (std::uint64_t id = 10; id <= 20; ++id) d.Insert(id);
  d.Erase(15);  // split
  EXPECT_EQ(d.set.runs().size(), 2u);
  d.Erase(10);  // trim the low end
  d.Erase(20);  // trim the high end
  d.Erase(15);  // absent
  d.Erase(9);   // below every run
  d.Erase(21);  // above every run
  ExpectSameIds(d.set, d.ref);
  d.Insert(15);  // joins both neighbours again
  EXPECT_EQ(d.set.runs().size(), 1u);
  for (std::uint64_t id = 11; id <= 19; ++id) d.Erase(id);
  EXPECT_TRUE(d.set.runs().empty());
  ExpectSameIds(d.set, d.ref);
}

TEST(IdSet, TheExtremeIdsZeroAndMax) {
  for (std::uint64_t stream = 0; stream < 16; ++stream) {
    SCOPED_TRACE(stream);
    Rng rng = Root().Fork(200 + stream);
    const std::uint64_t edges[] = {0, 1, 2, kMax - 2, kMax - 1, kMax};
    Differential d;
    for (int op = 0; op < 200; ++op) {
      d.Any(rng, edges[rng.UniformInt(0, 5)]);
    }
    ExpectSameIds(d.set, d.ref);
  }
  IdSet set;
  EXPECT_TRUE(set.Insert(kMax));
  EXPECT_FALSE(set.Insert(kMax));
  EXPECT_TRUE(set.Insert(kMax - 1));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_EQ(set.runs().size(), 2u);
  EXPECT_TRUE(set.Erase(kMax));
  EXPECT_FALSE(set.Erase(kMax));
  EXPECT_FALSE(set.Insert(kMax - 1));
}

std::string Serialize(const IdSet& set) {
  std::ostringstream out;
  set.SerializeTo(out);
  return out.str();
}

IdSet FragmentedSet(std::uint64_t stream) {
  Rng rng = Root().Fork(stream);
  IdSet set;
  for (int i = 0; i < 400; ++i) {
    set.Insert(static_cast<std::uint64_t>(rng.UniformInt(0, 1000)));
  }
  set.Insert(0);
  set.Insert(kMax);
  return set;
}

TEST(IdSet, SerializationRoundTrips) {
  for (const IdSet& set : {IdSet{}, FragmentedSet(4)}) {
    const std::string bytes = Serialize(set);
    std::istringstream in(bytes);
    const IdSet back = IdSet::DeserializeFrom(in);
    EXPECT_EQ(back, set);
    EXPECT_EQ(Serialize(back), bytes);
    EXPECT_EQ(in.peek(), std::char_traits<char>::eof());
  }
}

// Deserializes `bytes`: it must throw std::runtime_error or return a
// canonical set that serializes back to the bytes it consumed.
void ExpectThrowsOrValid(const std::string& bytes) {
  std::istringstream in(bytes);
  IdSet set;
  try {
    set = IdSet::DeserializeFrom(in);
  } catch (const std::runtime_error&) {
    return;
  }
  ExpectCanonical(set);
  const std::string back = Serialize(set);
  EXPECT_EQ(back, bytes.substr(0, back.size()));
}

// Runs as stored: the count, then lo and hi of each.
std::string RawRuns(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& runs) {
  std::ostringstream out;
  io::WriteU64(out, runs.size());
  for (const auto& [lo, hi] : runs) {
    io::WriteU64(out, lo);
    io::WriteU64(out, hi);
  }
  return out.str();
}

TEST(IdSet, DeserializeRejectsRunsThatAreNotCanonical) {
  for (const auto& runs :
       std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>{
           {{5, 4}},                // lo > hi
           {{1, 2}, {3, 4}},        // adjacent
           {{1, 5}, {5, 9}},        // overlapping
           {{10, 12}, {1, 2}},      // out of order
           {{0, kMax}, {0, 0}},     // after the last possible id
       }) {
    std::istringstream in(RawRuns(runs));
    EXPECT_THROW(IdSet::DeserializeFrom(in), std::runtime_error);
  }
  std::istringstream in(RawRuns({{0, 0}, {2, 2}, {kMax, kMax}}));
  EXPECT_EQ(IdSet::DeserializeFrom(in).runs().size(), 3u);
}

TEST(IdSet, EveryTruncationThrows) {
  const std::string bytes = Serialize(FragmentedSet(5));
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::istringstream in(bytes.substr(0, n));
    EXPECT_THROW(IdSet::DeserializeFrom(in), std::runtime_error) << n;
  }
}

TEST(IdSet, ByteMutantsThrowOrDecodeToACanonicalSet) {
  const std::string bytes = Serialize(FragmentedSet(6));
  const int iterations = MutantIterations();
  for (int i = 0; i < iterations; ++i) {
    Rng rng = Root().Fork(1'000'000 + static_cast<std::uint64_t>(i));
    std::string mutant = bytes;
    const int edits = static_cast<int>(rng.UniformInt(1, 3));
    for (int e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(mutant.size()) - 1));
      if (rng.Bernoulli(0.5)) {
        mutant[at] = static_cast<char>(mutant[at] ^ (1 << rng.UniformInt(0, 7)));
      } else {
        mutant[at] = static_cast<char>(rng.UniformInt(0, 255));
      }
    }
    SCOPED_TRACE(i);
    ExpectThrowsOrValid(mutant);
  }
}

// A deduping reader over a replayed feed keeps O(1) runs: five replays of
// the trace with ids shifted past the previous pass's, as perfbench stages
// them, hold no more runs than one pass; a sixth, unshifted pass is all
// duplicates and adds none.
TEST(IdSet, SkipReaderKeepsConstantRunsAcrossIdShiftedReplays) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  std::uint64_t lo = kMax;
  std::uint64_t hi = 0;
  for (const data::AttackRecord& a : attacks) {
    lo = std::min(lo, a.ddos_id);
    hi = std::max(hi, a.ddos_id);
  }
  const std::uint64_t shift = hi - lo + 1;
  std::ostringstream out;
  out << data::AttackCsvHeader() << '\n';
  for (std::uint64_t pass = 0; pass < 6; ++pass) {
    for (data::AttackRecord a : attacks) {
      if (pass < 5) a.ddos_id += pass * shift;
      data::WriteAttackCsvRow(out, a);
    }
  }
  std::istringstream in(out.str());
  data::AttackCsvReader reader(in, data::ParseOptions::Skip());
  data::AttackRecord a;
  std::size_t runs_after_one_pass = 0;
  std::size_t memory_after_one_pass = 0;
  while (reader.Next(&a)) {
    if (reader.records_read() == attacks.size()) {
      runs_after_one_pass = reader.seen_ids().runs().size();
      memory_after_one_pass = reader.seen_ids().ApproxMemoryBytes();
    }
  }
  EXPECT_EQ(reader.records_read(), 5 * attacks.size());
  EXPECT_EQ(reader.error_report().count(data::IngestErrorKind::kDuplicateId),
            attacks.size());
  EXPECT_EQ(reader.error_report().total(), attacks.size());
  EXPECT_EQ(runs_after_one_pass, 1u);
  EXPECT_EQ(reader.seen_ids().runs().size(), runs_after_one_pass);
  EXPECT_EQ(reader.seen_ids().ApproxMemoryBytes(), memory_after_one_pass);
}

TEST(IdSet, StrictReaderKeepsNoIds) {
  std::ostringstream out;
  data::WriteAttacksCsv(out, ::ddos::testing::SmallDataset().attacks());
  std::istringstream in(out.str());
  data::AttackCsvReader reader(in, data::ParseOptions::Strict());
  data::AttackRecord a;
  while (reader.Next(&a)) {
  }
  EXPECT_GT(reader.records_read(), 0u);
  EXPECT_TRUE(reader.seen_ids().runs().empty());
}

}  // namespace
}  // namespace ddos::common
