#include "geo/mmdb.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "geo/geo_db.h"
#include "net/ipv4.h"

namespace ddos::geo {
namespace {

// Unique per process: ctest runs every case as its own process, and the
// suite fixture's file would otherwise be written and removed by parallel
// cases at once.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Bit-equal comparison for doubles: the contract is bit-identity, not
// epsilon-closeness, so -0.0 vs 0.0 or a 1-ulp drift must fail.
void ExpectBitEqual(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void ExpectSameRecord(const GeoRecord& synth, const GeoRecord& mmdb,
                      std::uint32_t bits) {
  const std::string ctx = "addr " + net::IPv4Address(bits).ToString();
  EXPECT_EQ(synth.country_code, mmdb.country_code) << ctx;
  EXPECT_EQ(synth.country_name, mmdb.country_name) << ctx;
  EXPECT_EQ(synth.city, mmdb.city) << ctx;
  ExpectBitEqual(synth.location.lat_deg, mmdb.location.lat_deg, ctx + " lat");
  ExpectBitEqual(synth.location.lon_deg, mmdb.location.lon_deg, ctx + " lon");
  EXPECT_EQ(synth.asn, mmdb.asn) << ctx;
  EXPECT_EQ(synth.organization, mmdb.organization) << ctx;
  EXPECT_EQ(synth.org_kind, mmdb.org_kind) << ctx;
}

class MmdbTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new GeoDatabase(GeoDatabase::MakeDefault(0xfeedULL));
    path_ = TempPath("mmdb_test.geo");
    CompileGeoDatabase(*db_, path_);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    std::remove(path_.c_str());
  }

  static GeoDatabase* db_;
  static std::string path_;
};

GeoDatabase* MmdbTest::db_ = nullptr;
std::string MmdbTest::path_;

TEST_F(MmdbTest, OpenReportsCompiledShape) {
  const GeoMmdb mmdb = GeoMmdb::Open(path_);
  EXPECT_EQ(mmdb.record_count(),
            static_cast<std::uint32_t>(db_->block_count()));
  EXPECT_EQ(mmdb.country_count(),
            static_cast<std::uint32_t>(db_->catalog().size()));
  EXPECT_EQ(mmdb.seed(), 0xfeedULL);
  EXPECT_GT(mmdb.node_count(), 0u);
  EXPECT_EQ(mmdb.size_bytes(), ReadFile(path_).size());
}

// The tentpole contract: the compiled trie agrees with the synthetic
// database bit-for-bit at every /16 boundary and one address to each side
// of it - which exercises every allocated leaf, every unallocated fallback,
// and the jitter hash across the whole keyspace.
TEST_F(MmdbTest, FullKeyspaceEquivalenceAtEveryBoundary) {
  const GeoMmdb mmdb = GeoMmdb::Open(path_);
  for (std::uint32_t p = 0; p < 65536; ++p) {
    const std::uint32_t base = p << 16;
    for (const std::uint32_t bits : {base, base + 1, base + 0xffffu}) {
      const net::IPv4Address addr(bits);
      ExpectSameRecord(db_->Lookup(addr), mmdb.Lookup(addr), bits);
      ASSERT_EQ(db_->IsAllocated(addr), mmdb.IsAllocated(addr))
          << net::IPv4Address(bits).ToString();
    }
    if (HasFailure()) break;  // one broken prefix is enough diagnostics
  }
}

TEST_F(MmdbTest, EquivalenceHoldsForNonDefaultConfigAndSeed) {
  GeoDbConfig config;
  config.total_blocks = 500;
  config.address_jitter_deg = 0.8;
  const GeoDatabase db(WorldCatalog::Builtin(), config, 42);
  const std::string path = TempPath("mmdb_alt.geo");
  CompileGeoDatabase(db, path);
  const GeoMmdb mmdb = GeoMmdb::Open(path);
  EXPECT_EQ(mmdb.record_count(), 500u);
  for (std::uint32_t p = 0; p < 65536; p += 7) {
    const std::uint32_t bits = (p << 16) | (p * 2654435761u >> 16);
    ExpectSameRecord(db.Lookup(net::IPv4Address(bits)),
                     mmdb.Lookup(net::IPv4Address(bits)), bits);
  }
  std::remove(path.c_str());
}

TEST_F(MmdbTest, CompilationIsDeterministic) {
  const std::string again = TempPath("mmdb_again.geo");
  CompileGeoDatabase(*db_, again);
  EXPECT_EQ(ReadFile(path_), ReadFile(again));
  std::remove(again.c_str());
}

TEST_F(MmdbTest, CompileStagesAtomically) {
  const std::string path = TempPath("mmdb_atomic.geo");
  CompileGeoDatabase(*db_, path);
  // The stage file must be gone once the final file is published.
  std::ifstream stage(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(stage.good());
  EXPECT_NO_THROW(GeoMmdb::Open(path));
  std::remove(path.c_str());
}

TEST_F(MmdbTest, MovedReaderStillServesLookups) {
  GeoMmdb a = GeoMmdb::Open(path_);
  const GeoRecord before = a.Lookup(net::IPv4Address(0x08080808));
  GeoMmdb b = std::move(a);
  GeoMmdb c;
  c = std::move(b);
  ExpectSameRecord(before, c.Lookup(net::IPv4Address(0x08080808)), 0x08080808);
}

// --- Corruption taxonomy (mirrors the binrecords sweep). ---

GeoFormatError::Kind OpenKind(const std::string& path) {
  try {
    GeoMmdb::Open(path);
  } catch (const GeoFormatError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected GeoFormatError for " << path;
  return GeoFormatError::Kind::kCorruptField;
}

TEST_F(MmdbTest, BadMagicIsTyped) {
  std::string bytes = ReadFile(path_);
  bytes[0] = 'X';
  const std::string path = TempPath("mmdb_badmagic.geo");
  WriteFile(path, bytes);
  EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kBadMagic);
  std::remove(path.c_str());
}

TEST_F(MmdbTest, UnsupportedVersionIsTyped) {
  std::string bytes = ReadFile(path_);
  bytes[8] = 99;  // version field, little-endian low byte
  const std::string path = TempPath("mmdb_badversion.geo");
  WriteFile(path, bytes);
  EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kUnsupportedVersion);
  std::remove(path.c_str());
}

TEST_F(MmdbTest, TruncationAtEveryBoundaryIsTyped) {
  const std::string bytes = ReadFile(path_);
  const std::string path = TempPath("mmdb_truncated.geo");
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i <= 96; ++i) cuts.push_back(i);  // header region
  cuts.push_back(bytes.size() / 2);
  cuts.push_back(bytes.size() - 9);  // ends inside the checksum
  cuts.push_back(bytes.size() - 8);
  cuts.push_back(bytes.size() - 1);
  for (const std::size_t cut : cuts) {
    WriteFile(path, bytes.substr(0, cut));
    EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kTruncated)
        << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST_F(MmdbTest, PayloadBitFlipsAreChecksumMismatches) {
  const std::string bytes = ReadFile(path_);
  const std::string path = TempPath("mmdb_bitflip.geo");
  // Sample offsets across every section: trie, records, countries, strings,
  // the reserved/seed header fields, and the checksum trailer itself.
  std::vector<std::size_t> offsets = {16, 24, 47, 88, bytes.size() - 4};
  for (std::size_t off = 96; off + 9 < bytes.size(); off += bytes.size() / 13) {
    offsets.push_back(off);
  }
  for (const std::size_t off : offsets) {
    std::string corrupt = bytes;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x10);
    WriteFile(path, corrupt);
    EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kChecksumMismatch)
        << "flip at " << off;
  }
  std::remove(path.c_str());
}

TEST_F(MmdbTest, EveryBitFlipYieldsATypedError) {
  // Flips that land in the size-bearing header fields surface as truncation
  // or corrupt-field instead of checksum mismatch; all must stay typed.
  const std::string bytes = ReadFile(path_);
  const std::string path = TempPath("mmdb_anyflip.geo");
  std::vector<std::size_t> offsets = {48, 56, 64, 72, 80, 87};  // size fields
  for (std::size_t off = 0; off < bytes.size(); off += 257) offsets.push_back(off);
  for (const std::size_t off : offsets) {
    std::string corrupt = bytes;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x01);
    WriteFile(path, corrupt);
    EXPECT_THROW(GeoMmdb::Open(path), GeoFormatError) << "flip at " << off;
  }
  std::remove(path.c_str());
}

TEST_F(MmdbTest, TrailingGarbageIsCorruptField) {
  std::string bytes = ReadFile(path_);
  bytes.push_back('\0');
  const std::string path = TempPath("mmdb_trailing.geo");
  WriteFile(path, bytes);
  EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kCorruptField);
  std::remove(path.c_str());
}

TEST_F(MmdbTest, StructuralCorruptionWithValidChecksumIsCorruptField) {
  // Re-sign a file whose record table claims a country index that does not
  // exist: the checksum passes, the structural validation must not.
  std::string bytes = ReadFile(path_);
  const std::uint64_t record_offset = [&] {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[56 + i]))
           << (8 * i);
    }
    return v;
  }();
  for (int i = 0; i < 4; ++i) {
    bytes[record_offset + i] = static_cast<char>(0xff);  // country index
  }
  // Re-sign with the format's checksum: 4-lane FNV-1a 64 over LE u64 words
  // (lane j takes words j, j+4, ...; zero-padded tail), lanes folded in
  // order. Mirrors GeoChecksum in geo/mmdb.cpp.
  const std::size_t payload = bytes.size() - 8;
  auto word_at = [&](std::size_t w) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8 && w * 8 + i < payload; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[w * 8 + i]))
           << (8 * i);
    }
    return v;
  };
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t lane[4] = {0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL,
                           0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL};
  const std::size_t words = (payload + 7) / 8;
  for (std::size_t w = 0; w < words; ++w) {
    lane[w % 4] = (lane[w % 4] ^ word_at(w)) * kPrime;
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint64_t l : lane) hash = (hash ^ l) * kPrime;
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>((hash >> (8 * i)) & 0xff);
  }
  const std::string path = TempPath("mmdb_structural.geo");
  WriteFile(path, bytes);
  EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kCorruptField);
  std::remove(path.c_str());
}

TEST_F(MmdbTest, EmptyFileIsTruncated) {
  const std::string path = TempPath("mmdb_empty.geo");
  WriteFile(path, "");
  EXPECT_EQ(OpenKind(path), GeoFormatError::Kind::kTruncated);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ddos::geo
