#include "data/taxonomy.h"

#include <set>

#include <gtest/gtest.h>

namespace ddos::data {
namespace {

TEST(Taxonomy, CountsMatchThePaper) {
  EXPECT_EQ(kFamilyCount, 23);        // 23 tracked families
  EXPECT_EQ(kActiveFamilyCount, 10);  // 10 active ones
  EXPECT_EQ(kProtocolCount, 7);       // 7 traffic types (Table III)
  EXPECT_EQ(AllFamilies().size(), 23u);
  EXPECT_EQ(ActiveFamilies().size(), 10u);
  EXPECT_EQ(AllProtocols().size(), 7u);
}

TEST(Taxonomy, ActiveFamiliesMatchSectionIII) {
  const std::set<std::string_view> expected = {
      "aldibot", "blackenergy", "colddeath", "darkshell", "ddoser",
      "dirtjumper", "nitol", "optima", "pandora", "yzf"};
  std::set<std::string_view> actual;
  for (const Family f : ActiveFamilies()) {
    actual.insert(FamilyName(f));
    EXPECT_TRUE(IsActive(f));
  }
  EXPECT_EQ(actual, expected);
}

TEST(Taxonomy, MinorFamiliesAreNotActive) {
  int minors = 0;
  for (const Family f : AllFamilies()) {
    if (!IsActive(f)) ++minors;
  }
  EXPECT_EQ(minors, 13);
}

TEST(Taxonomy, FamilyNamesUnique) {
  std::set<std::string_view> names;
  for (const Family f : AllFamilies()) {
    EXPECT_TRUE(names.insert(FamilyName(f)).second) << FamilyName(f);
  }
}

TEST(Taxonomy, ParseFamilyRoundTrip) {
  for (const Family f : AllFamilies()) {
    const auto parsed = ParseFamily(FamilyName(f));
    ASSERT_TRUE(parsed.has_value()) << FamilyName(f);
    EXPECT_EQ(*parsed, f);
  }
}

TEST(Taxonomy, ParseFamilyCaseInsensitive) {
  EXPECT_EQ(ParseFamily("DirtJumper"), Family::kDirtjumper);
  EXPECT_EQ(ParseFamily("BLACKENERGY"), Family::kBlackenergy);
}

// Matching folds ASCII letters only: a byte that differs from a name's
// letter by the 0x20 case bit outside A-Z/a-z must not match.
TEST(Taxonomy, CaseFoldIsAsciiOnly) {
  EXPECT_EQ(ParseFamily("NITOL"), Family::kNitol);
  EXPECT_EQ(ParseFamily("yZf"), Family::kYzf);
  EXPECT_EQ(ParseProtocol("Undetermined"), Protocol::kUndetermined);
  EXPECT_EQ(ParseProtocol("sYn"), Protocol::kSyn);
  EXPECT_FALSE(ParseFamily("\xC1LDIBOT").has_value());   // 0xC1 | 0x20 = 0xE1
  EXPECT_FALSE(ParseFamily("nitol\xC9").has_value());
  EXPECT_FALSE(ParseProtocol("\xC8TTP").has_value());
  EXPECT_FALSE(ParseProtocol("TCP ").has_value());
  EXPECT_FALSE(ParseProtocol("ICM").has_value());
}

TEST(Taxonomy, ParseFamilyRejectsUnknown) {
  EXPECT_FALSE(ParseFamily("mirai").has_value());
  EXPECT_FALSE(ParseFamily("").has_value());
}

TEST(Taxonomy, ProtocolNamesMatchTableI) {
  const std::set<std::string_view> expected = {
      "HTTP", "TCP", "UDP", "ICMP", "SYN", "UNDETERMINED", "UNKNOWN"};
  std::set<std::string_view> actual;
  for (const Protocol p : AllProtocols()) actual.insert(ProtocolName(p));
  EXPECT_EQ(actual, expected);
}

TEST(Taxonomy, ParseProtocolRoundTrip) {
  for (const Protocol p : AllProtocols()) {
    EXPECT_EQ(ParseProtocol(ProtocolName(p)), p);
  }
  EXPECT_EQ(ParseProtocol("http"), Protocol::kHttp);
  EXPECT_FALSE(ParseProtocol("QUIC").has_value());
}

}  // namespace
}  // namespace ddos::data
