#include "net/ipv4.h"

#include <gtest/gtest.h>

#include <ostream>

namespace ddos::net {
namespace {

TEST(IPv4Address, OctetConstruction) {
  const IPv4Address a = IPv4Address::FromOctets(192, 0, 2, 1);
  EXPECT_EQ(a.bits(), 0xC0000201u);
  EXPECT_EQ(a.octet(0), 192);
  EXPECT_EQ(a.octet(1), 0);
  EXPECT_EQ(a.octet(2), 2);
  EXPECT_EQ(a.octet(3), 1);
}

TEST(IPv4Address, ToStringRoundTrip) {
  const IPv4Address a = IPv4Address::FromOctets(10, 20, 30, 40);
  EXPECT_EQ(a.ToString(), "10.20.30.40");
  EXPECT_EQ(IPv4Address::Parse(a.ToString()), a);
}

struct ParseCase {
  const char* text;
  bool valid;
};

// Prints the case by value so the generated test names stay the same from run
// to run; gtest's default dump of the raw bytes would include the pointer.
void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << (*c.text == '\0' ? "<empty>" : c.text) << (c.valid ? " valid" : " invalid");
}

class IPv4ParseTest : public ::testing::TestWithParam<ParseCase> {};

TEST_P(IPv4ParseTest, ParsesOrRejects) {
  const ParseCase& c = GetParam();
  EXPECT_EQ(IPv4Address::Parse(c.text).has_value(), c.valid) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IPv4ParseTest,
    ::testing::Values(ParseCase{"0.0.0.0", true}, ParseCase{"255.255.255.255", true},
                      ParseCase{"1.2.3.4", true}, ParseCase{"256.1.1.1", false},
                      ParseCase{"1.2.3", false}, ParseCase{"1.2.3.4.5", false},
                      ParseCase{"", false}, ParseCase{"a.b.c.d", false},
                      ParseCase{"1.2.3.-4", false}, ParseCase{"1..3.4", false}));

// Each octet goes through ParseInt64, which trims, allows a leading '+' and
// leading zeros; a parser that stops splitting into strings must keep that.
TEST(IPv4Address, LenientOctetShapesArePinned) {
  const IPv4Address want = IPv4Address::FromOctets(1, 2, 3, 4);
  EXPECT_EQ(IPv4Address::Parse("01.2.3.4"), want);
  EXPECT_EQ(IPv4Address::Parse(" 1.2.3.4"), want);
  EXPECT_EQ(IPv4Address::Parse("1.+2.3.4"), want);
  EXPECT_EQ(IPv4Address::Parse("1.2.3.4 "), want);
  EXPECT_EQ(IPv4Address::Parse("1. 2 .3.004"), want);
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.4.").has_value());
  EXPECT_FALSE(IPv4Address::Parse(".1.2.3.4").has_value());
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.+-4").has_value());
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.4x").has_value());
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.256").has_value());
}

TEST(IPv4Address, Ordering) {
  EXPECT_LT(IPv4Address::FromOctets(1, 0, 0, 0), IPv4Address::FromOctets(2, 0, 0, 0));
  EXPECT_EQ(IPv4Address(5), IPv4Address(5));
}

TEST(Asn, ToString) {
  EXPECT_EQ(Asn(12345).ToString(), "AS12345");
  EXPECT_EQ(Asn().value(), 0u);
}

TEST(Subnet, CanonicalizesHostBits) {
  const Subnet s(IPv4Address::FromOctets(192, 0, 2, 123), 24);
  EXPECT_EQ(s.network(), IPv4Address::FromOctets(192, 0, 2, 0));
  EXPECT_EQ(s.ToString(), "192.0.2.0/24");
}

TEST(Subnet, ContainsBoundaries) {
  const Subnet s(IPv4Address::FromOctets(10, 1, 0, 0), 16);
  EXPECT_TRUE(s.Contains(IPv4Address::FromOctets(10, 1, 0, 0)));
  EXPECT_TRUE(s.Contains(IPv4Address::FromOctets(10, 1, 255, 255)));
  EXPECT_FALSE(s.Contains(IPv4Address::FromOctets(10, 2, 0, 0)));
  EXPECT_FALSE(s.Contains(IPv4Address::FromOctets(9, 255, 255, 255)));
}

TEST(Subnet, SizeAndRange) {
  const Subnet s(IPv4Address::FromOctets(172, 16, 0, 0), 12);
  EXPECT_EQ(s.size(), 1u << 20);
  EXPECT_EQ(s.first(), IPv4Address::FromOctets(172, 16, 0, 0));
  EXPECT_EQ(s.last(), IPv4Address::FromOctets(172, 31, 255, 255));
}

TEST(Subnet, ZeroPrefixCoversEverything) {
  const Subnet s(IPv4Address(0), 0);
  EXPECT_TRUE(s.Contains(IPv4Address::FromOctets(255, 255, 255, 255)));
  EXPECT_EQ(s.size(), std::uint64_t{1} << 32);
}

TEST(Subnet, SlashThirtyTwoIsSingleHost) {
  const Subnet s(IPv4Address::FromOctets(8, 8, 8, 8), 32);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Contains(IPv4Address::FromOctets(8, 8, 8, 8)));
  EXPECT_FALSE(s.Contains(IPv4Address::FromOctets(8, 8, 8, 9)));
}

TEST(Subnet, ParseValid) {
  const auto s = Subnet::Parse("192.0.2.128/25");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->prefix_length(), 25);
  EXPECT_EQ(s->network(), IPv4Address::FromOctets(192, 0, 2, 128));
}

TEST(Subnet, ParseInvalid) {
  EXPECT_FALSE(Subnet::Parse("192.0.2.0").has_value());
  EXPECT_FALSE(Subnet::Parse("192.0.2.0/33").has_value());
  EXPECT_FALSE(Subnet::Parse("192.0.2.0/-1").has_value());
  EXPECT_FALSE(Subnet::Parse("bad/24").has_value());
}

TEST(Subnet, ConstructorRejectsBadPrefix) {
  EXPECT_THROW(Subnet(IPv4Address(0), 33), std::invalid_argument);
  EXPECT_THROW(Subnet(IPv4Address(0), -1), std::invalid_argument);
}

}  // namespace
}  // namespace ddos::net
