#include "common/strings.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace ddos {
namespace {

TEST(StrFormat, BasicFormatting) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StrFormat, LongOutput) {
  const std::string big(500, 'a');
  EXPECT_EQ(StrFormat("%s", big.c_str()).size(), 500u);
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, SingleField) {
  const auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, TrailingSeparator) {
  const auto parts = Split("a,b,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(Split, EmptyInput) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Trim, StripsAsciiWhitespace) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(Join, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(ToLower, LowersAscii) {
  EXPECT_EQ(ToLower("Http"), "http");
  EXPECT_EQ(ToLower("ABC-123"), "abc-123");
}

TEST(ParseInt64, ValidValues) {
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-7"), -7);
  EXPECT_EQ(ParseInt64("  19 "), 19);  // trimmed
  EXPECT_EQ(ParseInt64("0"), 0);
}

TEST(ParseInt64, InvalidValues) {
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("abc").has_value());
  EXPECT_FALSE(ParseInt64("12x").has_value());
  EXPECT_FALSE(ParseInt64("1.5").has_value());
}

// The shapes a digits-only fast path would shortcut: each must parse exactly
// as the general trim/sign/from_chars path does.
TEST(ParseInt64, EdgeShapesArePinned) {
  EXPECT_EQ(ParseInt64(" 19 "), 19);
  EXPECT_EQ(ParseInt64("+5"), 5);
  EXPECT_FALSE(ParseInt64("+-5").has_value());
  EXPECT_FALSE(ParseInt64("++5").has_value());
  EXPECT_FALSE(ParseInt64("+").has_value());
  EXPECT_FALSE(ParseInt64("-").has_value());
  EXPECT_EQ(ParseInt64("-0"), 0);
  EXPECT_EQ(ParseInt64("007"), 7);
  EXPECT_EQ(ParseInt64("123456789012345678"), 123456789012345678);  // 18
  EXPECT_EQ(ParseInt64("999999999999999999"), 999999999999999999);  // 18
  EXPECT_EQ(ParseInt64("1234567890123456789"), 1234567890123456789);  // 19
  EXPECT_EQ(ParseInt64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(ParseInt64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(ParseInt64("9223372036854775808").has_value());
  EXPECT_FALSE(ParseInt64("-9223372036854775809").has_value());
  EXPECT_FALSE(ParseInt64("99999999999999999999").has_value());
  EXPECT_FALSE(ParseInt64("1 2").has_value());
}

TEST(EqualsIgnoreCase, FoldsAsciiLettersOnly) {
  EXPECT_TRUE(EqualsIgnoreCase("HTTP", "http"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("HTTP", "HTTPS"));
  EXPECT_FALSE(EqualsIgnoreCase("@", "`"));  // 0x40 vs 0x60
  EXPECT_FALSE(EqualsIgnoreCase("\xC9", "\xE9"));  // Latin-1 E-acute pair
}

TEST(ParseDouble, ValidValues) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2e3").value(), -2000.0);
  EXPECT_DOUBLE_EQ(ParseDouble(" 7 ").value(), 7.0);
}

TEST(ParseDouble, InvalidValues) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("x").has_value());
  EXPECT_FALSE(ParseDouble("1.5 extra").has_value());
}

}  // namespace
}  // namespace ddos
