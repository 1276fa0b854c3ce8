#include "common/time.h"

#include <gtest/gtest.h>

namespace ddos {
namespace {

TEST(CivilDate, EpochIsDayZero) {
  EXPECT_EQ(DaysFromCivil({1970, 1, 1}), 0);
}

TEST(CivilDate, KnownDates) {
  EXPECT_EQ(DaysFromCivil({1970, 1, 2}), 1);
  EXPECT_EQ(DaysFromCivil({1969, 12, 31}), -1);
  EXPECT_EQ(DaysFromCivil({2000, 3, 1}), 11017);
  EXPECT_EQ(DaysFromCivil({2012, 8, 29}), 15581);
}

TEST(CivilDate, RoundTripsAcrossRange) {
  for (std::int64_t day = -200000; day <= 200000; day += 97) {
    const CivilDate d = CivilFromDays(day);
    EXPECT_EQ(DaysFromCivil(d), day);
    EXPECT_TRUE(IsValidDate(d));
  }
}

TEST(CivilDate, LeapYearValidation) {
  EXPECT_TRUE(IsValidDate({2012, 2, 29}));    // divisible by 4
  EXPECT_FALSE(IsValidDate({2013, 2, 29}));
  EXPECT_FALSE(IsValidDate({1900, 2, 29}));   // century, not by 400
  EXPECT_TRUE(IsValidDate({2000, 2, 29}));    // divisible by 400
}

TEST(CivilDate, RejectsOutOfRangeFields) {
  EXPECT_FALSE(IsValidDate({2012, 0, 1}));
  EXPECT_FALSE(IsValidDate({2012, 13, 1}));
  EXPECT_FALSE(IsValidDate({2012, 4, 31}));
  EXPECT_FALSE(IsValidDate({2012, 1, 0}));
}

TEST(TimePoint, FromDateMatchesSeconds) {
  EXPECT_EQ(TimePoint::FromDate(1970, 1, 1).seconds(), 0);
  EXPECT_EQ(TimePoint::FromDate(1970, 1, 2).seconds(), kSecondsPerDay);
}

TEST(TimePoint, CivilRoundTrip) {
  const CivilTime ct{{2012, 8, 30}, 13, 45, 59};
  const TimePoint t = TimePoint::FromCivil(ct);
  EXPECT_EQ(t.ToCivil(), ct);
}

TEST(TimePoint, CivilRoundTripNegativeTimes) {
  const TimePoint t(-1);  // 1969-12-31 23:59:59
  const CivilTime ct = t.ToCivil();
  EXPECT_EQ(ct.date.year, 1969);
  EXPECT_EQ(ct.date.month, 12);
  EXPECT_EQ(ct.date.day, 31);
  EXPECT_EQ(ct.hour, 23);
  EXPECT_EQ(ct.second, 59);
}

TEST(TimePoint, ToStringFormats) {
  const TimePoint t = TimePoint::FromCivil({{2012, 8, 29}, 7, 5, 3});
  EXPECT_EQ(t.ToString(), "2012-08-29 07:05:03");
  EXPECT_EQ(t.ToDateString(), "2012-08-29");
}

TEST(TimePoint, ParseDateOnly) {
  EXPECT_EQ(TimePoint::Parse("2012-08-29"), TimePoint::FromDate(2012, 8, 29));
}

TEST(TimePoint, ParseDateTime) {
  EXPECT_EQ(TimePoint::Parse("2012-08-29 07:05:03"),
            TimePoint::FromCivil({{2012, 8, 29}, 7, 5, 3}));
}

TEST(TimePoint, ParseRoundTripsToString) {
  const TimePoint t(1351503296);
  EXPECT_EQ(TimePoint::Parse(t.ToString()), t);
}

TEST(TimePoint, ParseRejectsGarbage) {
  EXPECT_THROW(TimePoint::Parse("not a date"), std::invalid_argument);
  EXPECT_THROW(TimePoint::Parse("2012-13-01"), std::invalid_argument);
  EXPECT_THROW(TimePoint::Parse("2012-02-30"), std::invalid_argument);
  EXPECT_THROW(TimePoint::Parse("2012-08-29 25:00:00"), std::invalid_argument);
  EXPECT_THROW(TimePoint::Parse("2012-08-29 10:61:00"), std::invalid_argument);
}

// The shapes a fixed-position "YYYY-MM-DD HH:MM:SS" fast path must either
// handle identically or hand to the general scanner.
TEST(TimePoint, TryParseEdgeShapesArePinned) {
  EXPECT_EQ(TimePoint::TryParse("2012-6-1 1:2:3"),
            TimePoint::FromCivil({{2012, 6, 1}, 1, 2, 3}));
  EXPECT_FALSE(TimePoint::TryParse("2012-02-30 00:00:00").has_value());
  EXPECT_EQ(TimePoint::TryParse("2012-02-29 00:00:00"),
            TimePoint::FromDate(2012, 2, 29));
  EXPECT_FALSE(TimePoint::TryParse("2011-02-29 00:00:00").has_value());
  EXPECT_FALSE(TimePoint::TryParse("2012-06-01 24:00:00").has_value());
  EXPECT_FALSE(TimePoint::TryParse("2012-06-01 23:60:00").has_value());
  EXPECT_FALSE(TimePoint::TryParse("2012-06-01 23:59:60").has_value());
  EXPECT_FALSE(TimePoint::TryParse("2012-00-01 00:00:00").has_value());
  EXPECT_FALSE(TimePoint::TryParse("2012-06-00 00:00:00").has_value());
  const TimePoint t = TimePoint::FromCivil({{2012, 6, 1}, 10, 20, 30});
  // Trailing bytes after the seconds field are tolerated.
  EXPECT_EQ(TimePoint::TryParse("2012-06-01 10:20:30xyz"), t);
  EXPECT_EQ(TimePoint::TryParse("2012-06-01 10:20:30 "), t);
  // Same length as the fixed shape, but the last digit is not one.
  EXPECT_EQ(TimePoint::TryParse("2012-06-01 10:20:3x"),
            TimePoint::FromCivil({{2012, 6, 1}, 10, 20, 3}));
  // Leading whitespace before each number is skipped.
  EXPECT_EQ(TimePoint::TryParse(" 2012-06-01 10:20:30"), t);
  EXPECT_EQ(TimePoint::TryParse("2012-06-01  10:20:30"), t);
  EXPECT_FALSE(TimePoint::TryParse("2012-06-01T10:20:30").has_value());
  EXPECT_FALSE(TimePoint::TryParse("2012/06/01 10:20:30").has_value());
  EXPECT_FALSE(TimePoint::TryParse("2012-06-01 10-20-30").has_value());
  EXPECT_EQ(TimePoint::TryParse("0000-01-01 00:00:00"),
            TimePoint::FromDate(0, 1, 1));
  EXPECT_EQ(TimePoint::TryParse("2012-06-01"), TimePoint::FromDate(2012, 6, 1));
}

TEST(TimePoint, Arithmetic) {
  const TimePoint t = TimePoint::FromDate(2012, 8, 29);
  EXPECT_EQ((t + 3600) - t, 3600);
  EXPECT_EQ((t - 60).seconds(), t.seconds() - 60);
  EXPECT_LT(t, t + 1);
}

TEST(DayIndex, CountsWholeDays) {
  const TimePoint origin = TimePoint::FromDate(2012, 8, 29);
  EXPECT_EQ(DayIndex(origin, origin), 0);
  EXPECT_EQ(DayIndex(origin + kSecondsPerDay - 1, origin), 0);
  EXPECT_EQ(DayIndex(origin + kSecondsPerDay, origin), 1);
  EXPECT_EQ(DayIndex(origin - 1, origin), -1);  // floor semantics
}

TEST(WeekIndex, CountsWholeWeeks) {
  const TimePoint origin = TimePoint::FromDate(2012, 8, 29);
  EXPECT_EQ(WeekIndex(origin + 6 * kSecondsPerDay, origin), 0);
  EXPECT_EQ(WeekIndex(origin + 7 * kSecondsPerDay, origin), 1);
  EXPECT_EQ(WeekIndex(origin + 20 * kSecondsPerDay, origin), 2);
}

TEST(StartOfDay, TruncatesToMidnight) {
  const TimePoint t = TimePoint::FromCivil({{2012, 8, 29}, 23, 59, 59});
  EXPECT_EQ(StartOfDay(t), TimePoint::FromDate(2012, 8, 29));
  EXPECT_EQ(StartOfDay(TimePoint::FromDate(2012, 8, 29)),
            TimePoint::FromDate(2012, 8, 29));
}

// The paper's observation window: 2012-08-29 .. 2013-03-24 is 207 days.
TEST(PaperWindow, Is207Days) {
  const TimePoint begin = TimePoint::FromDate(2012, 8, 29);
  const TimePoint end = TimePoint::FromDate(2013, 3, 24);
  EXPECT_EQ(DayIndex(end, begin), 207);
}

}  // namespace
}  // namespace ddos
