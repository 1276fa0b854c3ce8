#include "common/time.h"

#include <cstdio>
#include <stdexcept>

namespace ddos {

std::int64_t DaysFromCivil(const CivilDate& d) {
  // Howard Hinnant, "chrono-Compatible Low-Level Date Algorithms".
  std::int64_t y = d.year;
  const unsigned m = static_cast<unsigned>(d.month);
  const unsigned day = static_cast<unsigned>(d.day);
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);             // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + day - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

CivilDate CivilFromDays(std::int64_t z) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);            // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);            // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                                 // [0, 11]
  const unsigned day = doy - (153 * mp + 2) / 5 + 1;                       // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                              // [1, 12]
  return CivilDate{static_cast<int>(y + (m <= 2)), static_cast<int>(m),
                   static_cast<int>(day)};
}

bool IsValidDate(const CivilDate& d) {
  if (d.month < 1 || d.month > 12 || d.day < 1) return false;
  static constexpr int kDaysInMonth[12] = {31, 28, 31, 30, 31, 30,
                                           31, 31, 30, 31, 30, 31};
  int max_day = kDaysInMonth[d.month - 1];
  const bool leap =
      (d.year % 4 == 0 && d.year % 100 != 0) || (d.year % 400 == 0);
  if (d.month == 2 && leap) max_day = 29;
  return d.day <= max_day;
}

TimePoint TimePoint::FromCivil(const CivilTime& ct) {
  return TimePoint(DaysFromCivil(ct.date) * kSecondsPerDay +
                   ct.hour * kSecondsPerHour + ct.minute * kSecondsPerMinute +
                   ct.second);
}

TimePoint TimePoint::FromDate(int year, int month, int day) {
  return FromCivil(CivilTime{CivilDate{year, month, day}, 0, 0, 0});
}

TimePoint TimePoint::Parse(const std::string& text) {
  const auto tp = TryParse(text);
  if (!tp) {
    throw std::invalid_argument("TimePoint::Parse: bad date/time: " + text);
  }
  return *tp;
}

namespace {

inline bool IsSpaceAscii(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// One sscanf-%d worth of input: optional whitespace, optional sign, at
// least one digit. Values wider than 18 digits are rejected outright
// (every calendar field is orders of magnitude smaller).
bool ScanInt(const char*& p, const char* end, std::int64_t* out) {
  while (p != end && IsSpaceAscii(*p)) ++p;
  bool neg = false;
  if (p != end && (*p == '+' || *p == '-')) {
    neg = (*p == '-');
    ++p;
  }
  if (p == end || *p < '0' || *p > '9') return false;
  std::int64_t v = 0;
  int digits = 0;
  while (p != end && *p >= '0' && *p <= '9') {
    if (++digits > 18) return false;
    v = v * 10 + (*p - '0');
    ++p;
  }
  *out = neg ? -v : v;
  return true;
}

constexpr std::int64_t kMaxCalendarField = 1000000;  // fits int comfortably

// Reads `width` digits at text[pos]; false if any byte is not a digit.
bool FixedDigits(std::string_view text, std::size_t pos, std::size_t width,
                 int* out) {
  int v = 0;
  for (std::size_t i = pos; i < pos + width; ++i) {
    const unsigned d = static_cast<unsigned char>(text[i]) - '0';
    if (d > 9) return false;
    v = v * 10 + static_cast<int>(d);
  }
  *out = v;
  return true;
}

// The exact "YYYY-MM-DD HH:MM:SS" shape every writer in ddoscope emits.
// Returns false for any other shape (not for an invalid value), which the
// general scanner then reads.
bool TryParseFixed(std::string_view text, std::optional<TimePoint>* out) {
  if (text.size() != 19 || text[4] != '-' || text[7] != '-' ||
      text[10] != ' ' || text[13] != ':' || text[16] != ':') {
    return false;
  }
  CivilTime ct;
  if (!FixedDigits(text, 0, 4, &ct.date.year) ||
      !FixedDigits(text, 5, 2, &ct.date.month) ||
      !FixedDigits(text, 8, 2, &ct.date.day) ||
      !FixedDigits(text, 11, 2, &ct.hour) ||
      !FixedDigits(text, 14, 2, &ct.minute) ||
      !FixedDigits(text, 17, 2, &ct.second)) {
    return false;
  }
  if (!IsValidDate(ct.date) || ct.hour > 23 || ct.minute > 59 ||
      ct.second > 59) {
    *out = std::nullopt;
  } else {
    *out = TimePoint::FromCivil(ct);
  }
  return true;
}

}  // namespace

std::optional<TimePoint> TimePoint::TryParse(std::string_view text) noexcept {
  if (std::optional<TimePoint> fixed; TryParseFixed(text, &fixed)) {
    return fixed;
  }
  const char* p = text.data();
  const char* const end = p + text.size();
  std::int64_t year = 0, month = 0, day = 0;
  if (!ScanInt(p, end, &year) || p == end || *p != '-') return std::nullopt;
  ++p;
  if (!ScanInt(p, end, &month) || p == end || *p != '-') return std::nullopt;
  ++p;
  if (!ScanInt(p, end, &day)) return std::nullopt;
  if (year < -kMaxCalendarField || year > kMaxCalendarField ||
      month < -kMaxCalendarField || month > kMaxCalendarField ||
      day < -kMaxCalendarField || day > kMaxCalendarField) {
    return std::nullopt;
  }
  CivilTime ct;
  ct.date = CivilDate{static_cast<int>(year), static_cast<int>(month),
                      static_cast<int>(day)};
  if (!IsValidDate(ct.date)) return std::nullopt;
  if (p != end) {
    std::int64_t hour = 0, minute = 0, second = 0;
    if (!ScanInt(p, end, &hour) || p == end || *p != ':') return std::nullopt;
    ++p;
    if (!ScanInt(p, end, &minute) || p == end || *p != ':') return std::nullopt;
    ++p;
    if (!ScanInt(p, end, &second)) return std::nullopt;
    if (hour < 0 || hour > 23 || minute < 0 || minute > 59 || second < 0 ||
        second > 59) {
      return std::nullopt;
    }
    // Trailing bytes after the seconds field are tolerated, matching the
    // sscanf-based parser this replaced.
    ct.hour = static_cast<int>(hour);
    ct.minute = static_cast<int>(minute);
    ct.second = static_cast<int>(second);
  }
  return FromCivil(ct);
}

CivilTime TimePoint::ToCivil() const {
  std::int64_t days = secs_ / kSecondsPerDay;
  std::int64_t rem = secs_ % kSecondsPerDay;
  if (rem < 0) {
    rem += kSecondsPerDay;
    --days;
  }
  CivilTime ct;
  ct.date = CivilFromDays(days);
  ct.hour = static_cast<int>(rem / kSecondsPerHour);
  ct.minute = static_cast<int>((rem % kSecondsPerHour) / kSecondsPerMinute);
  ct.second = static_cast<int>(rem % kSecondsPerMinute);
  return ct;
}

std::string TimePoint::ToString() const {
  const CivilTime ct = ToCivil();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", ct.date.year,
                ct.date.month, ct.date.day, ct.hour, ct.minute, ct.second);
  return buf;
}

std::string TimePoint::ToDateString() const {
  const CivilTime ct = ToCivil();
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", ct.date.year, ct.date.month,
                ct.date.day);
  return buf;
}

namespace {
std::int64_t FloorDiv(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}
}  // namespace

std::int64_t DayIndex(TimePoint t, TimePoint origin) {
  return FloorDiv(t - origin, kSecondsPerDay);
}

std::int64_t WeekIndex(TimePoint t, TimePoint origin) {
  return FloorDiv(t - origin, kSecondsPerWeek);
}

TimePoint StartOfDay(TimePoint t) {
  return TimePoint(FloorDiv(t.seconds(), kSecondsPerDay) * kSecondsPerDay);
}

}  // namespace ddos
