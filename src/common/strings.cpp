#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace ddos {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    // vsnprintf writes the terminating NUL into out[needed]; std::string
    // guarantees data()[size()] is writable as '\0' since C++11.
    std::vsnprintf(out.data(), static_cast<std::size_t>(needed) + 1, fmt,
                   args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view Trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

namespace {

// from_chars rejects the explicit leading '+' that strtoll/strtod accepted;
// strip it here so the switch stays invisible to callers. "+-5" must still
// fail, so a sign directly after the plus is rejected.
std::string_view StripLeadingPlus(std::string_view s, bool* ok) {
  *ok = true;
  if (s.empty() || s.front() != '+') return s;
  s.remove_prefix(1);
  if (s.empty() || s.front() == '-' || s.front() == '+') *ok = false;
  return s;
}

}  // namespace

std::optional<std::int64_t> ParseInt64(std::string_view text) {
  // Fast path: 1-18 plain digits (every id, ASN and octet in the feed)
  // cannot overflow and need no trimming or sign handling.
  if (!text.empty() && text.size() <= 18) {
    std::int64_t v = 0;
    std::size_t i = 0;
    for (; i < text.size(); ++i) {
      const unsigned d = static_cast<unsigned char>(text[i]) - '0';
      if (d > 9) break;
      v = v * 10 + d;
    }
    if (i == text.size()) return v;
  }
  bool ok = false;
  const std::string_view s = StripLeadingPlus(Trim(text), &ok);
  if (!ok || s.empty()) return std::nullopt;
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<double> ParseDouble(std::string_view text) {
  bool ok = false;
  const std::string_view s = StripLeadingPlus(Trim(text), &ok);
  if (!ok || s.empty()) return std::nullopt;
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace ddos
