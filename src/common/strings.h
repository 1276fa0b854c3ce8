// Small string utilities shared across ddoscope.
//
// libstdc++ 12 does not ship <format>, so `StrFormat` wraps vsnprintf with a
// std::string return. Everything here is allocation-conscious but favors
// clarity. ParseInt64 and EqualsIgnoreCase sit on the per-row CSV parse, so
// they have fast paths for the common shapes and allocate nothing.
#ifndef DDOSCOPE_COMMON_STRINGS_H_
#define DDOSCOPE_COMMON_STRINGS_H_

#include <cstdarg>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ddos {

// printf-style formatting into a std::string.
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string StrFormat(const char* fmt, ...);

// Splits on a single character; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char sep);

// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// ASCII lowercase copy.
std::string ToLower(std::string_view text);

// True when a and b are equal after folding ASCII A-Z to a-z; every other
// byte (non-ASCII included) must match exactly, as ToLower(a) == ToLower(b).
inline bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char x = a[i] >= 'A' && a[i] <= 'Z' ? a[i] - 'A' + 'a' : a[i];
    const char y = b[i] >= 'A' && b[i] <= 'Z' ? b[i] - 'A' + 'a' : b[i];
    if (x != y) return false;
  }
  return true;
}

// Strict integer / double parsing of the whole (trimmed) field.
std::optional<std::int64_t> ParseInt64(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);

}  // namespace ddos

#endif  // DDOSCOPE_COMMON_STRINGS_H_
