#include "net/ipv4.h"

#include <stdexcept>

#include "common/strings.h"

namespace ddos::net {

std::optional<IPv4Address> IPv4Address::Parse(std::string_view text) {
  // Fast path: plain dotted decimal, 1-3 digits and at most 255 per octet.
  std::uint32_t bits = 0;
  std::uint32_t octet = 0;
  int digits = 0;
  int dots = 0;
  bool plain = true;
  for (const char c : text) {
    if (c >= '0' && c <= '9' && digits < 3) {
      octet = octet * 10 + static_cast<std::uint32_t>(c - '0');
      ++digits;
    } else if (c == '.' && digits > 0 && dots < 3 && octet <= 255) {
      bits = (bits << 8) | octet;
      octet = 0;
      digits = 0;
      ++dots;
    } else {
      plain = false;
      break;
    }
  }
  if (plain && dots == 3 && digits > 0 && octet <= 255) {
    return IPv4Address((bits << 8) | octet);
  }
  // Anything else: four '.'-separated parts, each read by ParseInt64 (which
  // trims and takes a '+'). A stray fifth part needs no count: it leaves a
  // '.' in the last part, which ParseInt64 rejects.
  bits = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t dot = i < 3 ? text.find('.') : text.size();
    if (dot == std::string_view::npos) return std::nullopt;
    const auto v = ParseInt64(text.substr(0, dot));
    if (!v || *v < 0 || *v > 255) return std::nullopt;
    bits = (bits << 8) | static_cast<std::uint32_t>(*v);
    if (i < 3) text.remove_prefix(dot + 1);
  }
  return IPv4Address(bits);
}

std::string IPv4Address::ToString() const {
  return StrFormat("%u.%u.%u.%u", octet(0), octet(1), octet(2), octet(3));
}

std::string Asn::ToString() const { return StrFormat("AS%u", value_); }

Subnet::Subnet(IPv4Address network, int prefix_length)
    : prefix_length_(prefix_length) {
  if (prefix_length < 0 || prefix_length > 32) {
    throw std::invalid_argument("Subnet: prefix length out of range");
  }
  const std::uint32_t mask =
      prefix_length == 0 ? 0u : ~std::uint32_t{0} << (32 - prefix_length);
  network_ = IPv4Address(network.bits() & mask);
}

std::optional<Subnet> Subnet::Parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = IPv4Address::Parse(text.substr(0, slash));
  const auto len = ParseInt64(text.substr(slash + 1));
  if (!addr || !len || *len < 0 || *len > 32) return std::nullopt;
  return Subnet(*addr, static_cast<int>(*len));
}

bool Subnet::Contains(IPv4Address addr) const {
  const std::uint32_t mask =
      prefix_length_ == 0 ? 0u : ~std::uint32_t{0} << (32 - prefix_length_);
  return (addr.bits() & mask) == network_.bits();
}

std::string Subnet::ToString() const {
  return StrFormat("%s/%d", network_.ToString().c_str(), prefix_length_);
}

}  // namespace ddos::net
