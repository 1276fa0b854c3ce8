// Botnet family and attack-protocol taxonomy.
//
// The dataset tracks 23 botnet families of which 10 are active enough to be
// characterized (Section III): Aldibot, Blackenergy, Colddeath, Darkshell,
// Ddoser, Dirtjumper, Nitol, Optima, Pandora and YZF. The remaining minor
// families appear in botnet/bot listings but contribute a negligible number
// of attacks. Attack categories ("the nature of the attack", Table I) take
// one of seven protocol values (Fig 1).
#ifndef DDOSCOPE_DATA_TAXONOMY_H_
#define DDOSCOPE_DATA_TAXONOMY_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace ddos::data {

enum class Family : std::uint8_t {
  // The 10 active families characterized throughout the paper.
  kAldibot,
  kBlackenergy,
  kColddeath,
  kDarkshell,
  kDdoser,
  kDirtjumper,
  kNitol,
  kOptima,
  kPandora,
  kYzf,
  // Minor families: tracked in the botnet listings, near-zero attack volume.
  kArmageddon,
  kIllusion,
  kInfinity,
  kImddos,
  kGumblar,
  kZeus,
  kKelihos,
  kAsprox,
  kFesti,
  kWaledac,
  kTorpig,
  kRamnit,
  kVirut,
};

inline constexpr int kFamilyCount = 23;
inline constexpr int kActiveFamilyCount = 10;

// The 10 active families, in the paper's (alphabetical) order.
std::span<const Family> ActiveFamilies();
// All 23 families.
std::span<const Family> AllFamilies();

// The family whose enum value is `index`; nullopt past the last one, so a
// decoder of stored state never casts an out-of-range value into a Family.
inline std::optional<Family> FamilyFromIndex(std::uint32_t index) {
  if (index >= static_cast<std::uint32_t>(kFamilyCount)) return std::nullopt;
  return static_cast<Family>(index);
}

std::string_view FamilyName(Family f);
// Case-insensitive for ASCII letters only (EqualsIgnoreCase).
std::optional<Family> ParseFamily(std::string_view name);
bool IsActive(Family f);

enum class Protocol : std::uint8_t {
  kHttp,
  kTcp,
  kUdp,
  kIcmp,
  kSyn,
  kUndetermined,  // attack using multiple protocols
  kUnknown,       // traffic of unknown type
};

inline constexpr int kProtocolCount = 7;

std::span<const Protocol> AllProtocols();
std::string_view ProtocolName(Protocol p);
std::optional<Protocol> ParseProtocol(std::string_view name);  // ditto

}  // namespace ddos::data

#endif  // DDOSCOPE_DATA_TAXONOMY_H_
