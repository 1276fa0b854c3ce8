#include "data/taxonomy.h"

#include "common/strings.h"

namespace ddos::data {

namespace {

constexpr std::array<Family, kActiveFamilyCount> kActive = {
    Family::kAldibot,    Family::kBlackenergy, Family::kColddeath,
    Family::kDarkshell,  Family::kDdoser,      Family::kDirtjumper,
    Family::kNitol,      Family::kOptima,      Family::kPandora,
    Family::kYzf,
};

constexpr std::array<Family, kFamilyCount> kAll = {
    Family::kAldibot,    Family::kBlackenergy, Family::kColddeath,
    Family::kDarkshell,  Family::kDdoser,      Family::kDirtjumper,
    Family::kNitol,      Family::kOptima,      Family::kPandora,
    Family::kYzf,        Family::kArmageddon,  Family::kIllusion,
    Family::kInfinity,   Family::kImddos,      Family::kGumblar,
    Family::kZeus,       Family::kKelihos,     Family::kAsprox,
    Family::kFesti,      Family::kWaledac,     Family::kTorpig,
    Family::kRamnit,     Family::kVirut,
};

constexpr std::array<std::string_view, kFamilyCount> kFamilyNames = {
    "aldibot",  "blackenergy", "colddeath", "darkshell", "ddoser",
    "dirtjumper", "nitol",     "optima",    "pandora",   "yzf",
    "armageddon", "illusion",  "infinity",  "imddos",    "gumblar",
    "zeus",     "kelihos",     "asprox",    "festi",     "waledac",
    "torpig",   "ramnit",      "virut",
};

constexpr std::array<Protocol, kProtocolCount> kProtocols = {
    Protocol::kHttp, Protocol::kTcp,          Protocol::kUdp,
    Protocol::kIcmp, Protocol::kSyn,          Protocol::kUndetermined,
    Protocol::kUnknown,
};

constexpr std::array<std::string_view, kProtocolCount> kProtocolNames = {
    "HTTP", "TCP", "UDP", "ICMP", "SYN", "UNDETERMINED", "UNKNOWN",
};

}  // namespace

std::span<const Family> ActiveFamilies() { return kActive; }
std::span<const Family> AllFamilies() { return kAll; }

std::string_view FamilyName(Family f) {
  return kFamilyNames[static_cast<std::size_t>(f)];
}

std::optional<Family> ParseFamily(std::string_view name) {
  for (std::size_t i = 0; i < kFamilyNames.size(); ++i) {
    if (EqualsIgnoreCase(kFamilyNames[i], name)) return kAll[i];
  }
  return std::nullopt;
}

bool IsActive(Family f) {
  return static_cast<int>(f) < kActiveFamilyCount;
}

std::span<const Protocol> AllProtocols() { return kProtocols; }

std::string_view ProtocolName(Protocol p) {
  return kProtocolNames[static_cast<std::size_t>(p)];
}

std::optional<Protocol> ParseProtocol(std::string_view name) {
  for (std::size_t i = 0; i < kProtocolNames.size(); ++i) {
    if (EqualsIgnoreCase(kProtocolNames[i], name)) return kProtocols[i];
  }
  return std::nullopt;
}

}  // namespace ddos::data
