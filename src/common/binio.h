// Little-endian binary serialization primitives plus an FNV-1a checksum.
//
// The checkpoint layer (stream/checkpoint.h) persists sketch and engine
// state as fixed-width little-endian scalars so files are portable across
// machines regardless of host endianness. Readers throw std::runtime_error
// on short reads: a torn checkpoint must fail loudly, never yield a
// half-restored engine. Doubles round-trip bit-exactly via bit_cast so a
// resumed run is numerically identical to an uninterrupted one.
#ifndef DDOSCOPE_COMMON_BINIO_H_
#define DDOSCOPE_COMMON_BINIO_H_

#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace ddos::io {

inline void WriteU64(std::ostream& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 8);
}

inline std::uint64_t ReadU64(std::istream& in) {
  char b[8];
  if (!in.read(b, 8)) throw std::runtime_error("binio: unexpected end of input");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i])) << (8 * i);
  }
  return v;
}

inline void WriteU32(std::ostream& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 4);
}

inline std::uint32_t ReadU32(std::istream& in) {
  char b[4];
  if (!in.read(b, 4)) throw std::runtime_error("binio: unexpected end of input");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i])) << (8 * i);
  }
  return v;
}

inline void WriteU16(std::ostream& out, std::uint16_t v) {
  WriteU32(out, v);
}

inline std::uint16_t ReadU16(std::istream& in) {
  const std::uint32_t v = ReadU32(in);
  if (v > 0xffff) throw std::runtime_error("binio: u16 out of range");
  return static_cast<std::uint16_t>(v);
}

inline void WriteI64(std::ostream& out, std::int64_t v) {
  WriteU64(out, static_cast<std::uint64_t>(v));
}

inline std::int64_t ReadI64(std::istream& in) {
  return static_cast<std::int64_t>(ReadU64(in));
}

// A stored second count (timestamp, duration, window). The bound, about
// 35,000 years either way, is far past any real value and keeps sums and
// differences of a few decoded values inside int64: a corrupt field throws
// here instead of overflowing in later arithmetic.
inline constexpr std::int64_t kMaxStoredSeconds = std::int64_t{1} << 40;

inline std::int64_t ReadSeconds(std::istream& in) {
  const std::int64_t v = ReadI64(in);
  if (v < -kMaxStoredSeconds || v > kMaxStoredSeconds) {
    throw std::runtime_error("binio: second count out of range");
  }
  return v;
}

inline void WriteF64(std::ostream& out, double v) {
  WriteU64(out, std::bit_cast<std::uint64_t>(v));
}

inline double ReadF64(std::istream& in) {
  return std::bit_cast<double>(ReadU64(in));
}

// Length-prefixed string. The length cap rejects garbage prefixes before a
// multi-gigabyte allocation rather than after.
inline constexpr std::uint32_t kMaxStringBytes = 1u << 20;

inline void WriteString(std::ostream& out, const std::string& s) {
  if (s.size() > kMaxStringBytes) {
    throw std::runtime_error("binio: string too long");
  }
  WriteU32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::string ReadString(std::istream& in) {
  const std::uint32_t n = ReadU32(in);
  if (n > kMaxStringBytes) throw std::runtime_error("binio: string too long");
  std::string s(n, '\0');
  if (n > 0 && !in.read(s.data(), n)) {
    throw std::runtime_error("binio: unexpected end of input");
  }
  return s;
}

// Overload set used by templated containers (e.g. SpaceSaving<Key>).
inline void WriteValue(std::ostream& out, std::uint32_t v) { WriteU32(out, v); }
inline void WriteValue(std::ostream& out, std::uint64_t v) { WriteU64(out, v); }
inline void WriteValue(std::ostream& out, const std::string& s) {
  WriteString(out, s);
}
inline void ReadValue(std::istream& in, std::uint32_t* v) { *v = ReadU32(in); }
inline void ReadValue(std::istream& in, std::uint64_t* v) { *v = ReadU64(in); }
inline void ReadValue(std::istream& in, std::string* s) { *s = ReadString(in); }

// FNV-1a 64-bit rolling checksum; cheap, dependency-free, and sufficient to
// detect the torn or bit-rotted checkpoints the resume path must refuse.
class Fnv1a64 {
 public:
  void Update(const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= static_cast<unsigned char>(data[i]);
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Update(const std::string& s) { Update(s.data(), s.size()); }
  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace ddos::io

#endif  // DDOSCOPE_COMMON_BINIO_H_
