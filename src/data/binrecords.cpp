#include "data/binrecords.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/binio.h"
#include "common/strings.h"
#include "data/taxonomy.h"

namespace ddos::data {

namespace {

constexpr char kMagic[8] = {'D', 'D', 'B', 'I', 'N', 'R', 'E', 'C'};

// Structural sanity caps: refuse to allocate for a block whose header is
// plainly garbage even though its bytes might checksum (e.g. a file that
// is not ours past a colliding prefix).
constexpr std::uint32_t kMaxBlockRecords = 1u << 24;
constexpr std::uint64_t kMaxBlockPayload = 1ull << 31;

using Kind = BinaryFormatError::Kind;

// --- payload building (little-endian appends into a std::string) ---

void PutU8(std::string* s, std::uint8_t v) {
  s->push_back(static_cast<char>(v));
}

void PutU32(std::string* s, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  s->append(b, 4);
}

void PutU64(std::string* s, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  s->append(b, 8);
}

void PutI64(std::string* s, std::int64_t v) {
  PutU64(s, static_cast<std::uint64_t>(v));
}

void PutF64(std::string* s, double v) {
  PutU64(s, std::bit_cast<std::uint64_t>(v));
}

// --- payload decoding (bounds-checked cursor over verified bytes) ---

struct Cursor {
  const char* p;
  const char* end;

  void Need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n) {
      throw BinaryFormatError(Kind::kCorruptField,
                              "column data overruns the block payload");
    }
  }
  std::uint8_t U8() {
    Need(1);
    return static_cast<std::uint8_t>(*p++);
  }
  std::uint32_t U32() {
    Need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    p += 4;
    return v;
  }
  std::uint64_t U64() {
    Need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
    p += 8;
    return v;
  }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  std::string_view Bytes(std::size_t n) {
    Need(n);
    std::string_view v(p, n);
    p += n;
    return v;
  }
};

// One string column: per-block dictionary of unique values + one index per
// record. Dictionary order is first-appearance, so conversion output is
// deterministic for a given input.
void PutStringColumn(std::string* payload,
                     const std::vector<AttackRecord>& records,
                     const std::string& (*get)(const AttackRecord&)) {
  std::unordered_map<std::string_view, std::uint32_t> index;
  std::string dict;
  std::vector<std::uint32_t> idx;
  idx.reserve(records.size());
  for (const AttackRecord& r : records) {
    const std::string& s = get(r);
    auto [it, inserted] =
        index.emplace(s, static_cast<std::uint32_t>(index.size()));
    if (inserted) {
      PutU32(&dict, static_cast<std::uint32_t>(s.size()));
      dict.append(s);
    }
    idx.push_back(it->second);
  }
  PutU32(payload, static_cast<std::uint32_t>(index.size()));
  payload->append(dict);
  for (const std::uint32_t i : idx) PutU32(payload, i);
}

void GetStringColumn(Cursor* cur, std::uint32_t n,
                     std::vector<AttackRecord>* records,
                     std::string AttackRecord::* field) {
  const std::uint32_t m = cur->U32();
  if (m > n) {
    throw BinaryFormatError(Kind::kCorruptField,
                            "string dictionary larger than its block");
  }
  std::vector<std::string_view> dict;
  dict.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    const std::uint32_t len = cur->U32();
    if (len > io::kMaxStringBytes) {
      throw BinaryFormatError(Kind::kCorruptField,
                              "dictionary string exceeds the length cap");
    }
    dict.push_back(cur->Bytes(len));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t idx = cur->U32();
    if (idx >= m) {
      throw BinaryFormatError(Kind::kCorruptField,
                              "string index outside its dictionary");
    }
    (*records)[i].*field = std::string(dict[idx]);
  }
}

}  // namespace

// --- writer ---

BinaryRecordWriter::BinaryRecordWriter(std::ostream& out,
                                       BinaryWriteOptions opts)
    : out_(&out), opts_(opts) {
  if (opts_.block_records == 0) opts_.block_records = 1;
  out_->write(kMagic, sizeof(kMagic));
  io::WriteU32(*out_, kBinaryRecordVersion);
  io::WriteU32(*out_, static_cast<std::uint32_t>(opts_.block_records));
  if (!*out_) throw std::runtime_error("binrecords: header write failed");
}

BinaryRecordWriter::BinaryRecordWriter(const std::string& path,
                                       BinaryWriteOptions opts)
    : path_(path),
      tmp_path_(path + ".tmp"),
      file_(tmp_path_, std::ios::binary | std::ios::trunc),
      out_(&file_),
      opts_(opts) {
  if (opts_.block_records == 0) opts_.block_records = 1;
  if (!file_) {
    throw std::runtime_error("binrecords: cannot open " + tmp_path_);
  }
  out_->write(kMagic, sizeof(kMagic));
  io::WriteU32(*out_, kBinaryRecordVersion);
  io::WriteU32(*out_, static_cast<std::uint32_t>(opts_.block_records));
  if (!*out_) throw std::runtime_error("binrecords: header write failed");
}

BinaryRecordWriter::~BinaryRecordWriter() {
  if (closed_) return;
  try {
    Close();
  } catch (...) {
    // Close() already removed the stage file on its failure paths.
  }
}

void BinaryRecordWriter::Write(const AttackRecord& record) {
  if (closed_) {
    throw std::logic_error("BinaryRecordWriter: Write after Close");
  }
  pending_.push_back(record);
  ++written_;
  if (pending_.size() >= opts_.block_records) FlushBlock();
}

void BinaryRecordWriter::FlushBlock() {
  if (pending_.empty()) return;
  const std::uint32_t n = static_cast<std::uint32_t>(pending_.size());
  std::string payload;
  for (const AttackRecord& r : pending_) PutU64(&payload, r.ddos_id);
  for (const AttackRecord& r : pending_) PutU32(&payload, r.botnet_id);
  for (const AttackRecord& r : pending_) {
    PutU8(&payload, static_cast<std::uint8_t>(r.family));
  }
  for (const AttackRecord& r : pending_) {
    PutU8(&payload, static_cast<std::uint8_t>(r.category));
  }
  for (const AttackRecord& r : pending_) PutU32(&payload, r.target_ip.bits());
  for (const AttackRecord& r : pending_) {
    PutI64(&payload, r.start_time.seconds());
  }
  for (const AttackRecord& r : pending_) PutI64(&payload, r.end_time.seconds());
  for (const AttackRecord& r : pending_) PutU32(&payload, r.asn.value());
  PutStringColumn(&payload, pending_,
                  +[](const AttackRecord& r) -> const std::string& {
                    return r.cc;
                  });
  PutStringColumn(&payload, pending_,
                  +[](const AttackRecord& r) -> const std::string& {
                    return r.city;
                  });
  for (const AttackRecord& r : pending_) PutF64(&payload, r.location.lat_deg);
  for (const AttackRecord& r : pending_) PutF64(&payload, r.location.lon_deg);
  PutStringColumn(&payload, pending_,
                  +[](const AttackRecord& r) -> const std::string& {
                    return r.organization;
                  });
  for (const AttackRecord& r : pending_) PutU32(&payload, r.magnitude);
  pending_.clear();

  io::Fnv1a64 checksum;
  checksum.Update(payload);
  io::WriteU32(*out_, n);
  io::WriteU64(*out_, payload.size());
  out_->write(payload.data(), static_cast<std::streamsize>(payload.size()));
  io::WriteU64(*out_, checksum.digest());
  if (!*out_) throw std::runtime_error("binrecords: block write failed");
}

void BinaryRecordWriter::Close() {
  if (closed_) return;
  closed_ = true;
  try {
    FlushBlock();
    io::WriteU32(*out_, 0);  // terminator: clean end of stream
    out_->flush();
    if (!*out_) throw std::runtime_error("binrecords: write failed");
  } catch (...) {
    if (!tmp_path_.empty()) {
      file_.close();
      std::remove(tmp_path_.c_str());
    }
    throw;
  }
  if (tmp_path_.empty()) return;
  file_.close();
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    throw std::runtime_error("binrecords: cannot rename " + tmp_path_ +
                             " to " + path_);
  }
}

// --- reader ---

BinaryRecordReader::BinaryRecordReader(std::istream& in) : in_(&in) {
  char magic[sizeof(kMagic)];
  if (!in_->read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw BinaryFormatError(Kind::kBadMagic,
                            "not a binary attack-record file");
  }
  char rest[8];  // version + block hint
  if (!in_->read(rest, sizeof(rest))) {
    throw BinaryFormatError(Kind::kTruncated, "header cut short");
  }
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(static_cast<unsigned char>(rest[i]))
               << (8 * i);
  }
  if (version != kBinaryRecordVersion) {
    throw BinaryFormatError(
        Kind::kUnsupportedVersion,
        StrFormat("unsupported version %u (expected %u)", version,
                  kBinaryRecordVersion));
  }
}

BinaryRecordReader::BinaryRecordReader(const std::string& path)
    : file_(path, std::ios::binary), in_(&file_) {
  if (!file_) throw std::runtime_error("binrecords: cannot open " + path);
  // Re-run the header validation on the member stream.
  char magic[sizeof(kMagic)];
  if (!in_->read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw BinaryFormatError(Kind::kBadMagic,
                            path + " is not a binary attack-record file");
  }
  char rest[8];
  if (!in_->read(rest, sizeof(rest))) {
    throw BinaryFormatError(Kind::kTruncated, "header cut short");
  }
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(static_cast<unsigned char>(rest[i]))
               << (8 * i);
  }
  if (version != kBinaryRecordVersion) {
    throw BinaryFormatError(
        Kind::kUnsupportedVersion,
        StrFormat("unsupported version %u (expected %u)", version,
                  kBinaryRecordVersion));
  }
}

std::uint32_t BinaryRecordReader::LoadBlockRaw() {
  char head[4];
  if (!in_->read(head, sizeof(head))) {
    throw BinaryFormatError(Kind::kTruncated,
                            "stream ended without a terminator block");
  }
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<std::uint32_t>(static_cast<unsigned char>(head[i]))
         << (8 * i);
  }
  if (n == 0) {
    eof_ = true;
    return 0;
  }
  if (n > kMaxBlockRecords) {
    throw BinaryFormatError(Kind::kCorruptField,
                            StrFormat("implausible block record count %u", n));
  }
  char sz[8];
  if (!in_->read(sz, sizeof(sz))) {
    throw BinaryFormatError(Kind::kTruncated, "block header cut short");
  }
  std::uint64_t payload_size = 0;
  for (int i = 0; i < 8; ++i) {
    payload_size |=
        static_cast<std::uint64_t>(static_cast<unsigned char>(sz[i]))
        << (8 * i);
  }
  if (payload_size > kMaxBlockPayload) {
    throw BinaryFormatError(
        Kind::kCorruptField,
        StrFormat("implausible block payload size %llu",
                  static_cast<unsigned long long>(payload_size)));
  }
  payload_.resize(payload_size);
  if (payload_size > 0 &&
      !in_->read(payload_.data(),
                 static_cast<std::streamsize>(payload_size))) {
    throw BinaryFormatError(Kind::kTruncated, "block payload cut short");
  }
  char ck[8];
  if (!in_->read(ck, sizeof(ck))) {
    throw BinaryFormatError(Kind::kTruncated, "block checksum cut short");
  }
  std::uint64_t expected = 0;
  for (int i = 0; i < 8; ++i) {
    expected |= static_cast<std::uint64_t>(static_cast<unsigned char>(ck[i]))
                << (8 * i);
  }
  io::Fnv1a64 checksum;
  checksum.Update(payload_);
  if (checksum.digest() != expected) {
    throw BinaryFormatError(Kind::kChecksumMismatch,
                            "block checksum mismatch (corrupt data)");
  }
  return n;
}

void BinaryRecordReader::DecodeBlock(std::uint32_t n) {
  Cursor cur{payload_.data(), payload_.data() + payload_.size()};
  block_.assign(n, AttackRecord{});
  block_pos_ = 0;
  for (std::uint32_t i = 0; i < n; ++i) block_[i].ddos_id = cur.U64();
  for (std::uint32_t i = 0; i < n; ++i) block_[i].botnet_id = cur.U32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t f = cur.U8();
    if (f >= kFamilyCount) {
      throw BinaryFormatError(Kind::kCorruptField,
                              StrFormat("family ordinal %u out of range", f));
    }
    block_[i].family = static_cast<Family>(f);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t p = cur.U8();
    if (p >= kProtocolCount) {
      throw BinaryFormatError(
          Kind::kCorruptField,
          StrFormat("protocol ordinal %u out of range", p));
    }
    block_[i].category = static_cast<Protocol>(p);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    block_[i].target_ip = net::IPv4Address(cur.U32());
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    block_[i].start_time = TimePoint(cur.I64());
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    block_[i].end_time = TimePoint(cur.I64());
  }
  for (std::uint32_t i = 0; i < n; ++i) block_[i].asn = net::Asn(cur.U32());
  GetStringColumn(&cur, n, &block_, &AttackRecord::cc);
  GetStringColumn(&cur, n, &block_, &AttackRecord::city);
  for (std::uint32_t i = 0; i < n; ++i) {
    block_[i].location.lat_deg = cur.F64();
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    block_[i].location.lon_deg = cur.F64();
  }
  GetStringColumn(&cur, n, &block_, &AttackRecord::organization);
  for (std::uint32_t i = 0; i < n; ++i) block_[i].magnitude = cur.U32();
  if (cur.p != cur.end) {
    throw BinaryFormatError(Kind::kCorruptField,
                            "trailing bytes inside a block payload");
  }
}

bool BinaryRecordReader::Next(AttackRecord* out) {
  while (block_pos_ >= block_.size()) {
    if (eof_) return false;
    const std::uint32_t n = LoadBlockRaw();
    if (n == 0) return false;
    DecodeBlock(n);
  }
  *out = block_[block_pos_++];
  ++records_;
  return true;
}

void BinaryRecordReader::SkipRecords(std::uint64_t n) {
  while (n > 0) {
    if (block_pos_ < block_.size()) {
      const std::uint64_t take = std::min<std::uint64_t>(
          n, block_.size() - block_pos_);
      block_pos_ += static_cast<std::size_t>(take);
      records_ += take;
      n -= take;
      continue;
    }
    if (eof_) {
      throw BinaryFormatError(Kind::kTruncated,
                              "resume position beyond end of stream");
    }
    const std::uint32_t blk = LoadBlockRaw();
    if (blk == 0) {
      throw BinaryFormatError(Kind::kTruncated,
                              "resume position beyond end of stream");
    }
    if (blk <= n) {
      // Whole block inside the skip: checksum verified, decode elided.
      records_ += blk;
      n -= blk;
    } else {
      DecodeBlock(blk);
    }
  }
}

std::uint64_t ConvertAttacksCsvToBinary(const std::string& csv_path,
                                        const std::string& bin_path,
                                        const ParseOptions& options,
                                        IngestErrorReport* report,
                                        BinaryWriteOptions write_opts) {
  AttackCsvReader reader(csv_path, options);
  BinaryRecordWriter writer(bin_path, write_opts);
  AttackRecord record;
  while (reader.Next(&record)) writer.Write(record);
  writer.Close();
  if (report != nullptr) report->Merge(reader.error_report());
  return writer.written();
}

}  // namespace ddos::data
