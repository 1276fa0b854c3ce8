#include "stream/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/binio.h"

namespace ddos::stream {

namespace {

constexpr char kMagic[8] = {'D', 'D', 'S', 'C', 'K', 'P', 'T', '\n'};

// The first versions whose meta carries the source offset, and the seen-id
// set after the error tallies.
constexpr std::uint32_t kOffsetVersion = 3;
constexpr std::uint32_t kSeenIdsVersion = 5;

// Writes the current meta layout (version 5/6); ReadMeta reads every one
// (checkpoint.h's version table).
void WriteMeta(std::ostream& out, const CheckpointMeta& meta) {
  io::WriteU64(out, meta.records);
  io::WriteU64(out, meta.source_line);
  io::WriteU64(out, meta.source_offset);
  for (const std::uint64_t n : meta.errors.counts) io::WriteU64(out, n);
  meta.seen_ids.SerializeTo(out);
}

CheckpointMeta ReadMeta(std::istream& in, std::uint32_t version) {
  CheckpointMeta meta;
  meta.records = io::ReadU64(in);
  meta.source_line = io::ReadU64(in);
  if (version >= kOffsetVersion) meta.source_offset = io::ReadU64(in);
  for (std::uint64_t& n : meta.errors.counts) n = io::ReadU64(in);
  if (version >= kSeenIdsVersion) {
    meta.seen_ids = common::IdSet::DeserializeFrom(in);
  }
  return meta;
}

bool IsSingleEngineVersion(std::uint32_t version) { return version % 2 == 1; }

// Frames a fully-built payload: magic, version, size, payload, checksum.
void WriteFramed(std::ostream& out, std::uint32_t version,
                 const std::string& payload) {
  io::Fnv1a64 checksum;
  checksum.Update(payload);
  out.write(kMagic, sizeof(kMagic));
  io::WriteU32(out, version);
  io::WriteU64(out, payload.size());
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  io::WriteU64(out, checksum.digest());
  if (!out) throw std::runtime_error("checkpoint: write failed");
}

// Verifies the frame and returns (version, payload).
std::pair<std::uint32_t, std::string> ReadFramed(std::istream& in) {
  char magic[sizeof(kMagic)];
  if (!in.read(magic, sizeof(magic)) ||
      !std::equal(std::begin(magic), std::end(magic), std::begin(kMagic))) {
    throw std::runtime_error("checkpoint: bad magic (not a checkpoint file)");
  }
  const std::uint32_t version = io::ReadU32(in);
  if (version < 1 || version > kShardedCheckpointVersion) {
    throw std::runtime_error("checkpoint: unsupported version " +
                             std::to_string(version) + " (expected 1.." +
                             std::to_string(kShardedCheckpointVersion) + ")");
  }
  // Grow the payload as its bytes arrive: a corrupt size then costs one
  // chunk past the end of the input, not an allocation of that size.
  const std::uint64_t payload_size = io::ReadU64(in);
  constexpr std::uint64_t kChunk = 1 << 20;
  std::string payload;
  while (payload.size() < payload_size) {
    const std::size_t have = payload.size();
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, payload_size - have));
    payload.resize(have + n);
    if (!in.read(payload.data() + have, static_cast<std::streamsize>(n))) {
      throw std::runtime_error("checkpoint: truncated payload");
    }
  }
  const std::uint64_t expected = io::ReadU64(in);
  io::Fnv1a64 checksum;
  checksum.Update(payload);
  if (checksum.digest() != expected) {
    throw std::runtime_error("checkpoint: checksum mismatch (corrupt file)");
  }
  return {version, std::move(payload)};
}

// Stage-and-rename: a crash mid-write leaves the previous checkpoint (if
// any) untouched, so resume always finds a complete file. Every failure
// path - a failed write, a throwing serializer, a failed rename - deletes
// the stage file, so a long-running daemon checkpointing into a filling
// disk does not accumulate orphaned .tmp files.
template <typename WriteFn>
void WriteAtomically(const std::string& path, WriteFn&& write_fn) {
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("checkpoint: cannot open " + tmp);
    write_fn(out);
    out.flush();
    if (!out) throw std::runtime_error("checkpoint: write failed: " + tmp);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                             path);
  }
}

ShardedCheckpointState ParseShardedPayload(std::uint32_t version,
                                           const std::string& payload) {
  std::istringstream in(payload);
  ShardedCheckpointState state;
  state.meta = ReadMeta(in, version);
  if (IsSingleEngineVersion(version)) {
    state.engines.push_back(StreamEngine::Deserialize(in));
    const StreamEngine& engine = state.engines.front();
    state.router_attacks = engine.attacks_seen();
    state.router_first_start_s = engine.first_start().seconds();
    state.router_last_start_s = engine.last_start().seconds();
    return state;
  }
  const std::uint32_t shard_count = io::ReadU32(in);
  if (shard_count == 0 || shard_count > 4096) {
    throw std::runtime_error("checkpoint: implausible shard count " +
                             std::to_string(shard_count));
  }
  state.router_attacks = io::ReadU64(in);
  state.router_first_start_s = io::ReadSeconds(in);
  state.router_last_start_s = io::ReadSeconds(in);
  state.engines.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    state.engines.push_back(StreamEngine::Deserialize(in));
  }
  return state;
}

}  // namespace

void WriteCheckpoint(std::ostream& out, const StreamEngine& engine,
                     const CheckpointMeta& meta) {
  std::ostringstream payload;
  WriteMeta(payload, meta);
  engine.SerializeTo(payload);
  WriteFramed(out, kCheckpointVersion, payload.str());
}

void WriteCheckpoint(const std::string& path, const StreamEngine& engine,
                     const CheckpointMeta& meta) {
  WriteAtomically(path, [&](std::ostream& out) {
    WriteCheckpoint(out, engine, meta);
  });
}

StreamEngine ReadCheckpoint(std::istream& in, CheckpointMeta* meta) {
  auto [version, payload] = ReadFramed(in);
  ShardedCheckpointState state = ParseShardedPayload(version, payload);
  if (meta != nullptr) *meta = state.meta;
  return MergeSections(std::move(state.engines));
}

StreamEngine MergeSections(std::vector<StreamEngine> sections) {
  StreamEngine merged = std::move(sections.front());
  for (std::size_t i = 1; i < sections.size(); ++i) merged.Merge(sections[i]);
  return merged;
}

StreamEngine ReadCheckpoint(const std::string& path, CheckpointMeta* meta) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  return ReadCheckpoint(in, meta);
}

void WriteShardedCheckpoint(std::ostream& out,
                            const ShardedCheckpointState& state) {
  if (state.engines.empty()) {
    throw std::runtime_error("checkpoint: no engine sections to write");
  }
  std::ostringstream payload;
  WriteMeta(payload, state.meta);
  io::WriteU32(payload, static_cast<std::uint32_t>(state.engines.size()));
  io::WriteU64(payload, state.router_attacks);
  io::WriteI64(payload, state.router_first_start_s);
  io::WriteI64(payload, state.router_last_start_s);
  for (const StreamEngine& engine : state.engines) {
    engine.SerializeTo(payload);
  }
  WriteFramed(out, kShardedCheckpointVersion, payload.str());
}

void WriteShardedCheckpoint(const std::string& path,
                            const ShardedCheckpointState& state) {
  WriteAtomically(path, [&](std::ostream& out) {
    WriteShardedCheckpoint(out, state);
  });
}

ShardedCheckpointState ReadShardedCheckpoint(std::istream& in) {
  auto [version, payload] = ReadFramed(in);
  return ParseShardedPayload(version, payload);
}

ShardedCheckpointState ReadShardedCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  return ReadShardedCheckpoint(in);
}

}  // namespace ddos::stream
