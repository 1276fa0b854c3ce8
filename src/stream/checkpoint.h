// Versioned, checksummed checkpoint files for StreamEngine.
//
// A multi-day `ddoscope watch` run must survive being killed: every N
// records the CLI persists the full engine state plus its position in the
// source feed, and `--resume` reconstructs an engine that reaches a final
// Snapshot() identical to an uninterrupted run's (exact tallies exactly;
// sketch state is serialized bit-for-bit, so even the approximate views
// match).
//
// File layout (all integers little-endian; see common/binio.h):
//
//   offset  size  field
//   0       8     magic "DDSCKPT\n"
//   8       4     format version (odd = single engine, even = sharded)
//   12      8     payload size in bytes
//   20      n     payload (see below)
//   20+n    8     FNV-1a 64 checksum of the payload
//
// Odd versions hold one engine: the payload is CheckpointMeta, then one
// StreamEngine::SerializeTo. Even versions are sharded (stream/sharded.h):
// CheckpointMeta, u32 shard count S, router position (u64 attacks, i64
// first start, i64 last start), then S StreamEngine sections. The meta
// grew twice, and readers accept every version:
//
//   version  meta after records, source_line        older files read as
//   1 / 2    error tallies                           -
//   3 / 4    source_offset, error tallies            source_offset = 0
//   5 / 6    source_offset, error tallies, seen ids  empty seen-id set
//
// source_offset is the byte offset into the source feed (span-offset
// resume for the mmap ingest path; a zero falls back to source_line). The
// seen ids are the common::IdSet of ddos_ids the feed ingested under
// skip/quarantine, so a repeat after the resume point is still rejected.
// Writers emit 5 and 6. ReadCheckpoint accepts any version - a sharded
// file with S > 1 is folded into one engine through StreamEngine::Merge -
// while ReadShardedCheckpoint preserves the sections so a sharded resume
// can hand each worker its own state back.
//
// Readers verify magic, version, size and checksum before touching the
// payload and throw std::runtime_error on any mismatch: a torn or
// bit-rotted checkpoint must never half-restore an engine. Writers stage
// to `path + ".tmp"` and atomically rename into place, so a crash during
// checkpointing leaves the previous checkpoint intact.
#ifndef DDOSCOPE_STREAM_CHECKPOINT_H_
#define DDOSCOPE_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/id_set.h"
#include "data/ingest_error.h"
#include "stream/engine.h"

namespace ddos::stream {

// Current write versions; readers accept 1 through
// kShardedCheckpointVersion (see the header comment's version table).
inline constexpr std::uint32_t kCheckpointVersion = 5;
inline constexpr std::uint32_t kShardedCheckpointVersion = 6;

// Feed position and ingestion-error tallies at the instant of the
// checkpoint; what the resume path needs besides the engine itself.
struct CheckpointMeta {
  std::uint64_t records = 0;      // records fed to the engine so far
  std::uint64_t source_line = 0;  // 1-based line consumed in the source CSV
  // Byte offset just past the last consumed line (LineSpanScanner::offset),
  // so a span-ingest resume seeks instead of re-scanning the prefix. Zero
  // in files written before version 3/4 and for non-seekable sources.
  std::uint64_t source_offset = 0;
  data::IngestErrorReport errors; // rejections seen before the checkpoint
  // ddos_ids ingested before the checkpoint under skip/quarantine (empty
  // under strict, for daemon checkpoints, and in files before version 5).
  common::IdSet seen_ids;
};

// Serializes meta + engine to the stream / atomically to `path`.
void WriteCheckpoint(std::ostream& out, const StreamEngine& engine,
                     const CheckpointMeta& meta);
void WriteCheckpoint(const std::string& path, const StreamEngine& engine,
                     const CheckpointMeta& meta);

// Restores an engine and its feed position. Throws std::runtime_error on a
// missing file, bad magic, unsupported version, or checksum mismatch.
// Accepts every version; a sharded checkpoint is merged into one
// engine (bit-identical to the section when the file holds exactly one).
StreamEngine ReadCheckpoint(std::istream& in, CheckpointMeta* meta);
StreamEngine ReadCheckpoint(const std::string& path, CheckpointMeta* meta);

// The full contents of a sharded checkpoint: feed position, the router's
// global interval cursor, and one engine section per shard at the instant
// of the checkpoint.
struct ShardedCheckpointState {
  CheckpointMeta meta;
  std::uint64_t router_attacks = 0;
  std::int64_t router_first_start_s = 0;
  std::int64_t router_last_start_s = 0;
  std::vector<StreamEngine> engines;
};

// Serializes a sharded checkpoint (atomically when given a path).
void WriteShardedCheckpoint(std::ostream& out,
                            const ShardedCheckpointState& state);
void WriteShardedCheckpoint(const std::string& path,
                            const ShardedCheckpointState& state);

// Reads every version; a single-engine (odd-version) file yields one
// section with the router cursor reconstructed from the engine itself.
ShardedCheckpointState ReadShardedCheckpoint(std::istream& in);
ShardedCheckpointState ReadShardedCheckpoint(const std::string& path);

// Folds a checkpoint's sections into the one engine ReadCheckpoint returns:
// a single section restores bit-identically, several fold through Merge
// (the sections are shard-disjoint, so exact tallies stay exact).
StreamEngine MergeSections(std::vector<StreamEngine> sections);

}  // namespace ddos::stream

#endif  // DDOSCOPE_STREAM_CHECKPOINT_H_
