// ShardedStreamEngine: parallel ingest across N worker StreamEngines.
//
// One router thread (the caller of Push) partitions the attack feed across
// N workers, each owning a private StreamEngine fed through a bounded SPSC
// queue; Snapshot() and Finish() fold the workers back together through
// StreamEngine::Merge. Two routing keys keep the merged result faithful to
// a single engine over the same feed:
//
//  * Records shard by hash(botnet_id): per-botnet state (distinct counts,
//    family tallies) stays local, and load spreads across the paper's
//    hundreds of botnets. The router computes each record's inter-attack
//    gap against the GLOBAL previous start before routing, so interval
//    statistics - counts, concurrency bands, Welford moments - merge to
//    bit-identical values; only sketch-backed quantiles carry the merged
//    (still bounded) rank error.
//  * Collaboration observations shard by hash(target): collaborations are
//    per-target groups spanning botnets, so target routing keeps every
//    group's participants on one shard, in global chronological order -
//    the cross-shard stitch reduces to a union of disjoint pending tables
//    and the final collaboration tallies are exact.
//
// Per-shard quantile sketches run at half the requested epsilon: a GK merge
// of k sketches is bounded by the max per-sketch error times two in the
// worst interleaving (stream/sketch.h), so halving keeps the merged view
// within the configured contract (a checkpoint's requested contract comes
// back through RequestedEngineConfig).
//
// Parse-in-shard ingest (PushLine): for file feeds the router does not
// parse rows at all. It byte-scans each raw line span just enough to
// route it - botnet_id (record shard), target_ip (collab shard), ddos_id
// (duplicate detection) and the two timestamps (the global gap chain) via
// data/linescan.h - and ships the span itself over the rings; workers run
// the full 14-column parse inside the shard. This is what makes sharding
// pay: the serial router does O(bytes) work per row while the O(fields)
// parse runs N-wide. Rejected rows keep exact, deterministic line
// attribution: router-detected rejections (structure, ids, timestamps,
// duplicates) are tallied at the router, worker-detected ones (family,
// protocol, asn, coordinates, magnitude) are buffered per shard with
// their original line numbers and merged in line order at the next
// barrier - so error_report()/quarantine output is identical for every
// shard count. A repeated ddos_id takes a barrier before it is called a
// duplicate, so a row a worker rejected never claims its id. Span
// lifetime: the bytes must stay addressable until the next barrier (mmap
// the feed, common/mmapio.h, or keep the buffer alive); Push() record
// routing remains for non-stable sources (stdin, the netd line protocol).
//
// Threading model: the router is the only producer; workers pop and apply
// under a per-shard mutex. A barrier (queue drained + mutex acquired) makes
// Snapshot/checkpoint safe mid-stream without stopping ingestion for longer
// than the in-flight batch.
#ifndef DDOSCOPE_STREAM_SHARDED_H_
#define DDOSCOPE_STREAM_SHARDED_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/id_set.h"
#include "common/spsc_queue.h"
#include "data/csv.h"
#include "data/ingest_error.h"
#include "data/linescan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"

namespace ddos::stream {

struct ShardedStreamEngineConfig {
  std::size_t shards = 2;          // worker engines (clamped to >= 1)
  std::size_t queue_capacity = 4096;  // per-shard ring slots (rounded to 2^k)
  StreamEngineConfig engine;       // the requested accuracy contract
  // Optional observability sinks (owned by the caller, must outlive the
  // engine). With `metrics` set, every shard publishes ddoscope_stream_*
  // (via StreamEngine::AttachMetrics) and ddoscope_sharded_* series:
  // push-retry/backpressure counts, ring occupancy high-water marks, and
  // merge/checkpoint latency histograms. With `trace` set, pipeline stages
  // (sampled worker batches, barriers, merges, checkpoints) record
  // DDOS_TRACE_SPAN events. Null pointers cost one branch per site.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  // Optional live geo enrichment: with `geo` set (caller-owned, must
  // outlive the engine; a compiled read-only mapping is safely shared by
  // every shard), each worker engine tags records inside the shard and the
  // merged snapshot carries the folded GeoEnrichSnapshot. Enrichment state
  // is never checkpointed - a restored run re-derives it from the resumed
  // feed (stream/geo_enrich.h).
  const geo::GeoMmdb* geo = nullptr;
  GeoEnrichConfig geo_enrich;
  // Error policy for the span-ingest path (PushLine): policy, the line
  // length cap, and duplicate detection (on unless kStrict) follow
  // AttackCsvReader's exact semantics. The quarantine pointer is ignored
  // here - rejected rows are buffered with line attribution and handed
  // back through DrainErrors() so the caller can write them in
  // deterministic line order.
  data::ParseOptions parse;
};

// The requested contract a checkpoint was written under: a section's
// config with the half-epsilon rule undone (a single section is the
// requested config itself). The one inverse of the constructor's halving.
StreamEngineConfig RequestedEngineConfig(const ShardedCheckpointState& state);

class ShardedStreamEngine {
 public:
  explicit ShardedStreamEngine(const ShardedStreamEngineConfig& config = {});
  ~ShardedStreamEngine();

  ShardedStreamEngine(const ShardedStreamEngine&) = delete;
  ShardedStreamEngine& operator=(const ShardedStreamEngine&) = delete;

  // Routes one attack record. When the destination ring is full the
  // producer backs off in bounded stages - a short yield burst, then
  // exponentially growing sleeps capped at 1 ms - so a stalled consumer
  // does not pin a core, and every retry is counted in the per-shard
  // push-retry metrics. Caller thread only - single producer.
  void Push(const data::AttackRecord& attack);

  // Routes one raw CSV line span (parse-in-shard ingest; see the header
  // comment). `line_no` is the 1-based input line; `saw_newline` false
  // marks an unterminated final line (torn-write reclassification, same
  // as AttackCsvReader). Blank lines are counted and dropped; the caller
  // skips the header line itself (LineSpanScanner starts at line 1).
  // Router-detected rejections under ParsePolicy::kStrict throw here with
  // the reader's exact message; worker-detected ones surface on the next
  // PushLine or at Finish(). Caller thread only - single producer.
  void PushLine(std::string_view line, std::size_t line_no,
                bool saw_newline = true);

  // End of stream: drains the queues, stops the workers, and folds every
  // shard into the merged engine (including StreamEngine::Finish, which
  // flushes pending collaboration groups). Push must not be called after.
  void Finish();

  // Live view: barrier + merge a copy of every shard. Matches what a
  // single engine's Snapshot() would show mid-stream, except that
  // collaboration events a single engine's periodic sweep would already
  // have counted may still be pending (they are identical after Finish).
  StreamSnapshot Snapshot(std::size_t top_k = 10);

  // The folded engine; valid only after Finish().
  const StreamEngine& merged() const;

  // Checkpointing (sharded format, stream/checkpoint.h). Safe
  // mid-stream: takes the same barrier as Snapshot.
  void SaveCheckpoint(std::ostream& out, const CheckpointMeta& meta);
  void SaveCheckpoint(const std::string& path, const CheckpointMeta& meta);

  // Seeds a fresh (never-pushed) sharded engine from a checkpoint. The
  // state's sections are distributed round-robin, so a checkpoint written
  // with S shards restores into any shard count; with the same count each
  // section lands back on its own shard and resumed results are exactly
  // those of an uninterrupted run (different counts re-partition pending
  // collaboration targets, which can stitch group boundaries differently).
  void RestoreFrom(const ShardedCheckpointState& state);

  std::uint64_t attacks_seen() const { return attacks_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t ApproxMemoryBytes();

  // --- span-ingest error accessors (PushLine path) ---
  //
  // Valid records applied across all shards. Takes a barrier, so every
  // routed line has been parsed when it returns. Router thread only.
  std::uint64_t ParsedRecords();
  // Merged per-kind tallies: router-side rejections plus every shard's.
  // Takes a barrier. Router thread only.
  data::IngestErrorReport ErrorReport();
  // Moves out every buffered rejection (router- and worker-detected),
  // sorted by line number - byte-identical output for any shard count.
  // raw_line is captured only under ParsePolicy::kQuarantine. Takes a
  // barrier; tallies (ErrorReport) are unaffected. Router thread only.
  std::vector<data::IngestError> DrainErrors();
  // Lock-free running rejection count (relaxed; any thread) - the live
  // stats ticker's view between barriers.
  std::uint64_t ApproxErrorTotal() const {
    return error_total_.load(std::memory_order_relaxed);
  }
  // Folds a checkpointed predecessor's tallies into ErrorReport() and the
  // attached obs counters (resume path; AttackCsvReader::SeedErrors).
  void SeedErrors(const data::IngestErrorReport& errors);
  // The ddos_ids of the rows PushLine has accepted (empty under kStrict):
  // takes a barrier and forgets the ids of rows the workers rejected, so
  // the set is exactly the reader's at the same line. Router thread only.
  const common::IdSet& SeenIds();
  // Restores a checkpointed predecessor's ids (AttackCsvReader::
  // SeedSeenIds); a no-op under kStrict. Router thread only.
  void SeedSeenIds(common::IdSet ids);

  // Instantaneous per-shard ring occupancy. Approximate (relaxed cursor
  // reads, no barrier) and safe from any thread - the ddoscoped /status
  // endpoint polls this without stalling ingest.
  std::vector<std::size_t> QueueDepths() const;

  // Cumulative tasks applied per shard. Same approximate/any-thread
  // contract as QueueDepths; the daemon's watchdog pairs the two to tell
  // a stalled shard (depth > 0, processed frozen) from an idle one.
  std::vector<std::uint64_t> ProcessedCounts() const;

  // Test/chaos hook: parks (or unparks) a shard's worker before its next
  // batch, simulating a wedged consumer. A stalled shard stops draining
  // its ring but keeps honoring stop/destruction. Not for production use.
  void ChaosStallShard(std::size_t index, bool stalled);

 private:
  struct Task {
    // kRecord/kCollab carry parsed data (Push). kLineRecord/kLineCollab/
    // kLineBoth carry a raw span the worker parses in-shard (PushLine);
    // kLineBoth is the both-keys-hashed-to-one-shard case, parsed once and
    // applied as record and collab observation together.
    enum class Kind : std::uint8_t {
      kRecord,
      kCollab,
      kLineRecord,
      kLineCollab,
      kLineBoth,
    };
    Kind kind = Kind::kRecord;
    bool has_gap = false;
    bool saw_newline = true;    // kLine*: torn-write reclassification
    double gap = 0.0;
    data::AttackRecord record;  // kRecord
    CollabObservation obs;      // kCollab
    std::string_view span;      // kLine*: stable until the next barrier
    std::uint64_t line_no = 0;  // kLine*: original 1-based input line
    std::uint64_t ddos_id = 0;  // kLine*: the pre-scanned id
  };

  struct Shard {
    explicit Shard(std::size_t queue_capacity,
                   const StreamEngineConfig& engine_config)
        : queue(queue_capacity), engine(engine_config) {}

    common::SpscQueue<Task> queue;
    std::mutex mutex;        // guards engine, errors, report
    StreamEngine engine;
    // Span-parse rejections detected by this worker, with original line
    // numbers; merged and sorted across shards at DrainErrors(). The
    // worker appends under `mutex` (it already holds it to apply a
    // batch), so a post-barrier read is race-free.
    std::vector<data::IngestError> errors;
    data::IngestErrorReport report;
    // ddos_ids of the rows this worker rejected, which the router entered
    // into its seen set at pre-scan; ForgetRejectedIds takes them back out.
    std::vector<std::uint64_t> rejected_ids;
    // ApplySpanTask's parse target, reused so the record's strings keep
    // their capacity across spans. Worker thread only.
    data::AttackRecord parsed;
    std::atomic<bool> stop{false};
    std::atomic<bool> stall{false};           // ChaosStallShard park flag
    std::atomic<std::uint64_t> processed{0};  // tasks applied (watchdog)
    std::thread worker;

    // Resolved obs handles (null when the config carries no registry).
    obs::Counter* obs_push_retries = nullptr;       // failed TryPush attempts
    obs::Counter* obs_backpressure_sleeps = nullptr;  // producer slept
    obs::Counter* obs_idle_sleeps = nullptr;        // worker slept while idle
    obs::Gauge* obs_queue_highwater = nullptr;      // max occupied slots seen
  };

  // Barrier, then the router cursor plus a copy of every shard's engine.
  ShardedCheckpointState CaptureCheckpoint(const CheckpointMeta& meta);
  void WorkerMain(Shard* shard);
  void ApplySpanTask(Shard* shard, const Task& task);
  void Enqueue(std::size_t shard_index, Task&& task);
  // Router-side rejection bookkeeping for PushLine (tally, buffer, obs,
  // strict throw) - the reader's error path, one line at a time.
  void RecordRouterError(data::IngestError&& err);
  // After a barrier: erases the ids of worker-rejected rows from
  // seen_ids_, so only rows that were ingested hold their id.
  void ForgetRejectedIds();
  // kStrict + a worker-detected rejection: barrier, collect every buffered
  // error, throw for the earliest line (deterministic across shard counts).
  [[noreturn]] void ThrowWorkerFatal();
  // Router-side barrier: every queue observed empty and every shard mutex
  // acquired once => all routed work has been applied. Correct because the
  // router (the sole producer) is the thread calling it.
  void DrainBarrier();
  StreamEngine MergeShards();

  ShardedStreamEngineConfig config_;
  StreamEngineConfig worker_config_;  // config_.engine at epsilon / 2
  std::vector<std::unique_ptr<Shard>> shards_;

  // Router state (caller thread only).
  std::uint64_t attacks_ = 0;
  TimePoint first_start_;
  TimePoint last_start_;

  // Span-ingest router state (caller thread only unless noted).
  data::AttackLinePreScanner prescan_;
  bool dedupe_;                                    // policy != kStrict
  common::IdSet seen_ids_;                         // see ForgetRejectedIds
  std::vector<data::IngestError> router_errors_;   // buffered rejections
  data::IngestErrorReport router_report_;          // router-side tallies
  std::atomic<std::uint64_t> error_total_{0};      // all threads, relaxed
  std::atomic<bool> worker_fatal_{false};          // kStrict worker reject

  std::unique_ptr<StreamEngine> merged_;  // set by Finish()
  bool finished_ = false;

  // Whole-engine obs handles (null when unattached).
  obs::TraceRecorder* trace_ = nullptr;
  obs::Histogram* obs_merge_seconds_ = nullptr;
  obs::Histogram* obs_checkpoint_seconds_ = nullptr;
  // Ingest-counter handles shared with AttackCsvReader's series names; the
  // records/errors cells are bumped from worker threads (striped counters
  // are thread-safe), bytes from the router only.
  obs::Counter* obs_ingest_records_ = nullptr;
  obs::Counter* obs_ingest_bytes_ = nullptr;
  std::array<obs::Counter*, data::kIngestErrorKindCount> obs_ingest_errors_{};
};

}  // namespace ddos::stream

#endif  // DDOSCOPE_STREAM_SHARDED_H_
