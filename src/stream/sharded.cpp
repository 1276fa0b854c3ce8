#include "stream/sharded.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/strings.h"
#include "stream/sketch.h"

namespace ddos::stream {

namespace {

// Workers pop up to this many tasks per mutex hold: long enough to
// amortize the lock, short enough that a snapshot barrier never waits on
// more than one small batch.
constexpr std::size_t kWorkerBatch = 256;

// Bounded exponential backoff shared by the producer (ring full) and the
// workers (ring empty): yield for the first kBackoffYields attempts - the
// stall is usually one in-flight batch - then sleep, doubling from 1 us to
// kBackoffMaxSleep so a long stall costs microwatts instead of a spinning
// core, while the cap keeps wakeup latency bounded at ~1 ms.
constexpr std::uint32_t kBackoffYields = 64;
constexpr std::chrono::microseconds kBackoffMinSleep{1};
constexpr std::chrono::microseconds kBackoffMaxSleep{1000};

// One backoff step for `attempt` (0-based). Returns true when it slept
// (as opposed to yielding), so callers can count sleeps separately.
inline bool BackoffStep(std::uint32_t attempt) {
  if (attempt < kBackoffYields) {
    std::this_thread::yield();
    return false;
  }
  const std::uint32_t exp =
      std::min<std::uint32_t>(attempt - kBackoffYields, 10);  // 2^10 = 1024 us
  const auto sleep = std::min(kBackoffMaxSleep, kBackoffMinSleep * (1u << exp));
  std::this_thread::sleep_for(sleep);
  return true;
}

// Sampling mask for worker batch spans: tracing every 256-record batch of a
// multi-million-record feed would exhaust the bounded ring in seconds, and
// 1-in-16 still shows the duty cycle clearly in the timeline.
constexpr std::uint64_t kBatchSpanSampleMask = 15;

}  // namespace

ShardedStreamEngine::ShardedStreamEngine(
    const ShardedStreamEngineConfig& config)
    : config_(config),
      worker_config_(config.engine),
      dedupe_(config.parse.policy != data::ParsePolicy::kStrict) {
  const std::size_t n = std::max<std::size_t>(1, config.shards);
  // Half epsilon per shard so the merged sketch honors the requested rank
  // error (merging can double the per-sketch bound; stream/sketch.h).
  // RequestedEngineConfig below undoes this for a checkpoint's sections.
  if (n > 1) worker_config_.quantile_epsilon = config.engine.quantile_epsilon / 2.0;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        std::max<std::size_t>(2, config.queue_capacity), worker_config_));
    // Geo arms before AttachMetrics below so the enricher's counters
    // resolve together with the engine's.
    if (config.geo != nullptr) {
      shards_.back()->engine.EnableGeo(config.geo, config.geo_enrich);
    }
  }
  trace_ = config.trace;
  if (config.metrics != nullptr) {
    obs::MetricsRegistry& reg = *config.metrics;
    // Same series names as AttackCsvReader: a dashboard watching ingest
    // throughput must not care which engine is behind the feed.
    obs_ingest_records_ = reg.GetCounter("ddoscope_ingest_records_total",
                                         "Valid attack records parsed");
    obs_ingest_bytes_ = reg.GetCounter(
        "ddoscope_ingest_bytes_total",
        "Raw feed bytes consumed (incl. newlines)");
    for (int k = 0; k < data::kIngestErrorKindCount; ++k) {
      const auto kind = static_cast<data::IngestErrorKind>(k);
      obs_ingest_errors_[static_cast<std::size_t>(k)] = reg.GetCounter(
          "ddoscope_ingest_errors_total", "Rejected rows by IngestErrorKind",
          {{"kind", std::string(data::IngestErrorKindName(kind))}});
    }
    obs_merge_seconds_ = reg.GetHistogram(
        "ddoscope_sharded_merge_seconds",
        "Latency of folding all shard engines into one merged view",
        obs::ExponentialBounds(1e-5, 4.0, 12));
    obs_checkpoint_seconds_ = reg.GetHistogram(
        "ddoscope_sharded_checkpoint_seconds",
        "Latency of a sharded checkpoint (barrier + copy + serialize)",
        obs::ExponentialBounds(1e-4, 4.0, 12));
    for (std::size_t i = 0; i < n; ++i) {
      Shard& shard = *shards_[i];
      const obs::Labels labels{{"shard", std::to_string(i)}};
      shard.engine.AttachMetrics(config.metrics, std::to_string(i));
      shard.obs_push_retries = reg.GetCounter(
          "ddoscope_sharded_push_retries_total",
          "Failed ring TryPush attempts (ring full, producer retried)",
          labels);
      shard.obs_backpressure_sleeps = reg.GetCounter(
          "ddoscope_sharded_backpressure_sleeps_total",
          "Producer backoff sleeps while the shard ring stayed full", labels);
      shard.obs_idle_sleeps = reg.GetCounter(
          "ddoscope_sharded_worker_idle_sleeps_total",
          "Worker backoff sleeps while its ring stayed empty", labels);
      shard.obs_queue_highwater = reg.GetGauge(
          "ddoscope_sharded_queue_highwater_slots",
          "Most occupied ring slots the producer has observed", labels);
      reg.GetGauge("ddoscope_sharded_queue_capacity_slots",
                   "Ring capacity in slots", labels)
          ->Set(static_cast<std::int64_t>(shard.queue.capacity()));
    }
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { WorkerMain(s); });
  }
}

StreamEngineConfig RequestedEngineConfig(const ShardedCheckpointState& state) {
  StreamEngineConfig requested = state.engines.front().config();
  if (state.engines.size() > 1) requested.quantile_epsilon *= 2.0;
  return requested;
}

ShardedStreamEngine::~ShardedStreamEngine() {
  for (auto& shard : shards_) {
    shard->stop.store(true, std::memory_order_release);
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardedStreamEngine::WorkerMain(Shard* shard) {
  Task task;
  std::uint64_t batches = 0;
  std::uint32_t idle_attempts = 0;
  for (;;) {
    // Chaos park: pretend this worker wedged. Spin-sleeps (rather than a
    // condvar) so un-stalling needs no handshake and stop still wins.
    while (shard->stall.load(std::memory_order_acquire) &&
           !shard->stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    bool did_work = false;
    std::uint64_t applied = 0;
    {
      // Sampled span so the trace shows the worker duty cycle without
      // flooding the bounded ring on every 256-record batch.
      obs::SpanTimer span(
          (batches++ & kBatchSpanSampleMask) == 0 ? trace_ : nullptr,
          "apply_batch", "shard_worker");
      std::lock_guard<std::mutex> lock(shard->mutex);
      // Pop AND apply under the mutex: once the router sees the queue
      // empty and takes this mutex, the engine reflects every routed task.
      for (std::size_t i = 0; i < kWorkerBatch; ++i) {
        if (!shard->queue.TryPop(&task)) break;
        did_work = true;
        ++applied;
        if (task.kind == Task::Kind::kRecord) {
          shard->engine.PushRouted(task.record, task.has_gap, task.gap);
        } else if (task.kind == Task::Kind::kCollab) {
          shard->engine.PushCollab(task.obs);
        } else {
          ApplySpanTask(shard, task);
        }
      }
    }
    if (applied > 0) {
      shard->processed.fetch_add(applied, std::memory_order_relaxed);
    }
    if (!did_work) {
      if (shard->stop.load(std::memory_order_acquire) &&
          shard->queue.Empty()) {
        return;
      }
      if (BackoffStep(idle_attempts++)) {
        obs::MaybeAdd(shard->obs_idle_sleeps);
      }
    } else {
      idle_attempts = 0;
    }
  }
}

void ShardedStreamEngine::Enqueue(std::size_t shard_index, Task&& task) {
  Shard& shard = *shards_[shard_index];
  common::SpscQueue<Task>& queue = shard.queue;
  // High-water before the push: SizeApprox is two relaxed-ish loads on
  // cursors this thread already touches, and UpdateMax is RMW-free once the
  // mark is established.
  obs::MaybeUpdateMax(shard.obs_queue_highwater,
                      static_cast<std::int64_t>(queue.SizeApprox() + 1));
  if (queue.TryPush(std::move(task))) return;
  // Backpressure: ring full, consumer behind. Yield first, then sleep with
  // exponential backoff - and make the stall visible, because an invisible
  // spin here is indistinguishable from useful router work in `top`.
  std::uint32_t attempts = 0;
  do {
    obs::MaybeAdd(shard.obs_push_retries);
    if (BackoffStep(attempts++)) {
      obs::MaybeAdd(shard.obs_backpressure_sleeps);
    }
  } while (!queue.TryPush(std::move(task)));
}

void ShardedStreamEngine::Push(const data::AttackRecord& attack) {
  if (finished_) {
    throw std::logic_error("ShardedStreamEngine: Push after Finish");
  }
  Task record_task;
  record_task.kind = Task::Kind::kRecord;
  record_task.has_gap = attacks_ > 0;
  if (record_task.has_gap) {
    // The global inter-attack gap, computed here where the full feed order
    // is visible; workers only see their own botnets.
    record_task.gap = std::max<double>(
        0.0, static_cast<double>(attack.start_time - last_start_));
  } else {
    first_start_ = attack.start_time;
  }
  last_start_ = std::max(last_start_, attack.start_time);
  ++attacks_;

  Task collab_task;
  collab_task.kind = Task::Kind::kCollab;
  collab_task.obs =
      CollabObservation{attack.target_ip.bits(), attack.start_time,
                        attack.duration_seconds(), attack.family,
                        attack.botnet_id};

  const std::size_t n = shards_.size();
  const std::size_t record_shard =
      static_cast<std::size_t>(MixHash64(attack.botnet_id) % n);
  const std::size_t collab_shard = static_cast<std::size_t>(
      MixHash64(collab_task.obs.target_bits) % n);
  record_task.record = attack;
  Enqueue(record_shard, std::move(record_task));
  Enqueue(collab_shard, std::move(collab_task));
}

void ShardedStreamEngine::ApplySpanTask(Shard* shard, const Task& task) {
  // Worker thread, shard->mutex held. The full 14-column parse runs here,
  // inside the shard - the whole point of span routing.
  data::AttackRecord& rec = shard->parsed;
  data::IngestError err;
  if (data::TryParseAttackLine(task.span, &rec, &err)) {
    if (task.kind != Task::Kind::kLineCollab) {
      shard->engine.PushRouted(rec, task.has_gap, task.gap);
      obs::MaybeAdd(obs_ingest_records_);
    }
    if (task.kind != Task::Kind::kLineRecord) {
      shard->engine.PushCollab(CollabObservation{
          rec.target_ip.bits(), rec.start_time, rec.duration_seconds(),
          rec.family, rec.botnet_id});
    }
    return;
  }
  if (task.kind == Task::Kind::kLineCollab) {
    // The record shard parses the same span and reports the identical
    // failure; reporting here too would double-count it.
    return;
  }
  // Worker-detected rejection (family, protocol, asn, coordinates,
  // magnitude - everything the router's pre-scan does not check). Same
  // torn-write reclassification as the reader, original line attribution.
  if (!task.saw_newline) {
    err.kind = data::IngestErrorKind::kTruncatedLine;
    err.detail = "stream ended mid-record (" + err.detail + ")";
  }
  err.line_no = static_cast<std::size_t>(task.line_no);
  if (config_.parse.policy == data::ParsePolicy::kQuarantine) {
    err.raw_line = std::string(task.span);
  }
  shard->report.Add(err.kind);
  obs::MaybeAdd(obs_ingest_errors_[static_cast<std::size_t>(err.kind)]);
  error_total_.fetch_add(1, std::memory_order_relaxed);
  shard->errors.push_back(std::move(err));
  if (dedupe_) shard->rejected_ids.push_back(task.ddos_id);
  if (config_.parse.policy == data::ParsePolicy::kStrict) {
    // Workers cannot throw across the ring; flag it and let the router
    // surface the earliest buffered line (deterministic across counts).
    worker_fatal_.store(true, std::memory_order_release);
  }
}

void ShardedStreamEngine::RecordRouterError(data::IngestError&& err) {
  router_report_.Add(err.kind);
  obs::MaybeAdd(obs_ingest_errors_[static_cast<std::size_t>(err.kind)]);
  error_total_.fetch_add(1, std::memory_order_relaxed);
  router_errors_.push_back(std::move(err));
  if (config_.parse.policy == data::ParsePolicy::kStrict) {
    // The reader aborts on the first bad line. An earlier line may still
    // sit unparsed in a ring, so let the workers catch up: a rejection they
    // find is earlier than this one and wins.
    DrainBarrier();
    if (worker_fatal_.load(std::memory_order_acquire)) ThrowWorkerFatal();
    throw std::runtime_error(data::StrictErrorMessage(router_errors_.back()));
  }
}

void ShardedStreamEngine::ThrowWorkerFatal() {
  DrainBarrier();
  data::IngestError first;
  bool have = false;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const data::IngestError& e : shard->errors) {
      if (!have || e.line_no < first.line_no) {
        first = e;
        have = true;
      }
    }
  }
  if (!have) {
    throw std::runtime_error("CSV: worker rejected a row (detail lost)");
  }
  throw std::runtime_error(data::StrictErrorMessage(first));
}

void ShardedStreamEngine::PushLine(std::string_view line, std::size_t line_no,
                                   bool saw_newline) {
  if (finished_) {
    throw std::logic_error("ShardedStreamEngine: PushLine after Finish");
  }
  if (worker_fatal_.load(std::memory_order_acquire)) ThrowWorkerFatal();
  obs::MaybeAdd(obs_ingest_bytes_, line.size() + (saw_newline ? 1 : 0));
  if (Trim(line).empty()) return;

  data::IngestError err;
  err.line_no = line_no;
  if (line.size() > config_.parse.max_line_bytes) {
    err.kind = data::IngestErrorKind::kTruncatedLine;
    err.detail = StrFormat("line of %zu bytes exceeds the %zu-byte cap",
                           line.size(), config_.parse.max_line_bytes);
    if (config_.parse.policy == data::ParsePolicy::kQuarantine) {
      err.raw_line = std::string(line);
    }
    RecordRouterError(std::move(err));
    return;
  }

  data::AttackLinePreScan scan;
  bool ok = prescan_.Scan(line, &scan, &err);
  bool duplicate = false;
  if (ok && dedupe_ && !seen_ids_.Insert(scan.ddos_id)) {
    // A repeat stands only once the workers have caught up: the earlier
    // row may have been rejected in its shard, and then this row is the
    // id's first valid one, as in the reader. Only repeats pay the barrier.
    DrainBarrier();
    ForgetRejectedIds();
    if (!seen_ids_.Insert(scan.ddos_id)) {
      // The reader checks every column before the id, so a repeated id
      // that also fails the full parse is rejected for that failure.
      data::AttackRecord parsed;
      duplicate = data::TryParseAttackLine(line, &parsed, &err);
      if (duplicate) {
        err.kind = data::IngestErrorKind::kDuplicateId;
        err.detail = StrFormat("ddos_id %llu already ingested",
                               static_cast<unsigned long long>(scan.ddos_id));
      }
      ok = false;
    }
  }
  // Reclassify a torn tail exactly as the reader does: a parse failure on
  // an unterminated final line is reported as the torn write it is.
  if (!ok && !duplicate && !saw_newline) {
    err.kind = data::IngestErrorKind::kTruncatedLine;
    err.detail = "stream ended mid-record (" + err.detail + ")";
  }
  if (!ok) {
    err.line_no = line_no;
    if (config_.parse.policy == data::ParsePolicy::kQuarantine) {
      err.raw_line = std::string(line);
    }
    RecordRouterError(std::move(err));
    return;
  }

  // Global gap chain off the pre-scanned start time - byte-for-byte the
  // arithmetic Push() does with a parsed record.
  Task task;
  task.has_gap = attacks_ > 0;
  const TimePoint start(scan.start_s);
  if (task.has_gap) {
    task.gap =
        std::max<double>(0.0, static_cast<double>(start - last_start_));
  } else {
    first_start_ = start;
  }
  last_start_ = std::max(last_start_, start);
  ++attacks_;

  task.saw_newline = saw_newline;
  task.span = line;
  task.line_no = line_no;
  task.ddos_id = scan.ddos_id;
  const std::size_t n = shards_.size();
  const std::size_t record_shard =
      static_cast<std::size_t>(MixHash64(scan.botnet_id) % n);
  const std::size_t collab_shard =
      static_cast<std::size_t>(MixHash64(scan.target_bits) % n);
  if (record_shard == collab_shard) {
    task.kind = Task::Kind::kLineBoth;
    Enqueue(record_shard, std::move(task));
  } else {
    Task collab = task;
    task.kind = Task::Kind::kLineRecord;
    collab.kind = Task::Kind::kLineCollab;
    Enqueue(record_shard, std::move(task));
    Enqueue(collab_shard, std::move(collab));
  }
}

std::uint64_t ShardedStreamEngine::ParsedRecords() {
  if (finished_) return merged_->attacks_seen();
  DrainBarrier();
  std::uint64_t total = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->engine.attacks_seen();
  }
  return total;
}

data::IngestErrorReport ShardedStreamEngine::ErrorReport() {
  if (!finished_) DrainBarrier();
  data::IngestErrorReport report = router_report_;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    report.Merge(shard->report);
  }
  return report;
}

std::vector<data::IngestError> ShardedStreamEngine::DrainErrors() {
  if (!finished_) DrainBarrier();
  std::vector<data::IngestError> out = std::move(router_errors_);
  router_errors_.clear();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    out.insert(out.end(), std::make_move_iterator(shard->errors.begin()),
               std::make_move_iterator(shard->errors.end()));
    shard->errors.clear();
  }
  // One rejection per line, so line order is a total order; sorting makes
  // the merged output independent of shard count and drain timing.
  std::sort(out.begin(), out.end(),
            [](const data::IngestError& a, const data::IngestError& b) {
              return a.line_no < b.line_no;
            });
  return out;
}

void ShardedStreamEngine::SeedErrors(const data::IngestErrorReport& errors) {
  router_report_.Merge(errors);
  for (std::size_t k = 0; k < errors.counts.size(); ++k) {
    obs::MaybeAdd(obs_ingest_errors_[k], errors.counts[k]);
  }
  error_total_.fetch_add(errors.total(), std::memory_order_relaxed);
}

const common::IdSet& ShardedStreamEngine::SeenIds() {
  if (!finished_) DrainBarrier();
  ForgetRejectedIds();
  return seen_ids_;
}

void ShardedStreamEngine::SeedSeenIds(common::IdSet ids) {
  if (dedupe_) seen_ids_ = std::move(ids);
}

void ShardedStreamEngine::ForgetRejectedIds() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const std::uint64_t id : shard->rejected_ids) seen_ids_.Erase(id);
    shard->rejected_ids.clear();
  }
}

void ShardedStreamEngine::DrainBarrier() {
  DDOS_TRACE_SPAN(trace_, "drain_barrier", "sharded");
  for (auto& shard : shards_) {
    while (!shard->queue.Empty()) std::this_thread::yield();
    {
      std::lock_guard<std::mutex> lock(shard->mutex);  // flush in-flight batch
      // Barriers are the natural cadence for the per-shard state gauges:
      // frequent enough to be live, far off the per-record path.
      shard->engine.UpdateObsGauges();
    }
  }
}

StreamEngine ShardedStreamEngine::MergeShards() {
  obs::SpanTimer span(trace_, obs_merge_seconds_, "merge_shards", "sharded");
  StreamEngine merged(worker_config_);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    merged.Merge(shard->engine);
  }
  return merged;
}

void ShardedStreamEngine::Finish() {
  if (finished_) return;
  DDOS_TRACE_SPAN(trace_, "finish", "sharded");
  DrainBarrier();
  // A kStrict worker rejection flagged since the last PushLine surfaces
  // here rather than being silently folded into the merge.
  if (worker_fatal_.load(std::memory_order_acquire)) ThrowWorkerFatal();
  for (auto& shard : shards_) {
    shard->stop.store(true, std::memory_order_release);
  }
  for (auto& shard : shards_) shard->worker.join();
  merged_ = std::make_unique<StreamEngine>(MergeShards());
  merged_->Finish();
  finished_ = true;
}

const StreamEngine& ShardedStreamEngine::merged() const {
  if (!finished_) {
    throw std::logic_error("ShardedStreamEngine: merged() before Finish");
  }
  return *merged_;
}

StreamSnapshot ShardedStreamEngine::Snapshot(std::size_t top_k) {
  if (finished_) return merged_->Snapshot(top_k);
  DDOS_TRACE_SPAN(trace_, "snapshot", "sharded");
  DrainBarrier();
  return MergeShards().Snapshot(top_k);
}

ShardedCheckpointState ShardedStreamEngine::CaptureCheckpoint(
    const CheckpointMeta& meta) {
  ShardedCheckpointState state;
  state.meta = meta;
  state.router_attacks = attacks_;
  state.router_first_start_s = first_start_.seconds();
  state.router_last_start_s = last_start_.seconds();
  DrainBarrier();
  state.engines.reserve(shards_.size());
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    state.engines.push_back(shard->engine);
  }
  return state;
}

void ShardedStreamEngine::SaveCheckpoint(std::ostream& out,
                                         const CheckpointMeta& meta) {
  obs::SpanTimer span(trace_, obs_checkpoint_seconds_, "checkpoint",
                      "sharded");
  WriteShardedCheckpoint(out, CaptureCheckpoint(meta));
}

void ShardedStreamEngine::SaveCheckpoint(const std::string& path,
                                         const CheckpointMeta& meta) {
  obs::SpanTimer span(trace_, obs_checkpoint_seconds_, "checkpoint",
                      "sharded");
  WriteShardedCheckpoint(path, CaptureCheckpoint(meta));
}

void ShardedStreamEngine::RestoreFrom(const ShardedCheckpointState& state) {
  if (attacks_ != 0) {
    throw std::logic_error(
        "ShardedStreamEngine: RestoreFrom on a non-fresh engine");
  }
  attacks_ = state.router_attacks;
  first_start_ = TimePoint(state.router_first_start_s);
  last_start_ = TimePoint(state.router_last_start_s);
  // Round-robin: with an unchanged shard count every section returns to
  // its own shard (hash routing is stable), so resume is exact; a changed
  // count still merges correctly, it just re-partitions pending
  // collaboration targets at the next Finish. The first section landing on
  // a shard is assigned rather than merged - a merge into an empty engine
  // may recompress GK tuples, and assignment keeps a same-count resume
  // bit-identical to the uninterrupted run.
  std::vector<bool> seeded(shards_.size(), false);
  for (std::size_t i = 0; i < state.engines.size(); ++i) {
    const std::size_t dest = i % shards_.size();
    Shard& shard = *shards_[dest];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (!seeded[dest]) {
      shard.engine = state.engines[i];
      seeded[dest] = true;
    } else {
      shard.engine.Merge(state.engines[i]);
    }
  }
  // Checkpointed engines carry neither obs handles nor enrichment state
  // (the format predates both and geo is live-only by contract): re-arm
  // what the constructor had armed, with geo tallies restarting from the
  // resume point.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!seeded[i]) continue;
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (config_.geo != nullptr) {
      shard.engine.EnableGeo(config_.geo, config_.geo_enrich);
    }
    shard.engine.AttachMetrics(config_.metrics, std::to_string(i));
  }
}

std::size_t ShardedStreamEngine::ApproxMemoryBytes() {
  std::size_t bytes = sizeof(*this) + seen_ids_.ApproxMemoryBytes();
  for (auto& shard : shards_) {
    bytes += shard->queue.ApproxMemoryBytes();
    std::lock_guard<std::mutex> lock(shard->mutex);
    bytes += shard->engine.ApproxMemoryBytes();
  }
  if (merged_ != nullptr) bytes += merged_->ApproxMemoryBytes();
  return bytes;
}

std::vector<std::size_t> ShardedStreamEngine::QueueDepths() const {
  std::vector<std::size_t> depths;
  depths.reserve(shards_.size());
  for (const auto& shard : shards_) depths.push_back(shard->queue.SizeApprox());
  return depths;
}

std::vector<std::uint64_t> ShardedStreamEngine::ProcessedCounts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    counts.push_back(shard->processed.load(std::memory_order_relaxed));
  }
  return counts;
}

void ShardedStreamEngine::ChaosStallShard(std::size_t index, bool stalled) {
  if (index >= shards_.size()) return;
  shards_[index]->stall.store(stalled, std::memory_order_release);
}

}  // namespace ddos::stream
