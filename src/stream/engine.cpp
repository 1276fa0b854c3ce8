#include "stream/engine.h"

#include <algorithm>
#include <iterator>

#include "common/binio.h"

namespace ddos::stream {

StreamEngine::StreamEngine(const StreamEngineConfig& config)
    : config_(config),
      interval_sketch_(config.quantile_epsilon),
      duration_sketch_(config.quantile_epsilon),
      top_targets_(config.topk_capacity),
      top_countries_(config.topk_capacity),
      distinct_targets_(config.distinct_k),
      distinct_botnets_(config.distinct_k),
      collab_(config.collab),
      sessionizer_(config.sessionizer) {}

void StreamEngine::AddInterval(double gap) {
  interval_welford_.Add(gap);
  interval_sketch_.Add(gap);
  if (gap <= static_cast<double>(core::kConcurrencyWindowS)) {
    ++intervals_concurrent_;
  }
  if (gap >= 1000.0 && gap <= 10000.0) ++intervals_1k_10k_;
}

void StreamEngine::AddRecord(const data::AttackRecord& attack) {
  if (attacks_ == 0) first_start_ = attack.start_time;
  last_start_ = std::max(last_start_, attack.start_time);
  ++attacks_;
  obs::MaybeAdd(obs_attacks_);

  const double duration =
      std::max<double>(0.0, static_cast<double>(attack.duration_seconds()));
  duration_welford_.Add(duration);
  duration_sketch_.Add(duration);
  if (duration >= 100.0 && duration <= 10000.0) ++durations_100_10k_;
  if (duration < 4.0 * kSecondsPerHour) ++durations_under_4h_;

  ++family_attacks_[static_cast<std::size_t>(attack.family)];
  ++protocol_attacks_[static_cast<std::size_t>(attack.category)];
  if (!attack.cc.empty()) {
    countries_.insert(attack.cc);
    top_countries_.Add(attack.cc);
  }
  top_targets_.Add(attack.target_ip.bits());
  distinct_targets_.Add(attack.target_ip.bits());
  distinct_botnets_.Add(attack.botnet_id);
  if (geo_) geo_->Enrich(attack);

  window_starts_.push_back(attack.start_time);
  while (!window_starts_.empty() &&
         last_start_ - window_starts_.front() > config_.rolling_window_s) {
    window_starts_.pop_front();
  }
}

void StreamEngine::Push(const data::AttackRecord& attack) {
  if (attacks_ > 0) {
    // Matches AllAttackIntervals over a chronological feed; out-of-order
    // arrivals clamp to 0, the paper's "simultaneous" bucket.
    AddInterval(std::max<double>(
        0.0, static_cast<double>(attack.start_time - last_start_)));
  }
  AddRecord(attack);
  collab_.Push(attack);
}

void StreamEngine::PushRouted(const data::AttackRecord& attack, bool has_gap,
                              double gap) {
  if (has_gap) AddInterval(std::max(0.0, gap));
  AddRecord(attack);
}

void StreamEngine::PushCollab(const CollabObservation& obs) {
  collab_.Push(obs);
  obs::MaybeAdd(obs_collab_obs_);
}

void StreamEngine::EnableGeo(const geo::GeoMmdb* db,
                             const GeoEnrichConfig& config) {
  geo_.emplace(db, config);
}

void StreamEngine::AttachMetrics(obs::MetricsRegistry* registry,
                                 std::string_view shard) {
  if (registry == nullptr) return;
  if (geo_) geo_->AttachMetrics(registry, shard);
  const obs::Labels labels = {{"shard", std::string(shard)}};
  obs_attacks_ = registry->GetCounter(
      "ddoscope_stream_attacks_total", "Attack records applied to the engine",
      labels);
  obs_collab_obs_ = registry->GetCounter(
      "ddoscope_stream_collab_observations_total",
      "Observations fed to the collaboration detector", labels);
  obs_memory_ = registry->GetGauge(
      "ddoscope_stream_memory_bytes",
      "ApproxMemoryBytes of the engine (sketches, windows, open runs)",
      labels);
  obs_open_runs_ = registry->GetGauge(
      "ddoscope_stream_open_runs", "Open sessionizer runs held in memory",
      labels);
}

void StreamEngine::UpdateObsGauges() const {
  if (obs_memory_ == nullptr) return;
  obs_memory_->Set(static_cast<std::int64_t>(ApproxMemoryBytes()));
  obs::MaybeSet(obs_open_runs_,
                static_cast<std::int64_t>(sessionizer_.open_runs()));
}

void StreamEngine::Merge(const StreamEngine& other,
                         const MergeOptions& options) {
  // The boundary interval first, while last_start_ still marks the end of
  // this side alone.
  if (options.stitch_boundary_interval && attacks_ > 0 && other.attacks_ > 0) {
    AddInterval(std::max<double>(
        0.0, static_cast<double>(other.first_start_ - last_start_)));
  }
  if (other.attacks_ > 0) {
    first_start_ = attacks_ == 0 ? other.first_start_
                                 : std::min(first_start_, other.first_start_);
    last_start_ = attacks_ == 0 ? other.last_start_
                                : std::max(last_start_, other.last_start_);
  }
  attacks_ += other.attacks_;

  for (std::size_t i = 0; i < family_attacks_.size(); ++i) {
    family_attacks_[i] += other.family_attacks_[i];
  }
  for (std::size_t i = 0; i < protocol_attacks_.size(); ++i) {
    protocol_attacks_[i] += other.protocol_attacks_[i];
  }
  countries_.insert(other.countries_.begin(), other.countries_.end());

  interval_welford_.Merge(other.interval_welford_);
  duration_welford_.Merge(other.duration_welford_);
  interval_sketch_.Merge(other.interval_sketch_);
  duration_sketch_.Merge(other.duration_sketch_);
  intervals_concurrent_ += other.intervals_concurrent_;
  intervals_1k_10k_ += other.intervals_1k_10k_;
  durations_100_10k_ += other.durations_100_10k_;
  durations_under_4h_ += other.durations_under_4h_;

  top_targets_.Merge(other.top_targets_);
  top_countries_.Merge(other.top_countries_);
  distinct_targets_.Merge(other.distinct_targets_);
  distinct_botnets_.Merge(other.distinct_botnets_);

  collab_.Merge(other.collab_);
  sessionizer_.Merge(other.sessionizer_);

  // Rebuild the rolling window: both deques are sorted (chronological
  // feeds), so a linear merge plus a re-trim against the merged last start
  // reproduces exactly the deque a single engine would hold.
  std::deque<TimePoint> merged_window;
  std::merge(window_starts_.begin(), window_starts_.end(),
             other.window_starts_.begin(), other.window_starts_.end(),
             std::back_inserter(merged_window));
  window_starts_ = std::move(merged_window);
  while (!window_starts_.empty() &&
         last_start_ - window_starts_.front() > config_.rolling_window_s) {
    window_starts_.pop_front();
  }

  // Geo enrichment folds last; an unenriched engine adopts the other
  // side's database and config so a merge target built fresh (MergeShards)
  // still accumulates every shard's tallies.
  if (other.geo_) {
    if (!geo_) geo_.emplace(other.geo_->db(), other.geo_->config());
    geo_->Merge(*other.geo_);
  }
}

void StreamEngine::PushObservation(const core::Observation& obs) {
  session_buffer_.clear();
  sessionizer_.Push(obs, &session_buffer_);
  for (const data::AttackRecord& attack : session_buffer_) Push(attack);
}

void StreamEngine::Finish() {
  session_buffer_.clear();
  sessionizer_.Flush(&session_buffer_);
  std::sort(session_buffer_.begin(), session_buffer_.end(),
            [](const data::AttackRecord& a, const data::AttackRecord& b) {
              return a.start_time < b.start_time;
            });
  for (const data::AttackRecord& attack : session_buffer_) Push(attack);
  session_buffer_.clear();
  collab_.Flush();
}

StreamSnapshot StreamEngine::Snapshot(std::size_t top_k) const {
  UpdateObsGauges();  // snapshot cadence is the natural gauge refresh
  StreamSnapshot snap;
  snap.attacks = attacks_;
  snap.first_start = first_start_;
  snap.last_start = last_start_;
  snap.family_attacks = family_attacks_;
  snap.countries = countries_.size();

  for (const data::Protocol p : data::AllProtocols()) {
    const std::uint64_t n = protocol_attacks_[static_cast<std::size_t>(p)];
    if (n > 0) snap.protocols.push_back(core::ProtocolCount{p, n});
  }
  std::sort(snap.protocols.begin(), snap.protocols.end(),
            [](const core::ProtocolCount& a, const core::ProtocolCount& b) {
              return a.attacks > b.attacks;
            });

  auto fill_summary = [](const stats::StreamingStats& welford,
                         const GkQuantileSketch& sketch) {
    stats::Summary s;
    s.count = welford.count();
    s.mean = welford.mean();
    s.stddev = welford.stddev();
    s.min = welford.count() > 0 ? welford.min() : 0.0;
    s.max = welford.count() > 0 ? welford.max() : 0.0;
    s.median = sketch.Quantile(0.5);
    s.p25 = sketch.Quantile(0.25);
    s.p75 = sketch.Quantile(0.75);
    s.p90 = sketch.Quantile(0.90);
    s.p99 = sketch.Quantile(0.99);
    return s;
  };

  snap.intervals.summary = fill_summary(interval_welford_, interval_sketch_);
  snap.intervals.p80_seconds = interval_sketch_.Quantile(0.80);
  if (interval_welford_.count() > 0) {
    const double n = static_cast<double>(interval_welford_.count());
    snap.intervals.fraction_concurrent =
        static_cast<double>(intervals_concurrent_) / n;
    snap.intervals.fraction_1k_10k =
        static_cast<double>(intervals_1k_10k_) / n;
  }

  snap.durations.summary = fill_summary(duration_welford_, duration_sketch_);
  snap.durations.p80_seconds = duration_sketch_.Quantile(0.80);
  if (duration_welford_.count() > 0) {
    const double n = static_cast<double>(duration_welford_.count());
    snap.durations.fraction_100_10000 =
        static_cast<double>(durations_100_10k_) / n;
    snap.durations.fraction_under_4h =
        static_cast<double>(durations_under_4h_) / n;
  }

  snap.distinct_targets = distinct_targets_.Estimate();
  snap.distinct_botnets = distinct_botnets_.Estimate();
  for (const auto& e : top_targets_.TopK(top_k)) {
    snap.top_targets.push_back(
        TopEntry{net::IPv4Address(e.key).ToString(), e.count, e.error});
  }
  for (const auto& e : top_countries_.TopK(top_k)) {
    snap.top_countries.push_back(TopEntry{e.key, e.count, e.error});
  }

  snap.collab = collab_.stats();
  if (geo_) snap.geo = geo_->Snapshot(top_k);
  snap.attacks_in_window = window_starts_.size();
  snap.engine_memory_bytes = ApproxMemoryBytes();
  return snap;
}

void StreamEngine::SerializeTo(std::ostream& out) const {
  // Configuration first, so Deserialize can construct the engine (and its
  // sketches, sized from the config) before filling in state.
  io::WriteF64(out, config_.quantile_epsilon);
  io::WriteU64(out, config_.topk_capacity);
  io::WriteU64(out, config_.distinct_k);
  io::WriteI64(out, config_.rolling_window_s);
  io::WriteI64(out, config_.collab.start_window_s);
  io::WriteI64(out, config_.collab.max_duration_diff_s);
  io::WriteI64(out, config_.sessionizer.sessionize.split_gap_s);
  io::WriteI64(out, config_.sessionizer.max_lateness_s);
  io::WriteU64(out, config_.sessionizer.sweep_period);

  io::WriteU64(out, attacks_);
  io::WriteI64(out, first_start_.seconds());
  io::WriteI64(out, last_start_.seconds());
  for (const std::uint64_t n : family_attacks_) io::WriteU64(out, n);
  for (const std::uint64_t n : protocol_attacks_) io::WriteU64(out, n);
  io::WriteU64(out, countries_.size());
  for (const std::string& cc : countries_) io::WriteString(out, cc);

  for (const stats::StreamingStats* w : {&interval_welford_, &duration_welford_}) {
    io::WriteU64(out, w->count());
    io::WriteF64(out, w->count() > 0 ? w->mean() : 0.0);
    io::WriteF64(out, w->m2());
    io::WriteF64(out, w->count() > 0 ? w->min() : 0.0);
    io::WriteF64(out, w->count() > 0 ? w->max() : 0.0);
  }
  interval_sketch_.SerializeTo(out);
  duration_sketch_.SerializeTo(out);
  io::WriteU64(out, intervals_concurrent_);
  io::WriteU64(out, intervals_1k_10k_);
  io::WriteU64(out, durations_100_10k_);
  io::WriteU64(out, durations_under_4h_);

  top_targets_.SerializeTo(out);
  top_countries_.SerializeTo(out);
  distinct_targets_.SerializeTo(out);
  distinct_botnets_.SerializeTo(out);

  collab_.SerializeTo(out);
  sessionizer_.SerializeTo(out);

  io::WriteU64(out, window_starts_.size());
  for (const TimePoint t : window_starts_) io::WriteI64(out, t.seconds());
}

StreamEngine StreamEngine::Deserialize(std::istream& in) {
  StreamEngineConfig config;
  config.quantile_epsilon = io::ReadF64(in);
  config.topk_capacity = io::ReadU64(in);
  config.distinct_k = io::ReadU64(in);
  config.rolling_window_s = io::ReadSeconds(in);
  config.collab.start_window_s = io::ReadSeconds(in);
  config.collab.max_duration_diff_s = io::ReadSeconds(in);
  config.sessionizer.sessionize.split_gap_s = io::ReadSeconds(in);
  config.sessionizer.max_lateness_s = io::ReadSeconds(in);
  config.sessionizer.sweep_period =
      std::max<std::size_t>(io::ReadU64(in), 1);

  StreamEngine engine(config);
  engine.attacks_ = io::ReadU64(in);
  engine.first_start_ = TimePoint(io::ReadSeconds(in));
  engine.last_start_ = TimePoint(io::ReadSeconds(in));
  for (std::uint64_t& n : engine.family_attacks_) n = io::ReadU64(in);
  for (std::uint64_t& n : engine.protocol_attacks_) n = io::ReadU64(in);
  const std::uint64_t n_countries = io::ReadU64(in);
  for (std::uint64_t i = 0; i < n_countries; ++i) {
    engine.countries_.insert(io::ReadString(in));
  }

  for (stats::StreamingStats* w :
       {&engine.interval_welford_, &engine.duration_welford_}) {
    const std::uint64_t count = io::ReadU64(in);
    const double mean = io::ReadF64(in);
    const double m2 = io::ReadF64(in);
    const double min = io::ReadF64(in);
    const double max = io::ReadF64(in);
    *w = stats::StreamingStats::FromMoments(count, mean, m2, min, max);
  }
  engine.interval_sketch_.DeserializeFrom(in);
  engine.duration_sketch_.DeserializeFrom(in);
  engine.intervals_concurrent_ = io::ReadU64(in);
  engine.intervals_1k_10k_ = io::ReadU64(in);
  engine.durations_100_10k_ = io::ReadU64(in);
  engine.durations_under_4h_ = io::ReadU64(in);

  engine.top_targets_.DeserializeFrom(in);
  engine.top_countries_.DeserializeFrom(in);
  engine.distinct_targets_.DeserializeFrom(in);
  engine.distinct_botnets_.DeserializeFrom(in);

  engine.collab_.DeserializeFrom(in);
  engine.sessionizer_.DeserializeFrom(in);

  const std::uint64_t n_window = io::ReadU64(in);
  for (std::uint64_t i = 0; i < n_window; ++i) {
    engine.window_starts_.push_back(TimePoint(io::ReadSeconds(in)));
  }
  return engine;
}

std::size_t StreamEngine::ApproxMemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += interval_sketch_.ApproxMemoryBytes();
  bytes += duration_sketch_.ApproxMemoryBytes();
  bytes += top_targets_.ApproxMemoryBytes();
  bytes += top_countries_.ApproxMemoryBytes();
  bytes += distinct_targets_.ApproxMemoryBytes();
  bytes += distinct_botnets_.ApproxMemoryBytes();
  bytes += collab_.ApproxMemoryBytes();
  bytes += sessionizer_.ApproxMemoryBytes();
  bytes += countries_.size() * 48;
  bytes += window_starts_.size() * sizeof(TimePoint);
  if (geo_) bytes += geo_->ApproxMemoryBytes();
  return bytes;
}

}  // namespace ddos::stream
