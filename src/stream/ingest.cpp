#include "stream/ingest.h"

#include <algorithm>
#include <stdexcept>

#include "common/binio.h"

namespace ddos::stream {

namespace {

std::uint64_t RunKey(std::uint32_t botnet_id, net::IPv4Address target) {
  return (static_cast<std::uint64_t>(botnet_id) << 32) |
         static_cast<std::uint64_t>(target.bits());
}

}  // namespace

StreamSessionizer::StreamSessionizer(const StreamSessionizerConfig& config,
                                     std::uint64_t first_ddos_id)
    : config_(config), next_ddos_id_(first_ddos_id) {}

void StreamSessionizer::Close(const OpenRun& run,
                              std::vector<data::AttackRecord>* closed) {
  data::AttackRecord attack;
  attack.ddos_id = next_ddos_id_++;
  attack.botnet_id = run.botnet_id;
  attack.family = run.family;
  attack.target_ip = run.target_ip;
  attack.start_time = run.start;
  attack.end_time = run.end;
  attack.magnitude = run.magnitude;
  std::size_t best = 0;
  for (std::size_t p = 1; p < run.protocol_votes.size(); ++p) {
    if (run.protocol_votes[p] > run.protocol_votes[best]) best = p;
  }
  attack.category = static_cast<data::Protocol>(best);
  closed->push_back(std::move(attack));
}

void StreamSessionizer::Sweep(std::vector<data::AttackRecord>* closed) {
  const std::int64_t horizon =
      config_.sessionize.split_gap_s + config_.max_lateness_s;
  // Close in start order, not unordered_map order: bucket layout is not part
  // of the checkpointed state, and emission order feeds order-sensitive
  // consumers (interval tracking, GK sketches, collaboration windows), so a
  // resumed sessionizer must sweep identically to one that never stopped.
  std::vector<OpenRun> expired;
  for (auto it = runs_.begin(); it != runs_.end();) {
    if (watermark_ - it->second.end > horizon) {
      expired.push_back(it->second);
      it = runs_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(expired.begin(), expired.end(),
            [](const OpenRun& a, const OpenRun& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.botnet_id != b.botnet_id) return a.botnet_id < b.botnet_id;
              return a.target_ip < b.target_ip;
            });
  for (const OpenRun& run : expired) Close(run, closed);
}

std::size_t StreamSessionizer::Push(const core::Observation& obs,
                                    std::vector<data::AttackRecord>* closed) {
  const std::size_t before = closed->size();
  if (!saw_any_ || obs.start > watermark_) {
    watermark_ = obs.start;
    saw_any_ = true;
  }

  const std::uint64_t key = RunKey(obs.botnet_id, obs.target_ip);
  auto [it, inserted] = runs_.try_emplace(key);
  OpenRun& run = it->second;
  if (!inserted) {
    if (obs.start - run.end <= config_.sessionize.split_gap_s) {
      // Same attack: extend the run (Section II-D merge).
      run.end = std::max(run.end, obs.end);
      run.magnitude = std::max(run.magnitude, obs.sources);
      ++run.protocol_votes[static_cast<std::size_t>(obs.protocol)];
      if (++pushes_ % config_.sweep_period == 0) Sweep(closed);
      return closed->size() - before;
    }
    Close(run, closed);  // gap exceeded: previous run is a finished attack
    run = OpenRun{};
  }
  run.botnet_id = obs.botnet_id;
  run.family = obs.family;
  run.target_ip = obs.target_ip;
  run.start = obs.start;
  run.end = obs.end;
  run.magnitude = obs.sources;
  ++run.protocol_votes[static_cast<std::size_t>(obs.protocol)];
  if (++pushes_ % config_.sweep_period == 0) Sweep(closed);
  return closed->size() - before;
}

std::size_t StreamSessionizer::Flush(std::vector<data::AttackRecord>* closed) {
  const std::size_t before = closed->size();
  // Deterministic emission order for the final drain: by start time.
  std::vector<const OpenRun*> remaining;
  remaining.reserve(runs_.size());
  for (const auto& [key, run] : runs_) remaining.push_back(&run);
  std::sort(remaining.begin(), remaining.end(),
            [](const OpenRun* a, const OpenRun* b) {
              if (a->start != b->start) return a->start < b->start;
              if (a->botnet_id != b->botnet_id) return a->botnet_id < b->botnet_id;
              return a->target_ip < b->target_ip;
            });
  for (const OpenRun* run : remaining) Close(*run, closed);
  runs_.clear();
  return closed->size() - before;
}

void StreamSessionizer::Merge(const StreamSessionizer& other) {
  next_ddos_id_ = std::max(next_ddos_id_, other.next_ddos_id_);
  pushes_ += other.pushes_;
  if (!saw_any_) {
    watermark_ = other.watermark_;
    saw_any_ = other.saw_any_;
  } else if (other.saw_any_ && other.watermark_ > watermark_) {
    watermark_ = other.watermark_;
  }
  for (const auto& [key, theirs] : other.runs_) {
    auto [it, inserted] = runs_.try_emplace(key, theirs);
    if (inserted) continue;
    OpenRun& ours = it->second;
    ours.start = std::min(ours.start, theirs.start);
    ours.end = std::max(ours.end, theirs.end);
    ours.magnitude = std::max(ours.magnitude, theirs.magnitude);
    for (std::size_t p = 0; p < ours.protocol_votes.size(); ++p) {
      const std::uint32_t sum = static_cast<std::uint32_t>(
          ours.protocol_votes[p] + theirs.protocol_votes[p]);
      ours.protocol_votes[p] = static_cast<std::uint16_t>(
          std::min<std::uint32_t>(sum, 0xffff));
    }
  }
}

std::size_t StreamSessionizer::ApproxMemoryBytes() const {
  return sizeof(*this) + runs_.size() * (sizeof(OpenRun) + 48);
}

void StreamSessionizer::SerializeTo(std::ostream& out) const {
  io::WriteU64(out, next_ddos_id_);
  io::WriteU64(out, pushes_);
  io::WriteI64(out, watermark_.seconds());
  io::WriteU32(out, saw_any_ ? 1 : 0);
  io::WriteU64(out, runs_.size());
  for (const auto& [key, run] : runs_) {
    io::WriteU64(out, key);
    io::WriteU32(out, run.botnet_id);
    io::WriteU32(out, static_cast<std::uint32_t>(run.family));
    io::WriteU32(out, run.target_ip.bits());
    io::WriteI64(out, run.start.seconds());
    io::WriteI64(out, run.end.seconds());
    io::WriteU32(out, run.magnitude);
    for (const std::uint16_t v : run.protocol_votes) io::WriteU16(out, v);
  }
}

void StreamSessionizer::DeserializeFrom(std::istream& in) {
  next_ddos_id_ = io::ReadU64(in);
  pushes_ = io::ReadU64(in);
  watermark_ = TimePoint(io::ReadSeconds(in));
  saw_any_ = io::ReadU32(in) != 0;
  const std::uint64_t n = io::ReadU64(in);
  runs_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t key = io::ReadU64(in);
    OpenRun run;
    run.botnet_id = io::ReadU32(in);
    const auto family = data::FamilyFromIndex(io::ReadU32(in));
    if (!family) throw std::runtime_error("checkpoint: unknown family");
    run.family = *family;
    run.target_ip = net::IPv4Address(io::ReadU32(in));
    run.start = TimePoint(io::ReadSeconds(in));
    run.end = TimePoint(io::ReadSeconds(in));
    run.magnitude = io::ReadU32(in);
    for (std::uint16_t& v : run.protocol_votes) v = io::ReadU16(in);
    runs_.emplace(key, run);
  }
}

}  // namespace ddos::stream
