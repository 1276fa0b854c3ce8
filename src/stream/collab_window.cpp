#include "stream/collab_window.h"

#include <cstdlib>
#include <set>
#include <stdexcept>

#include "common/binio.h"

namespace ddos::stream {

namespace {
constexpr std::uint64_t kSweepPeriod = 256;
}  // namespace

WindowedCollabDetector::WindowedCollabDetector(
    const core::CollaborationConfig& config)
    : config_(config) {}

void WindowedCollabDetector::Finalize(const Pending& pending) {
  std::set<std::uint32_t> botnets;
  std::set<data::Family> families;
  for (const Participant& p : pending.participants) {
    botnets.insert(p.botnet_id);
    families.insert(p.family);
  }
  if (botnets.size() < 2) return;
  const bool intra = families.size() == 1;
  ++stats_.events;
  if (intra) {
    ++stats_.intra_family_events;
  } else {
    ++stats_.inter_family_events;
  }
  stats_.total_participants += pending.participants.size();
  // Same per-family attribution as core::TabulateCollaborations: every
  // distinct participating family is credited once per event.
  for (const data::Family f : families) {
    if (intra) {
      ++stats_.table.intra[static_cast<std::size_t>(f)];
    } else {
      ++stats_.table.inter[static_cast<std::size_t>(f)];
    }
  }
}

void WindowedCollabDetector::Sweep() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    // Once the watermark is past the anchor's window no future in-order
    // attack can join the group; its verdict is final.
    if (watermark_ - it->second.anchor_start > config_.start_window_s) {
      Finalize(it->second);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void WindowedCollabDetector::Push(const data::AttackRecord& attack) {
  Push(CollabObservation{attack.target_ip.bits(), attack.start_time,
                         attack.duration_seconds(), attack.family,
                         attack.botnet_id});
}

void WindowedCollabDetector::Push(const CollabObservation& obs) {
  if (obs.start > watermark_ || pushes_ == 0) {
    watermark_ = obs.start;
  }
  ++pushes_;

  auto [it, inserted] = pending_.try_emplace(obs.target_bits);
  Pending& pending = it->second;
  if (!inserted) {
    if (obs.start - pending.anchor_start <= config_.start_window_s) {
      // Inside the anchor's window: participate if the duration matches;
      // either way the attack is consumed by this group (batch semantics).
      if (std::llabs(obs.duration_s - pending.anchor_duration_s) <=
          config_.max_duration_diff_s) {
        pending.participants.push_back(Participant{obs.family, obs.botnet_id});
      }
      if (pushes_ % kSweepPeriod == 0) Sweep();
      return;
    }
    Finalize(pending);  // window left behind: group is complete
    pending = Pending{};
  }
  pending.anchor_start = obs.start;
  pending.anchor_duration_s = obs.duration_s;
  pending.participants.push_back(Participant{obs.family, obs.botnet_id});
  if (pushes_ % kSweepPeriod == 0) Sweep();
}

void WindowedCollabDetector::Merge(const WindowedCollabDetector& other) {
  // Copy first so merging an engine into itself (or aliased state) is safe.
  const WindowedCollabStats other_stats = other.stats_;
  auto other_pending = other.pending_;

  stats_.events += other_stats.events;
  stats_.intra_family_events += other_stats.intra_family_events;
  stats_.inter_family_events += other_stats.inter_family_events;
  stats_.total_participants += other_stats.total_participants;
  for (std::size_t i = 0; i < stats_.table.intra.size(); ++i) {
    stats_.table.intra[i] += other_stats.table.intra[i];
    stats_.table.inter[i] += other_stats.table.inter[i];
  }
  if (pushes_ == 0) {
    watermark_ = other.watermark_;
  } else if (other.pushes_ != 0 && other.watermark_ > watermark_) {
    watermark_ = other.watermark_;
  }
  pushes_ += other.pushes_;

  for (auto& [key, theirs] : other_pending) {
    auto [it, inserted] = pending_.try_emplace(key, std::move(theirs));
    if (inserted) continue;
    // Same target pending on both sides (only possible for time-partition
    // merges; the sharded engine keeps targets disjoint). Keep the group
    // whose anchor is earlier; if the later anchor still falls inside the
    // earlier window, its participants join that group, otherwise the
    // earlier group's verdict is final.
    Pending& ours = it->second;
    Pending later = std::move(theirs);
    if (later.anchor_start < ours.anchor_start) std::swap(ours, later);
    if (later.anchor_start - ours.anchor_start <= config_.start_window_s) {
      ours.participants.insert(ours.participants.end(),
                               later.participants.begin(),
                               later.participants.end());
    } else {
      Finalize(ours);
      ours = std::move(later);
    }
  }
}

void WindowedCollabDetector::Flush() {
  for (const auto& [key, pending] : pending_) Finalize(pending);
  pending_.clear();
}

void WindowedCollabDetector::SerializeTo(std::ostream& out) const {
  io::WriteU64(out, stats_.events);
  io::WriteU64(out, stats_.intra_family_events);
  io::WriteU64(out, stats_.inter_family_events);
  io::WriteU64(out, stats_.total_participants);
  for (const std::uint64_t n : stats_.table.intra) io::WriteU64(out, n);
  for (const std::uint64_t n : stats_.table.inter) io::WriteU64(out, n);
  io::WriteI64(out, watermark_.seconds());
  io::WriteU64(out, pushes_);
  io::WriteU64(out, pending_.size());
  for (const auto& [key, pending] : pending_) {
    io::WriteU32(out, key);
    io::WriteI64(out, pending.anchor_start.seconds());
    io::WriteI64(out, pending.anchor_duration_s);
    io::WriteU64(out, pending.participants.size());
    for (const Participant& p : pending.participants) {
      io::WriteU32(out, static_cast<std::uint32_t>(p.family));
      io::WriteU32(out, p.botnet_id);
    }
  }
}

void WindowedCollabDetector::DeserializeFrom(std::istream& in) {
  stats_ = WindowedCollabStats{};
  stats_.events = io::ReadU64(in);
  stats_.intra_family_events = io::ReadU64(in);
  stats_.inter_family_events = io::ReadU64(in);
  stats_.total_participants = io::ReadU64(in);
  for (std::uint64_t& n : stats_.table.intra) n = io::ReadU64(in);
  for (std::uint64_t& n : stats_.table.inter) n = io::ReadU64(in);
  watermark_ = TimePoint(io::ReadSeconds(in));
  pushes_ = io::ReadU64(in);
  const std::uint64_t n_pending = io::ReadU64(in);
  pending_.clear();
  for (std::uint64_t i = 0; i < n_pending; ++i) {
    const std::uint32_t key = io::ReadU32(in);
    Pending pending;
    pending.anchor_start = TimePoint(io::ReadSeconds(in));
    pending.anchor_duration_s = io::ReadSeconds(in);
    const std::uint64_t n_part = io::ReadU64(in);
    for (std::uint64_t j = 0; j < n_part; ++j) {
      Participant p;
      const auto family = data::FamilyFromIndex(io::ReadU32(in));
      if (!family) throw std::runtime_error("checkpoint: unknown family");
      p.family = *family;
      p.botnet_id = io::ReadU32(in);
      pending.participants.push_back(p);
    }
    pending_.emplace(key, std::move(pending));
  }
}

std::size_t WindowedCollabDetector::ApproxMemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& [key, pending] : pending_) {
    bytes += sizeof(Pending) + 48 +
             pending.participants.capacity() * sizeof(Participant);
  }
  return bytes;
}

}  // namespace ddos::stream
