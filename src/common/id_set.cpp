#include "common/id_set.h"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/binio.h"

namespace ddos::common {

bool IdSet::Insert(std::uint64_t id) {
  // In-order feeds land here: the id extends or follows the last run.
  if (runs_.empty()) {
    runs_.emplace(id, id);
    return true;
  }
  const auto last = std::prev(runs_.end());
  if (id > last->second) {
    if (id - 1 == last->second) {
      last->second = id;
    } else {
      runs_.emplace_hint(runs_.end(), id, id);
    }
    return true;
  }
  if (id >= last->first) return false;

  // id < last->first, so a run starts past it (and id + 1 cannot wrap).
  const auto next = runs_.upper_bound(id);
  const bool joins_next = id + 1 == next->first;
  if (next != runs_.begin()) {
    const auto prev = std::prev(next);
    if (id <= prev->second) return false;
    if (prev->second + 1 == id) {
      if (joins_next) {
        prev->second = next->second;
        runs_.erase(next);
      } else {
        prev->second = id;
      }
      return true;
    }
  }
  if (joins_next) {
    // Lower the next run's key in place: no allocation, no rebalancing.
    const auto hint = std::next(next);
    auto node = runs_.extract(next);
    node.key() = id;
    runs_.insert(hint, std::move(node));
  } else {
    runs_.emplace_hint(next, id, id);
  }
  return true;
}

bool IdSet::Erase(std::uint64_t id) {
  auto it = runs_.upper_bound(id);
  if (it == runs_.begin()) return false;
  --it;
  const std::uint64_t lo = it->first;
  const std::uint64_t hi = it->second;
  if (id > hi) return false;
  if (lo == hi) {
    runs_.erase(it);
  } else if (id == lo) {
    const auto hint = std::next(it);
    auto node = runs_.extract(it);
    node.key() = id + 1;
    runs_.insert(hint, std::move(node));
  } else {
    it->second = id - 1;
    if (id < hi) runs_.emplace_hint(std::next(it), id + 1, hi);
  }
  return true;
}

std::size_t IdSet::ApproxMemoryBytes() const {
  // A red-black tree node: the pair plus three links and a colour word.
  constexpr std::size_t kNodeBytes =
      sizeof(Runs::value_type) + 4 * sizeof(void*);
  return sizeof(*this) + runs_.size() * kNodeBytes;
}

void IdSet::SerializeTo(std::ostream& out) const {
  io::WriteU64(out, runs_.size());
  for (const auto& [lo, hi] : runs_) {
    io::WriteU64(out, lo);
    io::WriteU64(out, hi);
  }
}

IdSet IdSet::DeserializeFrom(std::istream& in) {
  IdSet set;
  // No reservation from the count: a garbage count runs into the end of
  // the input and throws there, after reading only what the input holds.
  const std::uint64_t count = io::ReadU64(in);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t lo = io::ReadU64(in);
    const std::uint64_t hi = io::ReadU64(in);
    if (lo > hi) throw std::runtime_error("IdSet: run with lo > hi");
    if (!set.runs_.empty()) {
      const std::uint64_t prev_hi = set.runs_.rbegin()->second;
      if (prev_hi == UINT64_MAX || lo <= prev_hi + 1) {
        throw std::runtime_error("IdSet: runs out of order or adjacent");
      }
    }
    set.runs_.emplace_hint(set.runs_.end(), lo, hi);
  }
  return set;
}

}  // namespace ddos::common
