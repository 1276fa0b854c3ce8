// IdSet: an exact set of 64-bit ids stored as disjoint [lo, hi] runs.
//
// Duplicate detection ("one row, one attack") has to remember every
// ddos_id a feed has delivered. Attack feeds number their rows densely and
// mostly in order, so the ids seen so far collapse into a handful of runs:
// memory is O(number of id gaps), not O(ids), and stays O(1) on a dense
// feed however long it runs. Runs are kept canonical - sorted, disjoint and
// never adjacent (hi + 1 < next lo) - so two sets holding the same ids hold
// the same runs and serialize to the same bytes.
//
// Cost: an id that extends or follows the last run is O(1) (the in-order
// feed's fast path); any other id is O(log runs) in a std::map, so a feed
// of random ids never goes quadratic. Roaring bitmaps (Chambi, Lemire et
// al., SPE 2016) are the reference design should real feeds fragment into
// many short runs.
#ifndef DDOSCOPE_COMMON_ID_SET_H_
#define DDOSCOPE_COMMON_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>

namespace ddos::common {

class IdSet {
 public:
  using Runs = std::map<std::uint64_t, std::uint64_t>;  // lo -> hi

  // Adds `id`; false when it was already present.
  bool Insert(std::uint64_t id);
  // Removes `id` (splitting its run if needed); false when it was absent.
  bool Erase(std::uint64_t id);

  // The canonical runs, ordered by lo.
  const Runs& runs() const { return runs_; }
  std::size_t ApproxMemoryBytes() const;

  // Little-endian over common/binio.h: u64 run count, then lo and hi per
  // run. DeserializeFrom throws std::runtime_error on a short read or on
  // runs that are not canonical, so a corrupt file never yields a set that
  // disagrees with itself.
  void SerializeTo(std::ostream& out) const;
  static IdSet DeserializeFrom(std::istream& in);

  bool operator==(const IdSet&) const = default;

 private:
  Runs runs_;
};

}  // namespace ddos::common

#endif  // DDOSCOPE_COMMON_ID_SET_H_
