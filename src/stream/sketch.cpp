#include "stream/sketch.h"

#include <cmath>

namespace ddos::stream {

GkQuantileSketch::GkQuantileSketch(double epsilon)
    : epsilon_(epsilon > 0.0 && epsilon < 0.5 ? epsilon : 0.005),
      compress_period_(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(1.0 / (2.0 * epsilon_)))) {}

std::uint64_t GkQuantileSketch::MaxGap() const {
  const double cap = 2.0 * epsilon_ * static_cast<double>(n_);
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(cap));
}

void GkQuantileSketch::Add(double x) {
  ++n_;
  const auto it = std::upper_bound(
      tuples_.begin(), tuples_.end(), x,
      [](double value, const Tuple& t) { return value < t.v; });
  // Interior insertions take the loosest allowed rank uncertainty; the
  // extremes stay exact so min/max queries never drift.
  std::uint64_t delta = 0;
  if (it != tuples_.begin() && it != tuples_.end()) delta = MaxGap() - 1;
  tuples_.insert(it, Tuple{x, 1, delta});
  if (++since_compress_ >= compress_period_) {
    Compress();
    since_compress_ = 0;
  }
}

void GkQuantileSketch::Merge(const GkQuantileSketch& other) {
  if (other.n_ == 0) return;
  epsilon_ = std::max(epsilon_, other.epsilon_);
  compress_period_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(1.0 / (2.0 * epsilon_)));
  if (n_ == 0) {
    n_ = other.n_;
    tuples_ = other.tuples_;
    since_compress_ = 0;
    Compress();
    return;
  }
  // Classical COMBINE: interleave by value; a tuple adopted from one side
  // additionally absorbs the rank uncertainty of its successor on the
  // other side (g + delta - 1), so rmin/rmax stay valid bounds over the
  // union. Ends stay exact: the global min's successor has g = 1, delta =
  // 0 and the global max has no successor.
  const auto successor_slack = [](const std::vector<Tuple>& tuples,
                                  std::size_t next) -> std::uint64_t {
    return next < tuples.size() ? tuples[next].g + tuples[next].delta - 1 : 0;
  };
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + other.tuples_.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < tuples_.size() || j < other.tuples_.size()) {
    const bool take_ours =
        j >= other.tuples_.size() ||
        (i < tuples_.size() && tuples_[i].v <= other.tuples_[j].v);
    Tuple t = take_ours ? tuples_[i] : other.tuples_[j];
    t.delta += take_ours ? successor_slack(other.tuples_, j)
                         : successor_slack(tuples_, i);
    (take_ours ? i : j) += 1;
    merged.push_back(t);
  }
  tuples_ = std::move(merged);
  n_ += other.n_;
  since_compress_ = 0;
  Compress();
}

void GkQuantileSketch::Compress() {
  if (tuples_.size() < 3) return;
  const std::uint64_t cap = MaxGap();
  std::vector<Tuple> out;
  out.reserve(tuples_.size());
  out.push_back(tuples_.front());
  for (std::size_t i = 1; i < tuples_.size(); ++i) {
    Tuple t = tuples_[i];
    // Merge the left neighbor into t while the combined tuple keeps the
    // g + delta <= 2*epsilon*n invariant; the first tuple (the minimum)
    // is never merged away.
    while (out.size() >= 2 && out.back().g + t.g + t.delta <= cap) {
      t.g += out.back().g;
      out.pop_back();
    }
    out.push_back(t);
  }
  tuples_ = std::move(out);
}

double GkQuantileSketch::Quantile(double q) const {
  if (tuples_.empty()) return 0.0;
  const double qc = std::clamp(q, 0.0, 1.0);
  const double rank =
      std::max(1.0, std::ceil(qc * static_cast<double>(n_)));
  const double allowed = epsilon_ * static_cast<double>(n_);
  std::uint64_t rmin = 0;
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    rmin += tuples_[i].g;
    const double rmax =
        static_cast<double>(rmin) + static_cast<double>(tuples_[i].delta);
    if (rmax > rank + allowed) {
      return tuples_[i == 0 ? 0 : i - 1].v;
    }
  }
  return tuples_.back().v;
}

std::size_t GkQuantileSketch::ApproxMemoryBytes() const {
  return sizeof(*this) + tuples_.capacity() * sizeof(Tuple);
}

void GkQuantileSketch::SerializeTo(std::ostream& out) const {
  io::WriteF64(out, epsilon_);
  io::WriteU64(out, n_);
  io::WriteU64(out, compress_period_);
  io::WriteU64(out, since_compress_);
  io::WriteU64(out, tuples_.size());
  for (const Tuple& t : tuples_) {
    io::WriteF64(out, t.v);
    io::WriteU64(out, t.g);
    io::WriteU64(out, t.delta);
  }
}

void GkQuantileSketch::DeserializeFrom(std::istream& in) {
  epsilon_ = io::ReadF64(in);
  if (!(epsilon_ > 0.0 && epsilon_ < 0.5)) epsilon_ = 0.005;
  n_ = io::ReadU64(in);
  compress_period_ = std::max<std::uint64_t>(1, io::ReadU64(in));
  since_compress_ = io::ReadU64(in);
  // No reservation from the stored count: a corrupt one would allocate
  // before the short read could throw.
  const std::uint64_t count = io::ReadU64(in);
  tuples_.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    Tuple t;
    t.v = io::ReadF64(in);
    t.g = io::ReadU64(in);
    t.delta = io::ReadU64(in);
    tuples_.push_back(t);
  }
}

KmvDistinctCounter::KmvDistinctCounter(std::size_t k)
    : k_(std::max<std::size_t>(k, 16)) {}

void KmvDistinctCounter::Add(std::uint64_t key) {
  const std::uint64_t h = MixHash64(key);
  if (smallest_.size() < k_) {
    smallest_.insert(h);
    return;
  }
  const auto last = std::prev(smallest_.end());
  if (h >= *last) return;  // not among the k smallest
  if (smallest_.insert(h).second) smallest_.erase(std::prev(smallest_.end()));
}

void KmvDistinctCounter::Merge(const KmvDistinctCounter& other) {
  k_ = std::min(k_, other.k_);
  smallest_.insert(other.smallest_.begin(), other.smallest_.end());
  while (smallest_.size() > k_) smallest_.erase(std::prev(smallest_.end()));
}

double KmvDistinctCounter::Estimate() const {
  if (smallest_.size() < k_) return static_cast<double>(smallest_.size());
  // The k-th smallest of n uniform hashes sits near k/n of the hash range.
  const double kth = static_cast<double>(*std::prev(smallest_.end()));
  const double range = std::ldexp(1.0, 64);  // 2^64
  return (static_cast<double>(k_) - 1.0) / (kth / range);
}

std::size_t KmvDistinctCounter::ApproxMemoryBytes() const {
  // std::set node overhead: three pointers + color, rounded up.
  return sizeof(*this) + smallest_.size() * (sizeof(std::uint64_t) + 40);
}

void KmvDistinctCounter::SerializeTo(std::ostream& out) const {
  io::WriteU64(out, k_);
  io::WriteU64(out, smallest_.size());
  for (const std::uint64_t h : smallest_) io::WriteU64(out, h);
}

void KmvDistinctCounter::DeserializeFrom(std::istream& in) {
  k_ = std::max<std::size_t>(io::ReadU64(in), 16);
  const std::uint64_t n = io::ReadU64(in);
  smallest_.clear();
  for (std::uint64_t i = 0; i < n; ++i) smallest_.insert(io::ReadU64(in));
}

}  // namespace ddos::stream
