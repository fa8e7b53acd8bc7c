#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "obs/metrics.hpp"

namespace dat::core {

/// Built-in aggregate functions f : X+ -> X (paper Sec. 2.3). AVG is
/// computed from the (sum, count) pair so that it composes associatively
/// across the tree.
enum class AggregateKind : std::uint8_t {
  kSum = 0,
  kCount = 1,
  kAvg = 2,
  kMin = 3,
  kMax = 4,
  kVariance = 5,  ///< population variance, from the (sum, sum_sq, count) triple
  kStddev = 6,
  kHistogram = 7,  ///< log2-bucket histogram merged bucket-wise (obs layout)
};

[[nodiscard]] const char* to_string(AggregateKind k) noexcept;
[[nodiscard]] AggregateKind aggregate_kind_from(std::uint8_t raw);

/// Composable partial-aggregate state. One fixed carrier supports every
/// built-in function; on the wire a dat.update sends only the fields its
/// tree's kind needs (shape_of below).
/// merge() is associative and commutative; identity() is the neutral
/// element — exactly the algebraic requirements for bottom-up aggregation.
struct AggState {
  double sum = 0.0;
  double sum_sq = 0.0;  ///< sum of squares, for variance/stddev
  std::uint64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  /// Optional log2-bucket payload (obs::Histogram layout), carried only by
  /// kHistogram trees. Empty for scalar aggregates, so the scalar wire cost
  /// is one zero length prefix.
  std::vector<std::uint64_t> hist;

  [[nodiscard]] static AggState identity() noexcept { return AggState{}; }

  [[nodiscard]] static AggState of(double value) noexcept {
    return AggState{value, value * value, 1, value, value, {}};
  }

  /// Leaf state for a histogram tree: per-bucket counts plus the observed
  /// sum. count is the total number of observations, and min/max stay at
  /// identity (a bucketed distribution has no exact extrema).
  [[nodiscard]] static AggState of_histogram(std::vector<std::uint64_t> buckets,
                                             double value_sum) {
    AggState s;
    for (const std::uint64_t c : buckets) s.count += c;
    s.sum = value_sum;
    s.hist = std::move(buckets);
    return s;
  }

  void merge(const AggState& other) {
    sum += other.sum;
    sum_sq += other.sum_sq;
    count += other.count;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    if (hist.size() < other.hist.size()) hist.resize(other.hist.size(), 0);
    for (std::size_t i = 0; i < other.hist.size(); ++i) {
      hist[i] += other.hist[i];
    }
  }

  [[nodiscard]] bool empty() const noexcept { return count == 0; }

  /// Estimated q-quantile of the histogram payload (0 when absent/empty).
  [[nodiscard]] double quantile(double q) const noexcept {
    return obs::quantile_from_buckets(hist, q);
  }

  /// Final value under the given aggregate function. Throws on an empty
  /// state for AVG/MIN/MAX (undefined over zero inputs). kHistogram yields
  /// the observation count; quantiles come from quantile().
  [[nodiscard]] double result(AggregateKind kind) const;

  friend bool operator==(const AggState& a, const AggState& b) noexcept {
    return a.sum == b.sum && a.sum_sq == b.sum_sq && a.count == b.count &&
           a.min == b.min && a.max == b.max && a.hist == b.hist;
  }
};

inline void write_agg_state(net::Writer& w, const AggState& s) {
  w.f64(s.sum);
  w.f64(s.sum_sq);
  w.u64(s.count);
  w.f64(s.min);
  w.f64(s.max);
  if (s.hist.size() > obs::Histogram::kBuckets) {
    throw net::CodecError({net::DecodeErrorCode::kLengthOverflow, w.size()},
                          "write_agg_state: hist");
  }
  w.u32(static_cast<std::uint32_t>(s.hist.size()));
  for (const std::uint64_t c : s.hist) w.u64(c);
}

inline AggState read_agg_state(net::Reader& r) {
  AggState s;
  s.sum = r.f64();
  s.sum_sq = r.f64();
  s.count = r.u64();
  s.min = r.f64();
  s.max = r.f64();
  const std::uint32_t buckets = r.u32();
  // Bound the bucket count before reserving: the obs::Histogram layout never
  // exceeds kBuckets, so anything larger is a malformed datagram, not a
  // request to allocate.
  if (buckets > obs::Histogram::kBuckets) {
    throw net::CodecError(
        {net::DecodeErrorCode::kLengthOverflow, r.position()},
        "read_agg_state: hist");
  }
  s.hist.resize(buckets);
  for (std::uint32_t i = 0; i < buckets; ++i) s.hist[i] = r.u64();
  return s;
}

/// The AggState fields a tree of one kind needs at its root; count is
/// always carried. The kind-shaped update codec sends only these, and every
/// other field arrives at identity.
struct StateShape {
  bool sum = false;
  bool sum_sq = false;
  bool min = false;
  bool max = false;
  bool hist = false;
};

[[nodiscard]] constexpr StateShape shape_of(AggregateKind kind) noexcept {
  switch (kind) {
    case AggregateKind::kCount: return {};
    case AggregateKind::kSum:
    case AggregateKind::kAvg: return {.sum = true};
    case AggregateKind::kMin: return {.min = true};
    case AggregateKind::kMax: return {.max = true};
    case AggregateKind::kVariance:
    case AggregateKind::kStddev: return {.sum = true, .sum_sq = true};
    case AggregateKind::kHistogram: return {.sum = true, .hist = true};
  }
  return {};
}

/// Kind-shaped AggState codec, the form dat.update carries: varint count,
/// then the f64 fields shape_of(kind) names in declaration order, then for
/// a histogram its non-zero buckets as a varint pair count and (u8 index,
/// varint count) pairs in increasing index order. A MIN tree's state is 9
/// bytes where the full form above takes 44.
inline void write_agg_state(net::Writer& w, AggregateKind kind,
                            const AggState& s) {
  const StateShape shape = shape_of(kind);
  w.varint(s.count);
  if (shape.sum) w.f64(s.sum);
  if (shape.sum_sq) w.f64(s.sum_sq);
  if (shape.min) w.f64(s.min);
  if (shape.max) w.f64(s.max);
  if (!shape.hist) return;
  if (s.hist.size() > obs::Histogram::kBuckets) {
    throw net::CodecError({net::DecodeErrorCode::kLengthOverflow, w.size()},
                          "write_agg_state: hist");
  }
  std::size_t nonzero = 0;
  for (const std::uint64_t c : s.hist) nonzero += c != 0 ? 1 : 0;
  w.varint(nonzero);
  for (std::size_t i = 0; i < s.hist.size(); ++i) {
    if (s.hist[i] == 0) continue;
    w.u8(static_cast<std::uint8_t>(i));
    w.varint(s.hist[i]);
  }
}

/// Reads the kind-shaped form. Bucket pairs must name increasing indices
/// below obs::Histogram::kBuckets with non-zero counts, so an accepted state
/// re-encodes to the same bytes; the bucket vector ends at the last
/// non-zero bucket.
inline AggState read_agg_state(net::Reader& r, AggregateKind kind) {
  const StateShape shape = shape_of(kind);
  AggState s;
  s.count = r.varint();
  if (shape.sum) s.sum = r.f64();
  if (shape.sum_sq) s.sum_sq = r.f64();
  if (shape.min) s.min = r.f64();
  if (shape.max) s.max = r.f64();
  if (!shape.hist) return s;
  const std::size_t pairs_at = r.position();
  const std::uint64_t pairs = r.varint();
  if (pairs > obs::Histogram::kBuckets) {
    throw net::CodecError({net::DecodeErrorCode::kLengthOverflow, pairs_at},
                          "read_agg_state: hist");
  }
  for (std::uint64_t p = 0; p < pairs; ++p) {
    const std::size_t at = r.position();
    const std::size_t index = r.u8();
    if (index >= obs::Histogram::kBuckets || index < s.hist.size()) {
      throw net::CodecError({net::DecodeErrorCode::kLengthOverflow, at},
                            "read_agg_state: bucket index");
    }
    const std::size_t count_at = r.position();
    const std::uint64_t c = r.varint();
    if (c == 0) {
      throw net::CodecError({net::DecodeErrorCode::kNonCanonical, count_at},
                            "read_agg_state: empty bucket");
    }
    s.hist.resize(index + 1, 0);
    s.hist[index] = c;
  }
  return s;
}

/// Latest global value as held by a tree's root.
struct GlobalValue {
  AggState state;
  std::uint64_t epoch = 0;
  std::uint64_t updated_at_us = 0;
};

/// The root-answer codec: one global value as dat.get_global and
/// dat.get_history carry it.
inline void write_global_value(net::Writer& w, const GlobalValue& g) {
  write_agg_state(w, g.state);
  w.u64(g.epoch);
  w.u64(g.updated_at_us);
}

inline GlobalValue read_global_value(net::Reader& r) {
  GlobalValue g;
  g.state = read_agg_state(r);
  g.epoch = r.u64();
  g.updated_at_us = r.u64();
  return g;
}

}  // namespace dat::core
