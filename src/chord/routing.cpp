#include "chord/routing.hpp"

#include <bit>
#include <stdexcept>

namespace dat::chord {

namespace {
unsigned bit_length(unsigned __int128 v) {
  const auto hi = static_cast<std::uint64_t>(v >> 64);
  if (hi != 0) return 128 - static_cast<unsigned>(std::countl_zero(hi));
  return 64 - static_cast<unsigned>(
                  std::countl_zero(static_cast<std::uint64_t>(v)));
}

/// Smallest k with den * 2^k >= num, for num, den > 0: exact in 128 bits
/// and without a loop (den shifted by the bit-length difference has num's
/// bit length, so k is that difference or one more).
unsigned ceil_log2_ratio(unsigned __int128 num, unsigned __int128 den) {
  if (den >= num) return 0;
  const unsigned k = bit_length(num) - bit_length(den);
  return (den << k) >= num ? k : k + 1;
}
}  // namespace

const char* to_string(RoutingScheme s) noexcept {
  switch (s) {
    case RoutingScheme::kGreedy: return "greedy";
    case RoutingScheme::kBalanced: return "balanced";
  }
  return "?";
}

unsigned ceil_log2_rational(std::uint64_t num, std::uint64_t den) {
  if (num == 0 || den == 0) {
    throw std::invalid_argument("ceil_log2_rational: zero argument");
  }
  return ceil_log2_ratio(num, den);
}

unsigned finger_limit(std::uint64_t x, std::uint64_t d0_num,
                      std::uint64_t d0_den) {
  if (d0_num == 0 || d0_den == 0) {
    throw std::invalid_argument("finger_limit: d0 must be positive");
  }
  // g(x) = ceil(log2((x + 2*d0) / 3)), d0 = d0_num / d0_den
  //      = ceil(log2((x*d0_den + 2*d0_num) / (3*d0_den))).
  // 128-bit intermediates: x can be as large as 2^b and d0_den as large as n.
  const unsigned __int128 num = static_cast<unsigned __int128>(x) * d0_den +
                                static_cast<unsigned __int128>(2) * d0_num;
  const unsigned __int128 den = static_cast<unsigned __int128>(3) * d0_den;
  return ceil_log2_ratio(num, den);
}

std::optional<Id> next_hop(const IdSpace& space, Id self, Id key,
                           std::span<const Id> fingers, bool self_is_root,
                           unsigned limit) {
  if (self_is_root) return std::nullopt;

  // Best admissible finger in (self, key]: maximize progress toward key.
  std::optional<Id> best;
  Id best_progress = 0;
  const Id to_key = space.clockwise(self, key);
  const unsigned max_j =
      std::min<unsigned>(limit, fingers.empty() ? 0 : unsigned(fingers.size() - 1));
  for (unsigned j = 0; j <= max_j && j < fingers.size(); ++j) {
    const Id f = fingers[j];
    if (f == self) continue;  // degenerate entry on tiny rings
    const Id progress = space.clockwise(self, f);
    if (progress <= to_key && progress > best_progress) {
      best_progress = progress;
      best = f;
    }
  }
  if (best) return best;

  // No admissible finger precedes (or lands on) the key: the key lies
  // strictly between self and its immediate successor, so the successor is
  // successor(key) — the root — and the final hop.
  if (!fingers.empty() && fingers[0] != self) return fingers[0];
  return std::nullopt;  // singleton ring: self is everything
}

std::optional<Id> next_hop_greedy(const IdSpace& space, Id self, Id key,
                                  std::span<const Id> fingers,
                                  bool self_is_root) {
  return next_hop(space, self, key, fingers, self_is_root, space.bits());
}

std::optional<Id> next_hop_balanced(const IdSpace& space, Id self, Id key,
                                    std::span<const Id> fingers,
                                    bool self_is_root, std::uint64_t d0_num,
                                    std::uint64_t d0_den) {
  const Id x = space.clockwise(self, key);
  const unsigned limit = finger_limit(x, d0_num, d0_den);
  return next_hop(space, self, key, fingers, self_is_root, limit);
}

}  // namespace dat::chord
