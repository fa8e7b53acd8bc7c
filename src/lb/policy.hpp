#pragma once

#include <cstdint>
#include <vector>

#include "common/id_space.hpp"
#include "lb/load.hpp"

namespace dat::lb {

struct PolicyOptions {
  /// Branching SLO sheds enforce: a (node, key) with more fresh children
  /// than this gets the excess handed off to a relay child. The paper's
  /// balanced+probed trees sit at 4-5 (Fig. 7a), so 4 is the tight target.
  std::size_t max_branching = 4;
  /// Child handoffs per round.
  std::size_t max_sheds = 4;
  /// Freshness of issued parent overrides. Handoffs are soft state: the
  /// rebalancer re-issues them every round it still measures the overflow,
  /// so the TTL only needs to outlive the measurement cadence.
  std::uint64_t handoff_ttl_us = 60'000'000;
};

/// Leave + rejoin of `slot` at identifier `to_id`.
struct Migration {
  std::size_t slot = 0;
  Id to_id = 0;
};

/// shed_children(key, keep) on `slot`.
struct Shed {
  std::size_t slot = 0;
  Id key = 0;
  std::size_t keep = 0;
};

struct RebalancePlan {
  std::vector<Migration> migrations;
  std::vector<Shed> sheds;
  double gap_ratio = 1.0;        ///< measured, before any action
  std::size_t max_children = 0;  ///< measured, before any action

  [[nodiscard]] bool empty() const noexcept {
    return migrations.empty() && sheds.empty();
  }
};

/// The pure decision step: a deterministic function of (load, options) with
/// no side effects — the Charm++ CentralLB "strategy" seam, unit-testable
/// on synthetic load databases.
///
/// Migrations split the largest adjacent gap at its midpoint (the probed
/// join's rule, applied from a global measurement) using the donor whose
/// departure merges the smallest span; tracked-tree roots never move, and a
/// donor is only accepted when its merged span stays within half the gap
/// being split, so each migration strictly reduces the maximum gap. Sheds
/// target the most over-branched (node, key) pairs, hottest first.
[[nodiscard]] RebalancePlan plan_rebalance(const ClusterLoad& load,
                                           const IdSpace& space,
                                           const PolicyOptions& options);

}  // namespace dat::lb
