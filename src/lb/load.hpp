#pragma once

#include <cstdint>
#include <vector>

#include "harness/fleet.hpp"

namespace dat::lb {

/// Measured load of one aggregation tree on one node, extracted from the
/// node's dat_tree_* per-key gauges.
struct KeyLoad {
  Id key = 0;
  /// Fresh soft-state child count (dat_tree_children) — the branching the
  /// SLO bounds.
  std::size_t children = 0;
  /// Cumulative child updates received (dat_tree_updates_in).
  std::uint64_t updates_in = 0;
  /// Effective push period of this key on this node (dat_tree_period_us).
  std::uint64_t period_us = 0;
  /// Updates received since the previous measurement round. Zero straight
  /// out of collect_load(); the Rebalancer fills it from counter deltas.
  double update_rate = 0.0;
};

/// One node's row in the load database (the Charm++ CentralLB analogue of a
/// per-PE load record).
struct NodeLoad {
  std::size_t slot = 0;
  Id id = 0;
  std::vector<KeyLoad> keys;  ///< same order as the tracked key list
  std::size_t max_children = 0;
  double total_rate = 0.0;
  /// Node currently roots at least one tracked tree; the policy never
  /// migrates such a node (the root region should stay stable).
  bool root_of_tracked = false;
};

/// Whole-cluster measurement: the input of the pure decision step.
struct ClusterLoad {
  std::vector<NodeLoad> nodes;  ///< live slots, ascending slot order
  std::vector<Id> ids;          ///< live identifiers, sorted
  double gap_ratio = 1.0;       ///< max/min adjacent-gap ratio of `ids`
  std::size_t max_children = 0; ///< max over nodes x tracked keys
};

/// One measurement round: reads every live node's metrics-registry snapshot
/// and extracts the per-key dat_tree_* gauges for the tracked `keys`. Pure
/// observation — no cluster state is touched beyond taking snapshots.
[[nodiscard]] ClusterLoad collect_load(harness::Fleet& fleet,
                                       const std::vector<Id>& keys);

}  // namespace dat::lb
