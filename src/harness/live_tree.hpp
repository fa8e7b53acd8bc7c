#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "chord/routing.hpp"
#include "common/id_space.hpp"

namespace dat::harness {

class Fleet;

/// Metrics of a DAT tree materialized from *live* node state (each node's
/// locally computed dat_parent), as opposed to the RingView ground truth.
struct LiveTreeStats {
  std::size_t nodes = 0;
  std::size_t roots = 0;           ///< nodes with no parent (should be 1)
  std::size_t reaching_root = 0;   ///< nodes whose parent chain ends at a root
  std::size_t max_branching = 0;
  double avg_branching_internal = 0.0;
  unsigned height = 0;
};

/// Computes tree statistics from explicit (node, parent) pairs; parent is
/// nullopt for roots. Chains that do not terminate count as not reaching.
[[nodiscard]] LiveTreeStats live_tree_stats(
    const std::vector<std::pair<Id, std::optional<Id>>>& edges);

/// Convenience: evaluates dat_parent on every live node of a cluster.
[[nodiscard]] LiveTreeStats live_tree_stats(Fleet& cluster, Id key,
                                            chord::RoutingScheme scheme);

}  // namespace dat::harness
