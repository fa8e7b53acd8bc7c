#include "harness/live_tree.hpp"

#include <algorithm>
#include <unordered_map>

#include "harness/fleet.hpp"

namespace dat::harness {

LiveTreeStats live_tree_stats(
    const std::vector<std::pair<Id, std::optional<Id>>>& edges) {
  LiveTreeStats stats;
  stats.nodes = edges.size();

  std::unordered_map<Id, Id> parent;
  std::unordered_map<Id, std::size_t> branching;
  for (const auto& [node, p] : edges) {
    if (!p) {
      ++stats.roots;
    } else {
      parent[node] = *p;
      ++branching[*p];
    }
  }
  for (const auto& [node, b] : branching) {
    stats.max_branching = std::max(stats.max_branching, b);
  }
  if (!branching.empty()) {
    stats.avg_branching_internal =
        static_cast<double>(parent.size()) /
        static_cast<double>(branching.size());
  }
  for (const auto& [node, p] : edges) {
    Id cur = node;
    unsigned depth = 0;
    bool terminated = false;
    while (depth <= edges.size()) {
      const auto it = parent.find(cur);
      if (it == parent.end()) {
        terminated = true;
        break;
      }
      cur = it->second;
      ++depth;
    }
    if (terminated) {
      ++stats.reaching_root;
      stats.height = std::max(stats.height, depth);
    }
  }
  return stats;
}

LiveTreeStats live_tree_stats(Fleet& cluster, Id key,
                              chord::RoutingScheme scheme) {
  std::vector<std::pair<Id, std::optional<Id>>> edges;
  for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
    if (!cluster.is_live(i)) continue;
    chord::Node& node = cluster.node(i);
    const auto parent = node.dat_parent(key, scheme);
    edges.emplace_back(node.id(), parent ? std::optional<Id>(parent->id)
                                         : std::nullopt);
  }
  return live_tree_stats(edges);
}

}  // namespace dat::harness
