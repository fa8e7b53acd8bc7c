#include "lb/load.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "chord/id_assignment.hpp"

namespace dat::lb {

namespace {

/// Splits a node snapshot's per-key gauge series (labelled with the DAT
/// layer's "0x%016llx" key rendering) into an Id-keyed map.
std::map<Id, double> by_key(const obs::MetricsSnapshot& snap,
                            const char* name) {
  std::map<Id, double> out;
  for (const auto& [label, value] : snap.values_by_label(name, "key")) {
    out[std::strtoull(label.c_str(), nullptr, 16)] += value;
  }
  return out;
}

}  // namespace

ClusterLoad collect_load(harness::Fleet& fleet, const std::vector<Id>& keys) {
  ClusterLoad load;
  for (std::size_t slot = 0; slot < fleet.slot_count(); ++slot) {
    if (!fleet.is_live(slot)) continue;
    chord::Node& node = fleet.node(slot);
    const obs::MetricsSnapshot snap = node.telemetry().registry.snapshot();
    const auto children = by_key(snap, "dat_tree_children");
    const auto updates = by_key(snap, "dat_tree_updates_in");
    const auto periods = by_key(snap, "dat_tree_period_us");
    const auto roots = by_key(snap, "dat_tree_is_root");

    NodeLoad row;
    row.slot = slot;
    row.id = node.id();
    row.keys.reserve(keys.size());
    for (const Id raw : keys) {
      KeyLoad k;
      k.key = raw & fleet.space().mask();
      const auto get = [&k](const std::map<Id, double>& m) {
        const auto it = m.find(k.key);
        return it == m.end() ? 0.0 : it->second;
      };
      k.children = static_cast<std::size_t>(get(children));
      k.updates_in = static_cast<std::uint64_t>(get(updates));
      k.period_us = static_cast<std::uint64_t>(get(periods));
      if (get(roots) > 0.0) row.root_of_tracked = true;
      row.max_children = std::max(row.max_children, k.children);
      row.keys.push_back(k);
    }
    load.max_children = std::max(load.max_children, row.max_children);
    load.ids.push_back(row.id);
    load.nodes.push_back(std::move(row));
  }
  std::sort(load.ids.begin(), load.ids.end());
  load.gap_ratio = chord::gap_ratio(fleet.space(), load.ids);
  return load;
}

}  // namespace dat::lb
