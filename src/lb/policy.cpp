#include "lb/policy.hpp"

#include <algorithm>
#include <map>

namespace dat::lb {

namespace {

/// Identifier migrations run while the measured max/min adjacent-gap ratio
/// exceeds this (probing keeps joined rings well under it).
constexpr double kGapRatioThreshold = 4.0;
/// Migrations per round. Each one is a leave + rejoin — disruptive, so a
/// round moves one node at a time.
constexpr std::size_t kMaxMigrations = 1;
/// Gaps narrower than this are never split (microscopic id spaces).
constexpr Id kMinGapToSplit = 64;

struct GapView {
  Id max_gap = 0;
  Id min_gap = 0;
  std::size_t max_index = 0;  ///< largest gap starts at ids[max_index]
};

GapView scan_gaps(const IdSpace& space, const std::vector<Id>& ids) {
  GapView view;
  view.min_gap = space.size() != 0 ? space.size() - 1 : ~Id{0};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Id gap = space.clockwise(ids[i], ids[(i + 1) % ids.size()]);
    if (gap > view.max_gap) {
      view.max_gap = gap;
      view.max_index = i;
    }
    view.min_gap = std::min(view.min_gap, gap);
  }
  return view;
}

double ratio_of(const GapView& view) {
  if (view.min_gap == 0) return static_cast<double>(view.max_gap);
  return static_cast<double>(view.max_gap) /
         static_cast<double>(view.min_gap);
}

}  // namespace

RebalancePlan plan_rebalance(const ClusterLoad& load, const IdSpace& space,
                             const PolicyOptions& options) {
  RebalancePlan plan;
  plan.gap_ratio = load.gap_ratio;
  plan.max_children = load.max_children;

  std::map<Id, const NodeLoad*> by_id;
  for (const NodeLoad& n : load.nodes) by_id[n.id] = &n;
  std::vector<std::size_t> migrated_slots;

  // Identifier migrations: simulate each pick on a scratch id list so one
  // round could plan several consistent moves if kMaxMigrations allowed.
  std::vector<Id> ids = load.ids;  // sorted
  while (plan.migrations.size() < kMaxMigrations && ids.size() >= 3) {
    const GapView gaps = scan_gaps(space, ids);
    if (ratio_of(gaps) <= kGapRatioThreshold) break;
    if (gaps.max_gap < kMinGapToSplit || gaps.max_gap < 4) break;
    const Id gap_start = ids[gaps.max_index];
    const Id gap_end = ids[(gaps.max_index + 1) % ids.size()];

    const NodeLoad* donor = nullptr;
    Id donor_cost = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const Id id = ids[i];
      // The gap's own endpoints stay put: moving either would re-carve the
      // very gap being repaired.
      if (id == gap_start || id == gap_end) continue;
      const auto it = by_id.find(id);
      // Ids synthesized by an earlier pick this round have no load row.
      if (it == by_id.end()) continue;
      const NodeLoad& n = *it->second;
      if (n.root_of_tracked) continue;
      if (std::find(migrated_slots.begin(), migrated_slots.end(), n.slot) !=
          migrated_slots.end()) {
        continue;
      }
      const Id pred = ids[(i + ids.size() - 1) % ids.size()];
      const Id succ = ids[(i + 1) % ids.size()];
      const Id merged = space.clockwise(pred, succ);
      // Departure merges pred->succ into one gap; only accept donors whose
      // merged span stays within the halves the split creates, so the max
      // gap strictly shrinks.
      if (merged > gaps.max_gap / 2) continue;
      if (donor == nullptr || merged < donor_cost ||
          (merged == donor_cost && n.slot < donor->slot)) {
        donor = &n;
        donor_cost = merged;
      }
    }
    if (donor == nullptr) break;  // nothing movable without regressing

    const Id target = space.add(gap_start, gaps.max_gap / 2);
    plan.migrations.push_back({donor->slot, target});
    migrated_slots.push_back(donor->slot);
    ids.erase(std::find(ids.begin(), ids.end(), donor->id));
    ids.insert(std::upper_bound(ids.begin(), ids.end(), target), target);
  }

  // Child handoffs: hottest over-branched (node, key) pairs first. Nodes
  // picked for migration are skipped — they are about to re-join with an
  // empty table anyway.
  struct Over {
    std::size_t slot;
    Id key;
    std::size_t children;
    double rate;
  };
  std::vector<Over> overs;
  for (const NodeLoad& n : load.nodes) {
    if (std::find(migrated_slots.begin(), migrated_slots.end(), n.slot) !=
        migrated_slots.end()) {
      continue;
    }
    for (const KeyLoad& k : n.keys) {
      if (k.children > options.max_branching) {
        overs.push_back({n.slot, k.key, k.children, k.update_rate});
      }
    }
  }
  std::sort(overs.begin(), overs.end(), [](const Over& a, const Over& b) {
    if (a.children != b.children) return a.children > b.children;
    if (a.rate != b.rate) return a.rate > b.rate;
    if (a.slot != b.slot) return a.slot < b.slot;
    return a.key < b.key;
  });
  for (const Over& o : overs) {
    if (plan.sheds.size() >= options.max_sheds) break;
    plan.sheds.push_back({o.slot, o.key, options.max_branching});
  }
  return plan;
}

}  // namespace dat::lb
