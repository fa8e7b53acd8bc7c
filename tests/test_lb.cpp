// Load-balancing subsystem: measurement helpers, the pure rebalance policy,
// and the DAT-layer handoff mechanics (parent overrides, child shedding).

#include "lb/load.hpp"
#include "lb/policy.hpp"
#include "lb/rebalancer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "chord/id_assignment.hpp"
#include "dat/tree.hpp"
#include "harness/sim_cluster.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace dat;

// -- measurement helpers ------------------------------------------------------

TEST(GapHelpersTest, GapRatioOfDegenerateSetsIsOne) {
  const IdSpace space(8);
  EXPECT_DOUBLE_EQ(chord::gap_ratio(space, {}), 1.0);
  EXPECT_DOUBLE_EQ(chord::gap_ratio(space, {42}), 1.0);
  EXPECT_DOUBLE_EQ(chord::gap_ratio(space, {0, 64, 128, 192}), 1.0);
}

TEST(GapHelpersTest, GapRatioMeasuresImbalance) {
  const IdSpace space(8);  // 256 identifiers
  // Gaps: 8, 8, 112, 128 -> max/min = 16.
  EXPECT_DOUBLE_EQ(chord::gap_ratio(space, {0, 8, 16, 128}), 16.0);
  // Order must not matter.
  EXPECT_DOUBLE_EQ(chord::gap_ratio(space, {128, 16, 0, 8}), 16.0);
}

TEST(GapHelpersTest, LargestGapMidpointSplitsTheWidestGap) {
  const IdSpace space(8);
  // Largest gap is 128 -> 0 (wrapping), size 128; midpoint at 192.
  EXPECT_EQ(chord::largest_gap_midpoint(space, {0, 8, 16, 128}), 192u);
  // A single id owns the whole ring; midpoint is half-way around.
  EXPECT_EQ(chord::largest_gap_midpoint(space, {10}), 137u);
  EXPECT_THROW(static_cast<void>(chord::largest_gap_midpoint(space, {})),
               std::invalid_argument);
}

TEST(MetricsSnapshotTest, ValuesByLabelSplitsPerKeySeries) {
  obs::MetricsRegistry registry;
  registry.gauge("g", {{"key", "a"}}).set(3);
  registry.gauge("g", {{"key", "b"}}).set(4);
  registry.gauge("other", {{"key", "a"}}).set(9);
  registry.gauge("g").set(7);  // no key label: skipped

  const auto values = registry.snapshot().values_by_label("g", "key");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].first, "a");
  EXPECT_DOUBLE_EQ(values[0].second, 3.0);
  EXPECT_EQ(values[1].first, "b");
  EXPECT_DOUBLE_EQ(values[1].second, 4.0);
  EXPECT_TRUE(registry.snapshot().values_by_label("absent", "key").empty());
}

TEST(TreeMetricsTest, MaxBranchingOverTakesTheWorstKey) {
  const IdSpace space(16);
  Rng rng(7);
  const chord::RingView ring(space, chord::random_ids(space, 32, rng));
  std::vector<Id> keys;
  for (int i = 0; i < 4; ++i) keys.push_back(rng.next_id(space));

  std::size_t expected = 0;
  for (const Id key : keys) {
    expected = std::max(
        expected,
        core::Tree(ring, key, chord::RoutingScheme::kBalanced).max_branching());
  }
  EXPECT_EQ(core::max_branching_over(ring, keys,
                                     chord::RoutingScheme::kBalanced),
            expected);
  EXPECT_GT(expected, 0u);
}

// -- pure decision policy -----------------------------------------------------

lb::ClusterLoad make_load(const IdSpace& space,
                          const std::vector<std::pair<std::size_t, Id>>& rows) {
  lb::ClusterLoad load;
  for (const auto& [slot, id] : rows) {
    lb::NodeLoad n;
    n.slot = slot;
    n.id = id;
    load.ids.push_back(id);
    load.nodes.push_back(std::move(n));
  }
  std::sort(load.ids.begin(), load.ids.end());
  load.gap_ratio = chord::gap_ratio(space, load.ids);
  return load;
}

TEST(PolicyTest, SplitsLargestGapWithTheCheapestDonor) {
  const IdSpace space(8);
  const lb::ClusterLoad load =
      make_load(space, {{0, 0}, {1, 8}, {2, 16}, {3, 128}});
  const lb::RebalancePlan plan = lb::plan_rebalance(load, space, {});

  // Gap 128->0 (width 128) splits at 192. Moving id 8 merges a span of 16;
  // moving id 16 would merge 120 > 64 and is rejected. The gap endpoints
  // (128 and 0) must stay put.
  ASSERT_EQ(plan.migrations.size(), 1u);
  EXPECT_EQ(plan.migrations[0].slot, 1u);
  EXPECT_EQ(plan.migrations[0].to_id, 192u);
  EXPECT_TRUE(plan.sheds.empty());
  EXPECT_DOUBLE_EQ(plan.gap_ratio, 16.0);
}

TEST(PolicyTest, TrackedRootsNeverMigrate) {
  const IdSpace space(8);
  lb::ClusterLoad load = make_load(space, {{0, 0}, {1, 8}, {2, 16}, {3, 128}});
  for (lb::NodeLoad& n : load.nodes) {
    if (n.id == 8) n.root_of_tracked = true;
  }
  // The only affordable donor is a root; the policy must plan nothing
  // rather than move it (or regress the gap with id 16).
  const lb::RebalancePlan plan = lb::plan_rebalance(load, space, {});
  EXPECT_TRUE(plan.migrations.empty());
}

TEST(PolicyTest, BalancedClustersPlanNothing) {
  const IdSpace space(8);
  lb::ClusterLoad load =
      make_load(space, {{0, 0}, {1, 64}, {2, 128}, {3, 192}});
  for (lb::NodeLoad& n : load.nodes) {
    n.keys.push_back({/*key=*/1, /*children=*/3, 0, 0, 0.0});
  }
  load.max_children = 3;
  const lb::RebalancePlan plan = lb::plan_rebalance(load, space, {});
  EXPECT_TRUE(plan.empty());
}

TEST(PolicyTest, ShedsTargetTheMostOverBranchedHottestPairsFirst) {
  const IdSpace space(8);
  lb::ClusterLoad load =
      make_load(space, {{0, 0}, {1, 64}, {2, 128}, {3, 192}});
  // slot 0: 9 children on key 1 at a cold rate; slot 2: 9 children on key 2
  // but hot; slot 3: 6 children on key 1; slot 1: within SLO.
  load.nodes[0].keys.push_back({1, 9, 0, 0, 1.0});
  load.nodes[1].keys.push_back({1, 4, 0, 0, 100.0});
  load.nodes[2].keys.push_back({2, 9, 0, 0, 50.0});
  load.nodes[3].keys.push_back({1, 6, 0, 0, 10.0});
  load.max_children = 9;

  lb::PolicyOptions options;
  options.max_sheds = 2;
  const lb::RebalancePlan plan = lb::plan_rebalance(load, space, options);

  EXPECT_TRUE(plan.migrations.empty());  // ids are perfectly even
  ASSERT_EQ(plan.sheds.size(), 2u);  // max_sheds caps the round
  // Ties on children (9 == 9) break towards the hotter pair.
  EXPECT_EQ(plan.sheds[0].slot, 2u);
  EXPECT_EQ(plan.sheds[0].key, 2u);
  EXPECT_EQ(plan.sheds[1].slot, 0u);
  EXPECT_EQ(plan.sheds[1].key, 1u);
  for (const lb::Shed& shed : plan.sheds) {
    EXPECT_EQ(shed.keep, options.max_branching);
  }
}

TEST(PolicyTest, IsDeterministic) {
  const IdSpace space(8);
  lb::ClusterLoad load = make_load(space, {{0, 0}, {1, 8}, {2, 16}, {3, 128}});
  load.nodes[2].keys.push_back({1, 7, 0, 0, 2.0});
  const lb::RebalancePlan a = lb::plan_rebalance(load, space, {});
  const lb::RebalancePlan b = lb::plan_rebalance(load, space, {});
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  ASSERT_EQ(a.sheds.size(), b.sheds.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    EXPECT_EQ(a.migrations[i].slot, b.migrations[i].slot);
    EXPECT_EQ(a.migrations[i].to_id, b.migrations[i].to_id);
  }
  for (std::size_t i = 0; i < a.sheds.size(); ++i) {
    EXPECT_EQ(a.sheds[i].slot, b.sheds[i].slot);
    EXPECT_EQ(a.sheds[i].key, b.sheds[i].key);
  }
}

// -- DAT handoff mechanics ----------------------------------------------------

class HandoffTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 8;
  static constexpr std::uint64_t kEpochUs = 200'000;

  void SetUp() override {
    harness::ClusterOptions options;
    options.seed = 11;
    options.dat.epoch_us = kEpochUs;
    cluster_ = std::make_unique<harness::SimCluster>(kNodes,
                                                     std::move(options));
    key_ = cluster_->start_aggregate_everywhere(
        "sum", core::AggregateKind::kSum, chord::RoutingScheme::kBalanced,
        [](std::size_t slot) -> core::DatNode::LocalValueFn {
          return [slot] { return static_cast<double>(slot + 1); };
        });
    cluster_->run_for(5 * kEpochUs);
  }

  [[nodiscard]] std::size_t root_slot() const {
    const Id root_id = cluster_->ring_view().successor(key_);
    for (std::size_t i = 0; i < cluster_->slot_count(); ++i) {
      if (cluster_->is_live(i) && cluster_->node(i).id() == root_id) return i;
    }
    throw std::logic_error("no root slot");
  }

  [[nodiscard]] double expected_sum() const {
    double total = 0.0;
    for (std::size_t i = 0; i < cluster_->slot_count(); ++i) {
      if (cluster_->is_live(i)) total += static_cast<double>(i + 1);
    }
    return total;
  }

  /// Pull-based exact aggregation from the root; retries across epochs
  /// until the sum settles at the expected total (or attempts run out).
  void expect_sum_conserved() {
    double got = -1.0;
    for (int attempt = 0; attempt < 6; ++attempt) {
      bool done = false;
      cluster_->dat(root_slot()).collect_tree(
          key_, [&](const core::AggState& state) {
            done = true;
            got = state.sum;
          });
      cluster_->run_for(5 * kEpochUs);
      if (done && got == expected_sum()) break;
    }
    EXPECT_DOUBLE_EQ(got, expected_sum());
  }

  std::unique_ptr<harness::SimCluster> cluster_;
  Id key_ = 0;
};

TEST_F(HandoffTest, ParentOverrideRedirectsPushesAndConservesTheSum) {
  const std::size_t root = root_slot();
  std::vector<std::size_t> others;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (i != root) others.push_back(i);
  }
  ASSERT_GE(others.size(), 2u);
  const std::size_t mover = others[0];
  const std::size_t relay = others[1];

  cluster_->dat(mover).set_parent_override(
      key_, cluster_->node(relay).self(), 60'000'000);
  EXPECT_TRUE(cluster_->dat(mover).has_parent_override(key_));
  cluster_->run_for(4 * kEpochUs);

  // The mover now pushes to the relay, so the relay holds it as a child —
  // and the tree still aggregates every contributor exactly once.
  EXPECT_GE(cluster_->dat(relay).child_count(key_), 1u);
  expect_sum_conserved();
}

TEST_F(HandoffTest, SelfAndUnknownOverridesAreIgnored) {
  const std::size_t slot = (root_slot() + 1) % kNodes;
  // Relay == self would form a trivial cycle; refused outright.
  cluster_->dat(slot).set_parent_override(key_, cluster_->node(slot).self(),
                                          60'000'000);
  EXPECT_FALSE(cluster_->dat(slot).has_parent_override(key_));
  // Unknown key: no entry, nothing installed.
  cluster_->dat(slot).set_parent_override(
      key_ ^ 0x5a5a5a5a, cluster_->node(root_slot()).self(), 60'000'000);
  EXPECT_FALSE(cluster_->dat(slot).has_parent_override(key_ ^ 0x5a5a5a5a));
}

TEST_F(HandoffTest, OverridesExpireAfterTheirTtl) {
  const std::size_t root = root_slot();
  const std::size_t mover = (root + 1) % kNodes;
  std::size_t relay = (root + 2) % kNodes;
  if (relay == mover) relay = (relay + 1) % kNodes;

  cluster_->dat(mover).set_parent_override(
      key_, cluster_->node(relay).self(), kEpochUs / 2);
  EXPECT_TRUE(cluster_->dat(mover).has_parent_override(key_));
  cluster_->run_for(3 * kEpochUs);
  EXPECT_FALSE(cluster_->dat(mover).has_parent_override(key_));
}

TEST_F(HandoffTest, ChildUpdateBreaksAnOverrideCycle) {
  // Point the root's override at one of its own children: the child's next
  // push arrives FROM the override target, proving the "relay" is already
  // downstream — pushing to it would orbit the update. handle_update must
  // drop the override.
  const std::size_t root = root_slot();
  ASSERT_GE(cluster_->dat(root).child_count(key_), 1u);

  // Find a child of the root: any node whose pushes land at the root. Use
  // the relay the shed path would pick — shed_children(keep=child_count)
  // moves nobody but proves the children exist; instead simply try every
  // other node until the override sticks and then gets broken.
  bool broke = false;
  for (std::size_t candidate = 0; candidate < kNodes && !broke; ++candidate) {
    if (candidate == root) continue;
    cluster_->dat(root).set_parent_override(
        key_, cluster_->node(candidate).self(), 60'000'000);
    ASSERT_TRUE(cluster_->dat(root).has_parent_override(key_));
    cluster_->run_for(3 * kEpochUs);
    // Children of the root push every epoch; if the candidate was one of
    // them, the override is gone now.
    broke = !cluster_->dat(root).has_parent_override(key_);
  }
  EXPECT_TRUE(broke);
}

TEST_F(HandoffTest, ShedChildrenHandsOffExcessAndConservesTheSum) {
  // Find the bushiest node for the key.
  std::size_t bushy = kNodes;
  std::size_t most = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::size_t c = cluster_->dat(i).child_count(key_);
    if (c > most) {
      most = c;
      bushy = i;
    }
  }
  ASSERT_GE(most, 2u) << "tree too flat to exercise shedding";

  const std::size_t moved =
      cluster_->dat(bushy).shed_children(key_, /*keep=*/1, 60'000'000);
  EXPECT_EQ(moved, most - 1);
  EXPECT_EQ(cluster_->dat(bushy).child_count(key_), 1u);

  // keep >= children or keep == 0 must be no-ops.
  EXPECT_EQ(cluster_->dat(bushy).shed_children(key_, 10, 60'000'000), 0u);
  EXPECT_EQ(cluster_->dat(bushy).shed_children(key_, 0, 60'000'000), 0u);

  cluster_->run_for(4 * kEpochUs);
  expect_sum_conserved();
}

// -- rebalancer driver --------------------------------------------------------

TEST(RebalancerTest, RoundsConvergeOnARandomIdCluster) {
  harness::ClusterOptions options;
  options.seed = 7;
  options.dat.epoch_us = 200'000;
  options.node.probing_join = false;  // deploy unbalanced
  harness::SimCluster cluster(16, std::move(options));
  const Id key = cluster.start_aggregate_everywhere(
      "sum", core::AggregateKind::kSum, chord::RoutingScheme::kBalanced,
      [](std::size_t slot) -> core::DatNode::LocalValueFn {
        return [slot] { return static_cast<double>(slot + 1); };
      });
  cluster.run_for(1'000'000);

  lb::RebalancerOptions lb_options;
  lb_options.epoch_us = 200'000;
  lb::Rebalancer rebalancer(cluster, {key}, lb_options);

  for (int round = 0; round < 20; ++round) {
    const lb::RoundReport report = rebalancer.run_round();
    cluster.run_for(200'000);
    if (report.balanced) break;
  }
  ASSERT_FALSE(rebalancer.history().empty());
  EXPECT_LE(rebalancer.history().back().max_children, 4u);
  // dat_lb_* metrics surfaced through the internal registry.
  const obs::MetricsSnapshot snap = rebalancer.metrics().snapshot();
  EXPECT_EQ(snap.value_or_zero("dat_lb_rounds_total"),
            static_cast<double>(rebalancer.history().size()));
  EXPECT_GE(snap.value_or_zero("dat_lb_max_branching"), 0.0);
}

}  // namespace
