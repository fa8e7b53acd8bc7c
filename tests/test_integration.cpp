// Full-stack integration: the whole P-GMA deployment (Chord + DAT + MAAN +
// producers) under trace-driven load and churn, on the simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/stats.hpp"
#include "gma/producer.hpp"
#include "harness/live_tree.hpp"
#include "harness/sim_cluster.hpp"
#include "trace/cpu_trace.hpp"

namespace {

using namespace dat;

TEST(Integration, TraceDrivenMonitoringTracksGroundTruth) {
  constexpr std::size_t kNodes = 32;
  constexpr std::uint64_t kEpochUs = 500'000;

  harness::ClusterOptions options;
  options.seed = 909;
  options.dat.epoch_us = kEpochUs;
  harness::SimCluster cluster(kNodes, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(300'000'000));

  const trace::CpuTrace cpu =
      trace::CpuTrace::synthesize(trace::TraceConfig{}, 11);
  const std::uint64_t t0 = cluster.engine().now();
  sim::Engine& engine = cluster.engine();

  Id key = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    key = cluster.dat(i).start_aggregate(
        "cpu-usage", core::AggregateKind::kSum,
        chord::RoutingScheme::kBalanced,
        [&engine, &cpu, t0]() { return cpu.at((engine.now() - t0) / 1e6); });
  }
  cluster.run_for(12 * kEpochUs);  // fill the pipeline

  std::vector<double> actual;
  std::vector<double> aggregated;
  for (int step = 0; step < 60; ++step) {
    cluster.run_for(kEpochUs);
    std::optional<core::GlobalValue> g;
    for (std::size_t i = 0; i < kNodes && !g; ++i) {
      g = cluster.dat(i).latest(key);
    }
    ASSERT_TRUE(g.has_value());
    ASSERT_EQ(g->state.count, kNodes);
    actual.push_back(cpu.at((engine.now() - t0) / 1e6) * kNodes);
    aggregated.push_back(g->state.sum);
  }
  // The aggregate lags the signal by roughly the tree height in epochs:
  // raw correlation is decent, lag-compensated correlation is excellent.
  EXPECT_GT(pearson(actual, aggregated), 0.6);
  double best = -1.0;
  for (std::size_t lag = 0; lag <= 12; ++lag) {
    std::vector<double> a(actual.begin(), actual.end() - lag);
    std::vector<double> g(aggregated.begin() + lag, aggregated.end());
    best = std::max(best, pearson(a, g));
  }
  EXPECT_GT(best, 0.95);
  EXPECT_LT(mean_relative_error(aggregated, actual), 0.1);
}

TEST(Integration, AggregationSurvivesChurn) {
  constexpr std::size_t kNodes = 24;
  harness::ClusterOptions options;
  options.seed = 910;
  options.dat.epoch_us = 300'000;
  harness::SimCluster cluster(kNodes, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(300'000'000));

  Id key = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    key = cluster.dat(i).start_aggregate("live", core::AggregateKind::kCount,
                                         chord::RoutingScheme::kBalanced,
                                         []() { return 1.0; });
  }
  cluster.run_for(6'000'000);

  // Churn: 4 crashes, 2 graceful leaves, 3 joins.
  for (const std::size_t victim : {3ul, 8ul, 15ul, 21ul}) {
    cluster.remove_node(victim, false);
    cluster.run_for(1'000'000);
  }
  for (const std::size_t victim : {5ul, 11ul}) {
    cluster.remove_node(victim, true);
    cluster.run_for(1'000'000);
  }
  for (int j = 0; j < 3; ++j) {
    const auto slot = cluster.add_node();
    ASSERT_TRUE(slot.has_value());
    cluster.dat(*slot).start_aggregate(key, core::AggregateKind::kCount,
                                       chord::RoutingScheme::kBalanced,
                                       []() { return 1.0; });
  }
  cluster.refresh_d0_hints();
  ASSERT_TRUE(cluster.wait_converged(300'000'000));
  cluster.run_for(30'000'000);

  const std::size_t live = cluster.live_count();
  EXPECT_EQ(live, kNodes - 6 + 3);
  std::optional<core::GlobalValue> g;
  for (std::size_t i = 0; i < cluster.slot_count() && !g; ++i) {
    if (cluster.is_live(i)) g = cluster.dat(i).latest(key);
  }
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->state.count, live);
}

TEST(Integration, BalancedTreeStaysBalancedAfterChurn) {
  constexpr std::size_t kNodes = 32;
  harness::ClusterOptions options;
  options.seed = 911;
  harness::SimCluster cluster(kNodes, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(300'000'000));

  const Id key = core::rendezvous_key("cpu-usage", cluster.space());
  const auto before =
      harness::live_tree_stats(cluster, key, chord::RoutingScheme::kBalanced);
  EXPECT_EQ(before.roots, 1u);
  EXPECT_EQ(before.reaching_root, kNodes);

  for (const std::size_t victim : {2ul, 12ul, 22ul, 30ul}) {
    cluster.remove_node(victim, victim % 2 == 0);
  }
  cluster.refresh_d0_hints();
  ASSERT_TRUE(cluster.wait_converged(300'000'000));

  const auto after =
      harness::live_tree_stats(cluster, key, chord::RoutingScheme::kBalanced);
  EXPECT_EQ(after.nodes, kNodes - 4);
  EXPECT_EQ(after.roots, 1u);
  EXPECT_EQ(after.reaching_root, kNodes - 4);
  EXPECT_LE(after.max_branching, before.max_branching + 2);
}

TEST(Integration, SnapshotAndContinuousAgree) {
  constexpr std::size_t kNodes = 16;
  harness::ClusterOptions options;
  options.seed = 912;
  options.dat.epoch_us = 250'000;
  harness::SimCluster cluster(kNodes, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(300'000'000));

  Id key = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const double v = 3.0 * (i + 1);
    key = cluster.dat(i).start_aggregate("v", core::AggregateKind::kSum,
                                         chord::RoutingScheme::kBalanced,
                                         [v]() { return v; });
  }
  cluster.run_for(8'000'000);

  std::optional<core::GlobalValue> continuous;
  for (std::size_t i = 0; i < kNodes && !continuous; ++i) {
    continuous = cluster.dat(i).latest(key);
  }
  ASSERT_TRUE(continuous.has_value());

  core::AggState snap;
  bool done = false;
  cluster.dat(5).snapshot(key, [&](const core::AggState& s) {
    snap = s;
    done = true;
  });
  cluster.run_for(5'000'000);
  ASSERT_TRUE(done);

  // Static values: both modes must see the identical aggregate, in every
  // field a SUM tree carries (continuous updates send sum and count only).
  EXPECT_EQ(snap.count, continuous->state.count);
  EXPECT_DOUBLE_EQ(snap.sum, continuous->state.sum);
  EXPECT_DOUBLE_EQ(snap.sum, 3.0 * kNodes * (kNodes + 1) / 2);
}

}  // namespace
