// Node restart/rejoin: a crashed slot comes back as a brand-new instance,
// rejoins through identifier probing, and is re-absorbed by the DAT trees —
// in the simulator and over real loopback sockets.

#include <gtest/gtest.h>

#include <memory>

#include "dat/replicated.hpp"
#include "harness/sim_cluster.hpp"
#include "harness/udp_cluster.hpp"

namespace {

using namespace dat;
using namespace dat::core;

class RestartRejoinTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 12;

  RestartRejoinTest() {
    harness::ClusterOptions options;
    options.seed = 91;
    options.dat.epoch_us = 200'000;
    cluster_ =
        std::make_unique<harness::SimCluster>(kNodes, std::move(options));
    key_ = cluster_->start_aggregate_everywhere(
        "cpu-usage", AggregateKind::kCount, chord::RoutingScheme::kBalanced,
        [](std::size_t) -> DatNode::LocalValueFn {
          return [] { return 1.0; };
        });
    converged_ = cluster_->wait_converged(300'000'000);
  }

  /// Widest fresh coverage observed by querying the tree root from `probe`.
  /// The callback owns its state (shared_ptr): if we give up waiting, a late
  /// response must not write to this frame.
  std::size_t coverage(std::size_t probe) {
    struct State {
      std::size_t count = 0;
      bool done = false;
    };
    auto state = std::make_shared<State>();
    cluster_->dat(probe).query_global(
        key_, [state](net::RpcStatus st, std::optional<GlobalValue> g) {
          state->done = true;
          if (st == net::RpcStatus::kOk && g.has_value()) {
            state->count = static_cast<std::size_t>(g->state.count);
          }
        });
    const auto deadline = cluster_->engine().now() + 5'000'000;
    while (!state->done && cluster_->engine().now() < deadline) {
      cluster_->run_for(10'000);
    }
    return state->count;
  }

  /// Runs epochs until coverage reaches `target` (bounded); returns the
  /// last observed coverage.
  std::size_t await_coverage(std::size_t target, std::size_t probe) {
    std::size_t seen = 0;
    for (int epoch = 0; epoch < 30; ++epoch) {
      seen = coverage(probe);
      if (seen >= target) break;
      cluster_->run_for(200'000);
    }
    return seen;
  }

  std::unique_ptr<harness::SimCluster> cluster_;
  Id key_ = 0;
  bool converged_ = false;
};

TEST_F(RestartRejoinTest, CrashedNodeRejoinsAndContributesAgain) {
  ASSERT_TRUE(converged_);
  ASSERT_EQ(await_coverage(kNodes, 0), kNodes);

  const std::size_t victim = 5;
  cluster_->remove_node(victim, /*graceful=*/false);
  cluster_->refresh_d0_hints();
  EXPECT_FALSE(cluster_->is_live(victim));
  EXPECT_EQ(cluster_->live_count(), kNodes - 1);
  ASSERT_TRUE(cluster_->wait_converged(300'000'000));
  EXPECT_EQ(await_coverage(kNodes - 1, 0), kNodes - 1);

  ASSERT_TRUE(cluster_->restart_node(victim));
  EXPECT_TRUE(cluster_->is_live(victim));
  EXPECT_EQ(cluster_->live_count(), kNodes);

  // The rejoined instance is in everyone's converged tables again...
  ASSERT_TRUE(cluster_->wait_converged(300'000'000));
  const chord::RingView ring = cluster_->ring_view();
  EXPECT_EQ(ring.size(), kNodes);
  EXPECT_TRUE(ring.contains(cluster_->node(victim).id()));
  // ...and its automatically re-registered aggregate contributes: coverage
  // returns to the full population within a bounded number of epochs.
  EXPECT_EQ(await_coverage(kNodes, 0), kNodes);
  // The restarted node can also route queries itself.
  EXPECT_EQ(await_coverage(kNodes, victim), kNodes);
}

TEST_F(RestartRejoinTest, GracefulLeaverCanRejoinToo) {
  ASSERT_TRUE(converged_);
  const std::size_t victim = 3;
  cluster_->remove_node(victim, /*graceful=*/true);
  cluster_->run_for(2'000'000);
  ASSERT_TRUE(cluster_->restart_node(victim));
  ASSERT_TRUE(cluster_->wait_converged(300'000'000));
  EXPECT_EQ(cluster_->live_count(), kNodes);
  EXPECT_EQ(await_coverage(kNodes, 0), kNodes);
}

TEST_F(RestartRejoinTest, RestartValidatesSlotState) {
  EXPECT_THROW(cluster_->restart_node(0), std::logic_error);  // live
  EXPECT_THROW(cluster_->restart_node(kNodes + 7), std::out_of_range);
}

TEST_F(RestartRejoinTest, ReplicatedAggregateSurvivesSequentialRootCrashes) {
  ASSERT_TRUE(converged_);
  // Application-level replicated aggregate on every slot.
  std::vector<std::unique_ptr<ReplicatedAggregate>> aggs(kNodes);
  const auto start_on = [&](std::size_t slot) {
    aggs[slot] = std::make_unique<ReplicatedAggregate>(
        cluster_->dat(slot), "replicated-load", 3, AggregateKind::kSum,
        chord::RoutingScheme::kBalanced);
    aggs[slot]->start([] { return 1.0; });
  };
  for (std::size_t i = 0; i < kNodes; ++i) start_on(i);
  cluster_->run_for(3'000'000);

  const auto query_best = [&](std::size_t reader) {
    struct State {
      ReplicatedAggregate::Result result;
      bool done = false;
    };
    auto state = std::make_shared<State>();
    aggs[reader]->query([state](ReplicatedAggregate::Result r) {
      state->done = true;
      state->result = std::move(r);
    });
    const auto deadline = cluster_->engine().now() + 20'000'000;
    while (!state->done && cluster_->engine().now() < deadline) {
      cluster_->run_for(10'000);
    }
    EXPECT_TRUE(state->done);
    return state->result;
  };

  // Crash the root of replica tree i, verify reads keep answering, then
  // restart the slot and bring its replicas back — sequentially.
  for (unsigned tree = 0; tree < 2; ++tree) {
    const chord::RingView ring = cluster_->ring_view();
    const Id root_id = ring.successor(aggs[0]->keys()[tree]);
    std::size_t victim = kNodes;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (cluster_->is_live(i) && cluster_->node(i).id() == root_id) {
        victim = i;
      }
    }
    ASSERT_LT(victim, kNodes);
    const std::size_t reader = victim == 0 ? 1 : 0;

    // The aggregate references the slot's DatNode: drop it first.
    aggs[victim].reset();
    cluster_->remove_node(victim, /*graceful=*/false);
    cluster_->refresh_d0_hints();

    ReplicatedAggregate::Result during = query_best(reader);
    EXPECT_GE(during.roots_answered, 1u);
    ASSERT_TRUE(during.best.has_value());
    EXPECT_GE(during.best->state.count, kNodes - 1);

    ASSERT_TRUE(cluster_->restart_node(victim));
    start_on(victim);
    ASSERT_TRUE(cluster_->wait_converged(300'000'000));
    cluster_->run_for(3'000'000);

    ReplicatedAggregate::Result after = query_best(reader);
    ASSERT_TRUE(after.best.has_value());
    EXPECT_EQ(after.best->state.count, kNodes);
  }
}

TEST(UdpRestartRejoinTest, CrashedNodeRejoinsOverRealSockets) {
  using harness::UdpCluster;
  using harness::UdpClusterOptions;

  UdpClusterOptions options;
  options.seed = 45;
  options.node.stabilize_interval_us = 30'000;
  options.node.fix_fingers_interval_us = 10'000;
  options.node.rpc.timeout_us = 150'000;
  options.dat.epoch_us = 150'000;
  UdpCluster cluster(5, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(60'000'000));

  const Id key = cluster.start_aggregate_everywhere(
      "load", core::AggregateKind::kCount, chord::RoutingScheme::kBalanced,
      [](std::size_t) -> core::DatNode::LocalValueFn {
        return [] { return 1.0; };
      });

  const auto coverage_reaches = [&](std::size_t target, std::size_t probe) {
    struct State {
      std::size_t seen = 0;
      bool done = false;
    };
    auto state = std::make_shared<State>();
    return cluster.run_until(
        [&, state] {
          state->done = false;
          cluster.dat(probe).query_global(
              key,
              [state](net::RpcStatus st, std::optional<core::GlobalValue> g) {
                state->done = true;
                if (st == net::RpcStatus::kOk && g) {
                  state->seen = static_cast<std::size_t>(g->state.count);
                }
              });
          cluster.run_until([&] { return state->done; }, 2'000'000);
          return state->seen >= target;
        },
        20'000'000);
  };
  ASSERT_TRUE(coverage_reaches(5, 0));

  cluster.remove_node(2, /*graceful=*/false);
  EXPECT_FALSE(cluster.is_live(2));
  EXPECT_THROW((void)cluster.node(2), std::out_of_range);
  EXPECT_THROW((void)cluster.dat(2), std::out_of_range);
  ASSERT_TRUE(cluster.wait_converged(60'000'000));
  EXPECT_EQ(cluster.ring_view().size(), 4u);
  ASSERT_TRUE(coverage_reaches(4, 0));

  ASSERT_TRUE(cluster.restart_node(2));
  EXPECT_TRUE(cluster.is_live(2));
  ASSERT_TRUE(cluster.wait_converged(60'000'000));
  EXPECT_EQ(cluster.ring_view().size(), 5u);
  // The rejoined node contributes again — probed from the rejoined node.
  ASSERT_TRUE(coverage_reaches(5, 2));

  EXPECT_THROW(cluster.remove_node(99, /*graceful=*/false), std::logic_error);
  EXPECT_THROW(cluster.restart_node(0), std::logic_error);
}

}  // namespace
