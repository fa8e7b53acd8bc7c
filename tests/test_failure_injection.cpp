// Failure injection across the stack: datagram loss, partitions, crash
// bursts, and adversarial wire input.

#include <gtest/gtest.h>

#include <memory>

#include "harness/sim_cluster.hpp"
#include "net/transport.hpp"

namespace {

using namespace dat;

TEST(FailureInjection, ContinuousAggregationUnderHeavyLoss) {
  constexpr std::size_t kNodes = 16;
  harness::ClusterOptions options;
  options.seed = 1234;
  options.dat.epoch_us = 300'000;
  options.dat.child_ttl_epochs = 5;  // widen TTL to ride out drops
  harness::SimCluster cluster(kNodes, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(300'000'000));

  Id key = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    key = cluster.dat(i).start_aggregate("lossy", core::AggregateKind::kCount,
                                         chord::RoutingScheme::kBalanced,
                                         []() { return 1.0; });
  }
  cluster.run_for(5'000'000);
  cluster.network().set_loss_rate(0.20);
  cluster.run_for(30'000'000);

  // With 20% loss, updates still refresh children faster than the TTL
  // expires them: coverage holds at or near the full population.
  const Id root_id = cluster.ring_view().successor(key);
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (cluster.node(i).id() == root_id) {
      if (const auto g = cluster.dat(i).latest(key)) covered = g->state.count;
    }
  }
  EXPECT_GE(covered, kNodes - 2);
}

TEST(FailureInjection, PartitionedRootHealsAndAnotherTakesOver) {
  constexpr std::size_t kNodes = 12;
  harness::ClusterOptions options;
  options.seed = 4321;
  options.dat.epoch_us = 300'000;
  harness::SimCluster cluster(kNodes, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(300'000'000));

  Id key = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    key = cluster.dat(i).start_aggregate("part", core::AggregateKind::kCount,
                                         chord::RoutingScheme::kBalanced,
                                         []() { return 1.0; });
  }
  cluster.run_for(4'000'000);

  // Partition the current root away.
  const Id old_root = cluster.ring_view().successor(key);
  std::size_t root_slot = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (cluster.node(i).id() == old_root) root_slot = i;
  }
  cluster.network().set_partitioned(
      cluster.node(root_slot).rpc().local(), true);
  cluster.run_for(30'000'000);

  // The successor of the key among the REMAINING reachable nodes now owns
  // it and accumulates the survivors.
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (i == root_slot) continue;
    if (const auto g = cluster.dat(i).latest(key)) {
      best = std::max(best, static_cast<std::uint64_t>(g->state.count));
    }
  }
  EXPECT_GE(best, kNodes - 3);  // everyone except the partitioned root ±

  // Heal: the old root rejoins the aggregation transparently.
  cluster.network().set_partitioned(
      cluster.node(root_slot).rpc().local(), false);
  cluster.run_for(40'000'000);
  ASSERT_TRUE(cluster.wait_converged(120'000'000));
  cluster.run_for(10'000'000);
  const Id new_root = cluster.ring_view().successor(key);
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (cluster.node(i).id() == new_root) {
      if (const auto g = cluster.dat(i).latest(key)) covered = g->state.count;
    }
  }
  EXPECT_EQ(covered, kNodes);
}

TEST(FailureInjection, HalfTheRingCrashes) {
  constexpr std::size_t kNodes = 16;
  harness::ClusterOptions options;
  options.seed = 5678;
  harness::SimCluster cluster(kNodes, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(300'000'000));

  for (std::size_t i = 1; i < kNodes; i += 2) {
    cluster.remove_node(i, /*graceful=*/false);
  }
  cluster.refresh_d0_hints();
  EXPECT_TRUE(cluster.wait_converged(300'000'000));
  EXPECT_EQ(cluster.ring_view().size(), kNodes / 2);

  // Lookups over the surviving half are correct.
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Id probe_key = rng.next_id(cluster.space());
    const Id expected = cluster.ring_view().successor(probe_key);
    bool done = false;
    chord::NodeRef found;
    cluster.node(0).find_successor(probe_key,
                                   [&](net::RpcStatus st, chord::NodeRef n) {
                                     done = true;
                                     ASSERT_EQ(st, net::RpcStatus::kOk);
                                     found = n;
                                   });
    cluster.run_for(5'000'000);
    ASSERT_TRUE(done);
    EXPECT_EQ(found.id, expected);
  }
}

TEST(FailureInjection, MalformedDatagramsAreIgnored) {
  // Random bytes must never crash the node: Message::decode throws
  // CodecError, which the transport layer swallows.
  sim::Engine engine(1);
  net::SimNetwork network(engine);
  auto& attacker = network.add_node();
  auto& victim_transport = network.add_node();
  chord::Node victim(IdSpace(16), victim_transport, chord::NodeOptions{}, 1);
  victim.create(100);

  Rng rng(666);
  for (int i = 0; i < 200; ++i) {
    net::OwnedMessage garbage;
    garbage.kind = static_cast<net::MessageKind>(rng.next_below(3));
    garbage.method =
        net::method_id(i % 2 ? "chord.lookup_step" : "nonsense.method");
    garbage.request_id = rng.next_u64();
    const auto len = rng.next_below(64);
    garbage.body.resize(len);
    for (auto& b : garbage.body) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    attacker.send(victim_transport.local(), garbage);
  }
  EXPECT_NO_THROW(engine.run_until(5'000'000));
  EXPECT_TRUE(victim.alive());
}

TEST(FailureInjection, SnapshotTimesOutGracefullyUnderPartition) {
  constexpr std::size_t kNodes = 12;
  harness::ClusterOptions options;
  options.seed = 8765;
  options.dat.snapshot_timeout_us = 1'000'000;
  harness::SimCluster cluster(kNodes, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(300'000'000));

  Id key = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    key = cluster.dat(i).start_aggregate("snap", core::AggregateKind::kCount,
                                         chord::RoutingScheme::kBalanced,
                                         []() { return 1.0; });
  }
  // Partition a third of the ring, then snapshot: it must complete (via
  // timeout) with partial coverage rather than hang.
  for (std::size_t i = 2; i < kNodes; i += 3) {
    cluster.network().set_partitioned(cluster.node(i).rpc().local(), true);
  }
  bool done = false;
  core::AggState state;
  cluster.dat(0).snapshot(key, [&](const core::AggState& s) {
    done = true;
    state = s;
  });
  cluster.run_for(20'000'000);
  ASSERT_TRUE(done);
  EXPECT_GE(state.count, 1u);
  EXPECT_LT(state.count, kNodes);
}

}  // namespace
