// Protocol-level DAT tests: continuous aggregation, on-demand snapshots,
// queries, soft-state children under churn — all over the simulator.

#include "dat/dat_node.hpp"
#include "dat/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include <memory>
#include <vector>

#include "harness/sim_cluster.hpp"

namespace {

using namespace dat;
using namespace dat::core;

TEST(AggStateTest, IdentityAndOf) {
  const AggState id = AggState::identity();
  EXPECT_TRUE(id.empty());
  const AggState one = AggState::of(5.0);
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.sum, 5.0);
  EXPECT_EQ(one.min, 5.0);
  EXPECT_EQ(one.max, 5.0);
}

TEST(AggStateTest, MergeIsCommutativeAndAssociative) {
  const AggState a = AggState::of(1.0);
  const AggState b = AggState::of(2.0);
  const AggState c = AggState::of(-4.0);
  AggState ab = a;
  ab.merge(b);
  AggState ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  AggState ab_c = ab;
  ab_c.merge(c);
  AggState bc = b;
  bc.merge(c);
  AggState a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);
}

TEST(AggStateTest, IdentityIsNeutral) {
  AggState a = AggState::of(7.0);
  a.merge(AggState::identity());
  EXPECT_EQ(a, AggState::of(7.0));
}

TEST(AggStateTest, ResultsPerKind) {
  AggState s = AggState::of(2.0);
  s.merge(AggState::of(4.0));
  s.merge(AggState::of(9.0));
  EXPECT_DOUBLE_EQ(s.result(AggregateKind::kSum), 15.0);
  EXPECT_DOUBLE_EQ(s.result(AggregateKind::kCount), 3.0);
  EXPECT_DOUBLE_EQ(s.result(AggregateKind::kAvg), 5.0);
  EXPECT_DOUBLE_EQ(s.result(AggregateKind::kMin), 2.0);
  EXPECT_DOUBLE_EQ(s.result(AggregateKind::kMax), 9.0);
  // Population variance of {2, 4, 9}: mean 5, var (9+1+16)/3.
  EXPECT_NEAR(s.result(AggregateKind::kVariance), 26.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.result(AggregateKind::kStddev), std::sqrt(26.0 / 3.0), 1e-9);
}

TEST(AggStateTest, VarianceIsZeroForIdenticalValues) {
  AggState s = AggState::of(4.0);
  s.merge(AggState::of(4.0));
  s.merge(AggState::of(4.0));
  EXPECT_DOUBLE_EQ(s.result(AggregateKind::kVariance), 0.0);
  const AggState empty = AggState::identity();
  EXPECT_THROW((void)empty.result(AggregateKind::kVariance),
               std::domain_error);
}

TEST(AggStateTest, EmptyResultThrowsForUndefinedKinds) {
  const AggState empty = AggState::identity();
  EXPECT_DOUBLE_EQ(empty.result(AggregateKind::kSum), 0.0);
  EXPECT_DOUBLE_EQ(empty.result(AggregateKind::kCount), 0.0);
  EXPECT_THROW((void)empty.result(AggregateKind::kAvg), std::domain_error);
  EXPECT_THROW((void)empty.result(AggregateKind::kMin), std::domain_error);
  EXPECT_THROW((void)empty.result(AggregateKind::kMax), std::domain_error);
}

TEST(AggStateTest, WireRoundTrip) {
  AggState s = AggState::of(3.25);
  s.merge(AggState::of(-1.5));
  net::Writer w;
  write_agg_state(w, s);
  net::Reader r(w.data());
  EXPECT_EQ(read_agg_state(r), s);
}

TEST(AggregateKindTest, NamesAndParsing) {
  EXPECT_STREQ(to_string(AggregateKind::kSum), "sum");
  EXPECT_STREQ(to_string(AggregateKind::kAvg), "avg");
  EXPECT_EQ(aggregate_kind_from(0), AggregateKind::kSum);
  EXPECT_EQ(aggregate_kind_from(4), AggregateKind::kMax);
  EXPECT_EQ(aggregate_kind_from(6), AggregateKind::kStddev);
  EXPECT_EQ(aggregate_kind_from(7), AggregateKind::kHistogram);
  EXPECT_THROW((void)(aggregate_kind_from(8)), std::invalid_argument);
}

TEST(RendezvousKey, DeterministicAndInSpace) {
  const IdSpace space(24);
  EXPECT_EQ(rendezvous_key("cpu-usage", space),
            rendezvous_key("cpu-usage", space));
  EXPECT_NE(rendezvous_key("cpu-usage", space),
            rendezvous_key("mem-usage", space));
  EXPECT_TRUE(space.contains(rendezvous_key("anything", space)));
}

class DatClusterTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 20;

  DatClusterTest() {
    harness::ClusterOptions options;
    options.seed = 555;
    options.dat.epoch_us = 200'000;
    cluster_ = std::make_unique<harness::SimCluster>(kNodes, std::move(options));
    converged_ = cluster_->wait_converged(300'000'000);
  }

  /// Starts the same aggregate on every live node with value x_i = f(i).
  Id start_all(AggregateKind kind, double (*value)(std::size_t),
               const char* name = "test-attr") {
    Id key = 0;
    for (std::size_t i = 0; i < cluster_->slot_count(); ++i) {
      if (!cluster_->is_live(i)) continue;
      const double v = value(i);
      key = cluster_->dat(i).start_aggregate(
          name, kind, chord::RoutingScheme::kBalanced,
          [v]() { return v; });
    }
    return key;
  }

  std::optional<GlobalValue> root_value(Id key) {
    // Read the global from the *actual* root (successor of the key): other
    // nodes may briefly hold stale globals from epochs when they believed
    // they were the root.
    const Id root_id = cluster_->ring_view().successor(key);
    for (std::size_t i = 0; i < cluster_->slot_count(); ++i) {
      if (!cluster_->is_live(i)) continue;
      if (cluster_->node(i).id() != root_id) continue;
      return cluster_->dat(i).latest(key);
    }
    return std::nullopt;
  }

  std::unique_ptr<harness::SimCluster> cluster_;
  bool converged_ = false;
};

TEST_F(DatClusterTest, ContinuousSumConvergesToExactTotal) {
  ASSERT_TRUE(converged_);
  const Id key = start_all(AggregateKind::kSum,
                           [](std::size_t i) { return double(i) + 1.0; });
  cluster_->run_for(20 * 200'000);  // >> tree height epochs
  const auto g = root_value(key);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->state.count, kNodes);
  // sum of 1..20 = 210
  EXPECT_DOUBLE_EQ(g->state.sum, 210.0);
}

TEST_F(DatClusterTest, ContinuousMinMaxTreesCarryTheirExtrema) {
  // A SUM tree's updates carry sum and count only; the extrema travel in
  // MIN and MAX trees, whose updates carry the value and the count.
  ASSERT_TRUE(converged_);
  const auto value = [](std::size_t i) { return double(i) + 1.0; };
  const Id min_key = start_all(AggregateKind::kMin, value, "test-min");
  const Id max_key = start_all(AggregateKind::kMax, value, "test-max");
  cluster_->run_for(20 * 200'000);
  const auto lo = root_value(min_key);
  const auto hi = root_value(max_key);
  ASSERT_TRUE(lo.has_value());
  ASSERT_TRUE(hi.has_value());
  EXPECT_EQ(lo->state.count, kNodes);
  EXPECT_EQ(hi->state.count, kNodes);
  EXPECT_DOUBLE_EQ(lo->state.result(AggregateKind::kMin), 1.0);
  EXPECT_DOUBLE_EQ(hi->state.result(AggregateKind::kMax), 20.0);
}

TEST_F(DatClusterTest, OnlyTheRootHoldsTheGlobal) {
  ASSERT_TRUE(converged_);
  const Id key = start_all(AggregateKind::kSum,
                           [](std::size_t) { return 1.0; });
  cluster_->run_for(4'000'000);
  const Id root_id = cluster_->ring_view().successor(key);
  int holders = 0;
  for (std::size_t i = 0; i < cluster_->slot_count(); ++i) {
    if (cluster_->dat(i).latest(key).has_value()) {
      ++holders;
      EXPECT_EQ(cluster_->node(i).id(), root_id);
    }
  }
  EXPECT_EQ(holders, 1);
}

TEST_F(DatClusterTest, QueryGlobalFromAnyNode) {
  ASSERT_TRUE(converged_);
  const Id key = start_all(AggregateKind::kAvg,
                           [](std::size_t i) { return i % 2 ? 10.0 : 20.0; });
  cluster_->run_for(5'000'000);
  for (const std::size_t origin : {0ul, 7ul, 19ul}) {
    bool done = false;
    cluster_->dat(origin).query_global(
        key, [&](net::RpcStatus s, std::optional<GlobalValue> g) {
          done = true;
          ASSERT_EQ(s, net::RpcStatus::kOk);
          ASSERT_TRUE(g.has_value());
          EXPECT_EQ(g->state.count, kNodes);
          EXPECT_DOUBLE_EQ(g->state.result(AggregateKind::kAvg), 15.0);
        });
    cluster_->run_for(3'000'000);
    EXPECT_TRUE(done) << "origin " << origin;
  }
}

TEST_F(DatClusterTest, SnapshotCoversAllNodesOnDemand) {
  ASSERT_TRUE(converged_);
  const Id key = start_all(AggregateKind::kSum,
                           [](std::size_t) { return 2.0; });
  // No epochs needed: snapshots read local values directly.
  bool done = false;
  cluster_->dat(3).snapshot(key, [&](const AggState& state) {
    done = true;
    EXPECT_EQ(state.count, kNodes);
    EXPECT_DOUBLE_EQ(state.sum, 2.0 * kNodes);
  });
  cluster_->run_for(5'000'000);
  EXPECT_TRUE(done);
}

TEST_F(DatClusterTest, MultipleSimultaneousTrees) {
  ASSERT_TRUE(converged_);
  // Three different aggregates with different rendezvous keys coexist.
  std::vector<Id> keys;
  for (const char* name : {"cpu", "mem", "disk"}) {
    Id key = 0;
    for (std::size_t i = 0; i < cluster_->slot_count(); ++i) {
      key = cluster_->dat(i).start_aggregate(
          name, AggregateKind::kCount, chord::RoutingScheme::kBalanced,
          []() { return 1.0; });
    }
    keys.push_back(key);
  }
  EXPECT_NE(keys[0], keys[1]);
  EXPECT_NE(keys[1], keys[2]);
  cluster_->run_for(6'000'000);
  for (const Id key : keys) {
    const auto g = root_value(key);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->state.count, kNodes) << "key " << key;
  }
}

TEST_F(DatClusterTest, GreedySchemeAggregatesToo) {
  ASSERT_TRUE(converged_);
  Id key = 0;
  for (std::size_t i = 0; i < cluster_->slot_count(); ++i) {
    key = cluster_->dat(i).start_aggregate(
        "basic-tree", AggregateKind::kCount, chord::RoutingScheme::kGreedy,
        []() { return 1.0; });
  }
  cluster_->run_for(6'000'000);
  const auto g = root_value(key);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->state.count, kNodes);
}

TEST_F(DatClusterTest, DepartedChildExpiresFromAggregate) {
  ASSERT_TRUE(converged_);
  const Id key = start_all(AggregateKind::kCount,
                           [](std::size_t) { return 1.0; });
  cluster_->run_for(5'000'000);
  ASSERT_EQ(root_value(key)->state.count, kNodes);

  // Crash three nodes; soft-state child TTL plus stabilization should bring
  // the count down to the surviving population.
  cluster_->remove_node(4, false);
  cluster_->remove_node(9, false);
  cluster_->remove_node(14, false);
  cluster_->refresh_d0_hints();
  cluster_->run_for(30'000'000);
  const auto g = root_value(key);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->state.count, kNodes - 3);
}

TEST_F(DatClusterTest, LateJoinerShowsUpInAggregate) {
  ASSERT_TRUE(converged_);
  const Id key = start_all(AggregateKind::kCount,
                           [](std::size_t) { return 1.0; });
  cluster_->run_for(5'000'000);
  const auto slot = cluster_->add_node();
  ASSERT_TRUE(slot.has_value());
  cluster_->dat(*slot).start_aggregate(key, AggregateKind::kCount,
                                       chord::RoutingScheme::kBalanced,
                                       []() { return 1.0; });
  cluster_->refresh_d0_hints();
  cluster_->run_for(20'000'000);
  const auto g = root_value(key);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->state.count, kNodes + 1);
}

TEST_F(DatClusterTest, StopAggregateRemovesEntry) {
  ASSERT_TRUE(converged_);
  const Id key = start_all(AggregateKind::kSum,
                           [](std::size_t) { return 1.0; });
  EXPECT_TRUE(cluster_->dat(0).has_aggregate(key));
  cluster_->dat(0).stop_aggregate(key);
  EXPECT_FALSE(cluster_->dat(0).has_aggregate(key));
  // Other nodes keep aggregating; node 0's contribution eventually expires.
  cluster_->run_for(20'000'000);
  const auto g = root_value(key);
  ASSERT_TRUE(g.has_value());
  EXPECT_LE(g->state.count, kNodes);
  EXPECT_GE(g->state.count, kNodes - 2);
}

TEST_F(DatClusterTest, UpdateCountersTrackLoad) {
  ASSERT_TRUE(converged_);
  const Id key = start_all(AggregateKind::kSum,
                           [](std::size_t) { return 1.0; });
  cluster_->run_for(5'000'000);
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::size_t roots = 0;
  for (std::size_t i = 0; i < cluster_->slot_count(); ++i) {
    sent += cluster_->dat(i).updates_sent(key);
    received += cluster_->dat(i).updates_received(key);
    if (cluster_->dat(i).latest(key)) ++roots;
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_GT(sent, 0u);
  // One-way updates over a loss-free simulated LAN: everything sent is
  // received, except the <= 1 update per node still in flight at scan time.
  EXPECT_GE(sent, received);
  EXPECT_LE(sent - received, kNodes);
}

TEST_F(DatClusterTest, QueryUnknownKeyReturnsEmpty) {
  ASSERT_TRUE(converged_);
  bool done = false;
  cluster_->dat(2).query_global(
      0xDEAD, [&](net::RpcStatus s, std::optional<GlobalValue> g) {
        done = true;
        EXPECT_EQ(s, net::RpcStatus::kOk);
        EXPECT_FALSE(g.has_value());
      });
  cluster_->run_for(3'000'000);
  EXPECT_TRUE(done);
}

TEST_F(DatClusterTest, TruncatedBodiesAreDropped) {
  ASSERT_TRUE(converged_);
  const Id key = start_all(AggregateKind::kCount,
                           [](std::size_t) { return 1.0; });
  cluster_->run_for(5'000'000);

  // An interior node (children below, a parent above) and one child of it,
  // so every body below would change its state if it decoded.
  std::size_t target = kNodes;
  for (std::size_t i = 0; i < kNodes && target == kNodes; ++i) {
    const DatNode& d = cluster_->dat(i);
    if (d.child_count(key) > 0 && !d.latest(key)) target = i;
  }
  ASSERT_LT(target, kNodes);
  const net::Endpoint target_ep = cluster_->node(target).self().endpoint;
  std::size_t child = kNodes;
  for (std::size_t i = 0; i < kNodes && child == kNodes; ++i) {
    const auto parent =
        cluster_->node(i).dat_parent(key, chord::RoutingScheme::kBalanced);
    if (i != target && parent && parent->endpoint == target_ep) child = i;
  }
  ASSERT_LT(child, kNodes);
  DatNode& dat = cluster_->dat(target);
  const std::size_t children = dat.child_count(key);
  const std::uint64_t pushed = dat.updates_sent(key);

  // Sends `body` minus its last `cut` bytes as one-way `method`.
  const auto send_cut = [&](net::RpcManager& rpc, const char* method,
                            const net::Writer& body, std::size_t cut) {
    std::vector<std::uint8_t> bytes = body.data();
    bytes.resize(bytes.size() - cut);
    rpc.send_one_way(target_ep, method, net::Writer(bytes));
  };
  // dat.update from a stranger, cut inside its AggState: adopted, it would
  // add a child record.
  net::Transport& stranger = cluster_->network().add_node();
  net::RpcManager stranger_rpc(stranger);
  net::Writer update;
  write_update(update, UpdateBody{key, AggregateKind::kSum,
                                  static_cast<std::uint8_t>(
                                      chord::RoutingScheme::kBalanced),
                                  0x1234, AggState::of(1.0)});
  send_cut(stranger_rpc, "dat.update", update, 5);
  // dat.handoff cut inside its TTL: accepted, it would install an override.
  net::Writer handoff;
  write_handoff(handoff,
                HandoffBody{key, cluster_->node(child).self(), 60'000'000});
  send_cut(stranger_rpc, "dat.handoff", handoff, 3);
  // dat.retract from a real child, cut inside its key: accepted, it would
  // erase that child's record.
  net::Writer retract;
  write_retract(retract, key);
  send_cut(cluster_->node(child).rpc(), "dat.retract", retract, 1);

  const auto served = [&](const char* method) {
    const auto& counts = cluster_->node(target).rpc().served_counts();
    const auto it = counts.find(method);
    return it == counts.end() ? 0 : it->second;
  };
  const std::uint64_t updates_before = served("dat.update");
  const std::uint64_t handoffs_before = served("dat.handoff");
  const std::uint64_t retracts_before = served("dat.retract");
  cluster_->run_for(50'000);  // delivery, well inside one 200 ms epoch
  EXPECT_GT(served("dat.update"), updates_before);
  EXPECT_EQ(served("dat.handoff"), handoffs_before + 1);
  EXPECT_EQ(served("dat.retract"), retracts_before + 1);
  EXPECT_EQ(dat.child_count(key), children);
  EXPECT_FALSE(dat.has_parent_override(key));

  // The node keeps pushing on its next epochs.
  cluster_->run_for(2 * 200'000);
  EXPECT_GT(dat.updates_sent(key), pushed);
  EXPECT_EQ(dat.child_count(key), children);
  EXPECT_FALSE(dat.has_parent_override(key));
}

// -- aligned waves -------------------------------------------------------------

/// A steady 64-node ring with one MIN tree of leaf sample times, the shape
/// of perfbench's trees: each emission's freshness is its time minus the
/// oldest sample it carries.
class AlignedWaveTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 64;
  static constexpr std::uint64_t kEpoch = 200'000;

  AlignedWaveTest() {
    harness::ClusterOptions options;
    options.seed = 4242;
    options.dat.epoch_us = kEpoch;
    cluster_ = std::make_unique<harness::SimCluster>(kNodes, std::move(options));
    converged_ = cluster_->wait_converged(600'000'000);
    key_ = rendezvous_key("wave-test", cluster_->node(0).space());
    for (std::size_t i = 0; i < kNodes; ++i) {
      cluster_->dat(i).start_aggregate(
          key_, AggregateKind::kMin, chord::RoutingScheme::kBalanced, [this, i] {
            return muted_[i] ? 1e18 : static_cast<double>(cluster_->now_us());
          });
    }
    cluster_->run_for(10 * kEpoch);  // the first waves climb the tree
  }

  [[nodiscard]] std::size_t root_slot() const {
    const Id root_id = cluster_->ring_view().successor(key_);
    for (std::size_t i = 0; i < cluster_->slot_count(); ++i) {
      if (cluster_->is_live(i) && cluster_->node(i).id() == root_id) return i;
    }
    return kNodes;
  }

  /// Root emissions at or after `since_us`.
  [[nodiscard]] std::vector<GlobalValue> emissions(std::uint64_t since_us) {
    std::vector<GlobalValue> out;
    for (const GlobalValue& g : cluster_->dat(root_slot()).history(key_)) {
      if (g.updated_at_us >= since_us) out.push_back(g);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t pushes(std::size_t slot) const {
    const DatNode::PushCounts p = cluster_->dat(slot).pushes(key_);
    return p.early + p.deadline;
  }

  std::unique_ptr<harness::SimCluster> cluster_;
  bool converged_ = false;
  Id key_ = 0;
  /// A muted node samples a value that never becomes the minimum, so a
  /// record it leaves behind does not read as stale data.
  std::vector<bool> muted_ = std::vector<bool>(kNodes, false);
};

TEST_F(AlignedWaveTest, OneUpdatePerNodePerTreePerPeriod) {
  ASSERT_TRUE(converged_);
  std::vector<std::uint64_t> before(kNodes);
  std::vector<std::uint64_t> deadline(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    before[i] = pushes(i);
    deadline[i] = cluster_->dat(i).pushes(key_).deadline;
  }
  constexpr std::uint64_t kPeriods = 40;
  cluster_->run_for(kPeriods * kEpoch);
  for (std::size_t i = 0; i < kNodes; ++i) {
    // A window of whole periods starting off the grid spans at most one
    // more wave than it has periods.
    const std::uint64_t n = pushes(i) - before[i];
    EXPECT_GE(n, kPeriods - 1) << "slot " << i;
    EXPECT_LE(n, kPeriods + 1) << "slot " << i;
    // Steady and loss-free, no wave waits for a deadline.
    EXPECT_EQ(cluster_->dat(i).pushes(key_).deadline, deadline[i])
        << "slot " << i;
  }
}

TEST_F(AlignedWaveTest, RootFreshnessIsWithinOneAndAHalfEpochs) {
  ASSERT_TRUE(converged_);
  const std::uint64_t since = cluster_->now_us();
  cluster_->run_for(40 * kEpoch);
  const std::vector<GlobalValue> seen = emissions(since);
  ASSERT_GE(seen.size(), 39u);
  for (const GlobalValue& g : seen) {
    EXPECT_EQ(g.state.count, kNodes);
    const double fresh_us = static_cast<double>(g.updated_at_us) - g.state.min;
    EXPECT_GE(fresh_us, 0.0);
    EXPECT_LE(fresh_us, 1.5 * kEpoch);
  }
}

TEST_F(AlignedWaveTest, CrashedChildCostsAtMostTheDeadline) {
  ASSERT_TRUE(converged_);
  // Crash a leaf: a node that is not the root and has no children, so its
  // parent waits on it and nothing else has to re-parent.
  const std::size_t root = root_slot();
  std::size_t victim = kNodes;
  for (std::size_t i = 0; i < kNodes && victim == kNodes; ++i) {
    if (i != root && cluster_->dat(i).child_count(key_) == 0) victim = i;
  }
  ASSERT_LT(victim, kNodes);
  std::size_t parent = kNodes;
  for (std::size_t i = 0; i < kNodes && parent == kNodes; ++i) {
    const auto p = cluster_->node(victim).dat_parent(
        key_, chord::RoutingScheme::kBalanced);
    if (p && cluster_->node(i).self().endpoint == p->endpoint) parent = i;
  }
  ASSERT_LT(parent, kNodes);
  // Mute the victim first: its last record then carries no sample time,
  // and the emissions' freshness is that of the live contributors.
  muted_[victim] = true;
  cluster_->run_for(2 * kEpoch);
  const std::uint64_t deadline_before =
      cluster_->dat(parent).pushes(key_).deadline;

  const std::uint64_t crash_at = cluster_->now_us();
  cluster_->remove_node(victim, false);
  cluster_->refresh_d0_hints();
  cluster_->run_for(30 * kEpoch);

  const std::vector<GlobalValue> seen = emissions(crash_at);
  ASSERT_GE(seen.size(), 29u);
  std::uint64_t last_us = crash_at;
  for (const GlobalValue& g : seen) {
    // The root keeps emitting: a wave that waits on the dead child still
    // closes at its deadline.
    EXPECT_LE(g.updated_at_us - last_us, 2 * kEpoch);
    last_us = g.updated_at_us;
    // Every live contributor is counted; the dead leaf's record lingers at
    // most until its child TTL expires.
    EXPECT_GE(g.state.count, kNodes - 1);
    EXPECT_LE(g.state.count, kNodes);
    // The silent child costs its parent at most the deadline: one period
    // on top of the steady bound.
    const double fresh_us = static_cast<double>(g.updated_at_us) - g.state.min;
    EXPECT_LE(fresh_us, 2.5 * kEpoch);
  }
  // The parent waited on the dead child and pushed at deadlines ...
  EXPECT_GT(cluster_->dat(parent).pushes(key_).deadline, deadline_before);
  // ... until the record expired; the tree is then exact and fresh again.
  EXPECT_EQ(seen.back().state.count, kNodes - 1);
  EXPECT_LE(static_cast<double>(seen.back().updated_at_us) - seen.back().state.min,
            1.5 * kEpoch);
}

}  // namespace
