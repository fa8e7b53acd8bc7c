// Cross-cutting coverage: large payloads over real sockets, RPC accounting,
// end-to-end variance aggregation, traffic counters, and aggregate-algebra
// property sweeps.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "harness/sim_cluster.hpp"
#include "netio/netio_network.hpp"

namespace {

using namespace dat;

TEST(UdpLargePayload, TensOfKilobytesRoundTrip) {
  netio::NetioNetwork network;
  auto& a = network.add_node();
  auto& b = network.add_node();
  net::RpcManager client(a);
  net::RpcManager server(b);
  server.register_method("echo-size",
                         [](net::Endpoint, net::Reader& req, net::Writer& reply) {
                           reply.u64(req.str().size());
                         });
  // ~32 KiB payload: one datagram, below the 64 KiB UDP/receive-buffer cap.
  const std::string blob(32 * 1024, 'z');
  net::Writer body;
  body.str(blob);
  std::uint64_t echoed = 0;
  client.call(b.local(), "echo-size", body,
              [&](net::RpcStatus st, net::Reader& r) {
                ASSERT_EQ(st, net::RpcStatus::kOk);
                echoed = r.u64();
              });
  network.run_while([&] { return echoed == 0; }, 3'000'000);
  EXPECT_EQ(echoed, blob.size());
}

TEST(RpcBookkeeping, PendingAndServedCounts) {
  sim::Engine engine(5);
  net::SimNetwork network(engine);
  auto& ta = network.add_node();
  auto& tb = network.add_node();
  net::RpcManager client(ta);
  net::RpcManager server(tb);
  server.register_method("m1", [](net::Endpoint, net::Reader&, net::Writer&) {});
  server.register_method("m2", [](net::Endpoint, net::Reader&, net::Writer&) {});

  for (int i = 0; i < 3; ++i) {
    client.call(tb.local(), "m1", net::Writer{},
                [](net::RpcStatus, net::Reader&) {});
  }
  client.call(tb.local(), "m2", net::Writer{},
              [](net::RpcStatus, net::Reader&) {});
  EXPECT_EQ(client.pending(), 4u);  // nothing delivered yet
  engine.run();
  EXPECT_EQ(client.pending(), 0u);
  EXPECT_EQ(server.served_counts().at("m1"), 3u);
  EXPECT_EQ(server.served_counts().at("m2"), 1u);
}

TEST(WriterLimits, ReusableAfterTake) {
  net::Writer w;
  w.u64(1);
  (void)w.take();
  w.u64(2);
  net::Reader r(w.data());
  EXPECT_EQ(r.u64(), 2u);
}

TEST(TrafficCounters, ResetClearsEverything) {
  sim::Engine engine(6);
  net::SimNetwork network(engine);
  auto& a = network.add_node();
  auto& b = network.add_node();
  b.set_receive_handler([](net::Endpoint, const net::Message&) {});
  net::Message m;
  m.method = "x";
  m.kind = net::MessageKind::kOneWay;
  m.body = {1, 2, 3, 4};
  a.send(b.local(), m);
  engine.run();
  EXPECT_GT(a.counters().messages_sent, 0u);
  EXPECT_GT(a.counters().bytes_sent, 0u);
  a.reset_counters();
  EXPECT_EQ(a.counters().messages_sent, 0u);
  EXPECT_EQ(a.counters().bytes_sent, 0u);
  EXPECT_GT(b.counters().bytes_received, 0u);
}

TEST(VarianceEndToEnd, AggregatesOverLiveCluster) {
  constexpr std::size_t kNodes = 16;
  harness::ClusterOptions options;
  options.seed = 909090;
  options.dat.epoch_us = 200'000;
  harness::SimCluster cluster(kNodes, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(300'000'000));

  // Values 1..16: mean 8.5, population variance (n^2-1)/12 = 21.25.
  Id key = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const double v = static_cast<double>(i) + 1.0;
    key = cluster.dat(i).start_aggregate("var-attr",
                                         core::AggregateKind::kVariance,
                                         chord::RoutingScheme::kBalanced,
                                         [v]() { return v; });
  }
  cluster.run_for(4'000'000);
  const Id root_id = cluster.ring_view().successor(key);
  bool checked = false;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (cluster.node(i).id() != root_id) continue;
    const auto g = cluster.dat(i).latest(key);
    ASSERT_TRUE(g.has_value());
    ASSERT_EQ(g->state.count, kNodes);
    EXPECT_NEAR(g->state.result(core::AggregateKind::kVariance), 21.25, 1e-9);
    EXPECT_NEAR(g->state.result(core::AggregateKind::kStddev),
                std::sqrt(21.25), 1e-9);
    checked = true;
  }
  EXPECT_TRUE(checked);
}

class AggAlgebraProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AggAlgebraProperty, AnyMergeOrderYieldsTheSameState) {
  // Merge a random multiset of values in two different groupings; every
  // statistic must agree exactly (the algebraic foundation of DAT).
  Rng rng(GetParam());
  const std::size_t count = 3 + rng.next_below(40);
  std::vector<double> values;
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(rng.next_normal(0.0, 50.0));
  }

  core::AggState sequential = core::AggState::identity();
  for (const double v : values) sequential.merge(core::AggState::of(v));

  // Tree-shaped grouping: random split point, then merge of merges.
  const std::size_t split = 1 + rng.next_below(values.size() - 1);
  core::AggState left = core::AggState::identity();
  core::AggState right = core::AggState::identity();
  for (std::size_t i = 0; i < split; ++i) {
    left.merge(core::AggState::of(values[i]));
  }
  for (std::size_t i = split; i < values.size(); ++i) {
    right.merge(core::AggState::of(values[i]));
  }
  core::AggState treed = left;
  treed.merge(right);

  // count/min/max are exactly order-independent; the sums are associative
  // only up to floating-point rounding.
  EXPECT_EQ(treed.count, sequential.count);
  EXPECT_EQ(treed.min, sequential.min);
  EXPECT_EQ(treed.max, sequential.max);
  EXPECT_NEAR(treed.sum, sequential.sum, 1e-9 * (1.0 + std::abs(treed.sum)));
  EXPECT_NEAR(treed.sum_sq, sequential.sum_sq,
              1e-9 * (1.0 + std::abs(treed.sum_sq)));
  EXPECT_EQ(treed.count, values.size());
  // Cross-check against direct formulas.
  double sum = 0;
  double mn = values[0];
  double mx = values[0];
  for (const double v : values) {
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_NEAR(treed.sum, sum, 1e-9 * (1.0 + std::abs(sum)));
  EXPECT_DOUBLE_EQ(treed.min, mn);
  EXPECT_DOUBLE_EQ(treed.max, mx);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggAlgebraProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(NodeAccessors, OptionsAndFingersExposed) {
  sim::Engine engine(7);
  net::SimNetwork network(engine);
  auto& transport = network.add_node();
  chord::NodeOptions options;
  options.successor_list_size = 6;
  chord::Node node(IdSpace(16), transport, options, 1);
  EXPECT_EQ(node.options().successor_list_size, 6u);
  node.create(0x1234);
  EXPECT_EQ(node.self().id, 0x1234u);
  EXPECT_EQ(node.self().endpoint, transport.local());
  // Fingers start invalid; finger_ids collapses them onto self.
  EXPECT_FALSE(node.finger(3).valid());
  const auto ids = node.finger_ids();
  EXPECT_EQ(ids.size(), 16u);
  for (const Id id : ids) EXPECT_EQ(id, 0x1234u);
  EXPECT_EQ(node.successor_list().size(), 1u);
}

TEST(MaintenanceCounter, GrowsUnderStabilization) {
  harness::ClusterOptions options;
  options.seed = 515151;
  options.with_dat = false;
  harness::SimCluster cluster(6, std::move(options));
  const auto t0 = cluster.node(0).maintenance_rpcs();
  cluster.run_for(5'000'000);
  EXPECT_GT(cluster.node(0).maintenance_rpcs(), t0);
}

TEST(SimClusterLatency, CustomModelInjected) {
  harness::ClusterOptions options;
  options.seed = 626262;
  options.with_dat = false;
  options.latency = std::make_unique<sim::ConstantLatency>(1'000);
  harness::SimCluster cluster(6, std::move(options));
  EXPECT_TRUE(cluster.wait_converged(300'000'000));
  // One lookup completes and takes a multiple of the constant delay.
  bool done = false;
  const auto start = cluster.engine().now();
  cluster.node(0).find_successor(12345, [&](net::RpcStatus st,
                                            chord::NodeRef) {
    done = true;
    EXPECT_EQ(st, net::RpcStatus::kOk);
  });
  cluster.run_for(5'000'000);
  ASSERT_TRUE(done);
  EXPECT_GE(cluster.engine().now() - start, 1'000u);
}

}  // namespace
