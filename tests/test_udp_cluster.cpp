// UdpCluster harness: full stack over real loopback sockets.

#include "harness/udp_cluster.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/export.hpp"

namespace {

using namespace dat;
using namespace dat::harness;

constexpr std::uint64_t kConvergeUs = 60'000'000;

TEST(UdpClusterTest, BootstrapsAndConverges) {
  UdpClusterOptions options;
  options.seed = 42;
  options.node.stabilize_interval_us = 30'000;
  options.node.fix_fingers_interval_us = 10'000;
  options.node.rpc.timeout_us = 150'000;
  UdpCluster cluster(8, std::move(options));
  EXPECT_EQ(cluster.slot_count(), 8u);
  EXPECT_TRUE(cluster.wait_converged(kConvergeUs));
  EXPECT_EQ(cluster.ring_view().size(), 8u);  // all ids distinct
}

TEST(UdpClusterTest, RejectsZeroNodes) {
  EXPECT_THROW(UdpCluster(0, UdpClusterOptions{}), std::invalid_argument);
}

TEST(UdpClusterTest, ContinuousAggregationOverRealSockets) {
  UdpClusterOptions options;
  options.seed = 43;
  options.node.stabilize_interval_us = 30'000;
  options.node.fix_fingers_interval_us = 10'000;
  options.node.rpc.timeout_us = 150'000;
  options.dat.epoch_us = 150'000;
  UdpCluster cluster(6, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(kConvergeUs));
  cluster.refresh_d0_hints();

  Id key = 0;
  for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
    const double v = 10.0 * (static_cast<double>(i) + 1.0);
    key = cluster.dat(i).start_aggregate("load", core::AggregateKind::kSum,
                                         chord::RoutingScheme::kBalanced,
                                         [v]() { return v; });
  }
  // Wait until the root's global covers everyone (wall-clock bounded).
  const Id root_id = cluster.ring_view().successor(key);
  std::size_t root_slot = 0;
  for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
    if (cluster.node(i).id() == root_id) root_slot = i;
  }
  const bool covered = cluster.run_until(
      [&] {
        const auto g = cluster.dat(root_slot).latest(key);
        return g && g->state.count == cluster.slot_count();
      },
      10'000'000);
  ASSERT_TRUE(covered);
  const auto g = cluster.dat(root_slot).latest(key);
  EXPECT_DOUBLE_EQ(g->state.sum, 10.0 + 20 + 30 + 40 + 50 + 60);

  // Query from a non-root node too.
  bool done = false;
  const std::size_t origin = (root_slot + 1) % cluster.slot_count();
  cluster.dat(origin).query_global(
      key, [&](net::RpcStatus st, std::optional<core::GlobalValue> value) {
        done = true;
        ASSERT_EQ(st, net::RpcStatus::kOk);
        ASSERT_TRUE(value.has_value());
        EXPECT_EQ(value->state.count, cluster.slot_count());
      });
  EXPECT_TRUE(cluster.run_until([&] { return done; }, 5'000'000));
}

TEST(UdpClusterTest, PeriodicMetricsDumpWritesValidJson) {
  const std::string path =
      ::testing::TempDir() + "udp_cluster_metrics_dump.json";
  std::remove(path.c_str());
  {
    UdpClusterOptions options;
    options.seed = 45;
    options.node.stabilize_interval_us = 30'000;
    options.node.fix_fingers_interval_us = 10'000;
    options.node.rpc.timeout_us = 150'000;
    options.metrics_dump_path = path;
    options.metrics_dump_period_us = 100'000;
    options.metrics_dump_format = obs::ExportFormat::kJson;
    UdpCluster cluster(4, std::move(options));
    ASSERT_TRUE(cluster.wait_converged(kConvergeUs));
    cluster.run_for(300'000);  // at least one period elapses
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no dump written to " << path;
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"schema\":\"dat.metrics.v1\""), std::string::npos);
  EXPECT_NE(text.str().find("dat_chord_lookups_total"), std::string::npos);
  std::remove(path.c_str());
}

TEST(UdpClusterTest, MigrateRefusesTheLastLiveNode) {
  UdpClusterOptions options;
  options.seed = 46;
  options.with_dat = false;
  UdpCluster cluster(1, std::move(options));
  // Checked before the node departs: a refused migration leaves it running.
  EXPECT_THROW(cluster.migrate_node(0, 12345), std::logic_error);
  EXPECT_TRUE(cluster.is_live(0));
}

TEST(UdpClusterTest, ShutdownIsIdempotent) {
  UdpClusterOptions options;
  options.seed = 44;
  options.with_dat = false;
  options.node.stabilize_interval_us = 30'000;
  options.node.fix_fingers_interval_us = 10'000;
  UdpCluster cluster(3, std::move(options));
  cluster.shutdown();
  cluster.shutdown();  // no-op
}

}  // namespace
