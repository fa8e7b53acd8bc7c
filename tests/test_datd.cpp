// datd building blocks: config file + flag parsing, the status wire
// snapshot, the process-mode chaos plan, and the graceful-drain protocol
// (handoffs + retracts) that lets a daemon leave without losing or
// double-counting its subtree.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>

#include "chaos/plan.hpp"
#include "datd/config.hpp"
#include "datd/status.hpp"
#include "dat/replicated.hpp"
#include "harness/sim_cluster.hpp"
#include "lb/drain.hpp"

namespace {

using namespace dat;

// ---------------------------------------------------------------- config --

TEST(DatdConfig, ParseEndpoint) {
  const net::Endpoint ep = datd::parse_endpoint("127.0.0.1:9400");
  EXPECT_EQ(net::endpoint_port(ep), 9400);
  EXPECT_EQ(net::endpoint_to_string(ep), "127.0.0.1:9400");
  EXPECT_THROW((void)datd::parse_endpoint("localhost:9400"),
               std::invalid_argument);
  EXPECT_THROW((void)datd::parse_endpoint("127.0.0.1"), std::invalid_argument);
  EXPECT_THROW((void)datd::parse_endpoint("127.0.0.1:"), std::invalid_argument);
  EXPECT_THROW((void)datd::parse_endpoint("127.0.0.1:0"), std::invalid_argument);
  EXPECT_THROW((void)datd::parse_endpoint("127.0.0.1:70000"),
               std::invalid_argument);
  EXPECT_THROW((void)datd::parse_endpoint("300.0.0.1:1"),
               std::invalid_argument);
  EXPECT_THROW((void)datd::parse_endpoint(":9400"), std::invalid_argument);
}

TEST(DatdConfig, FlagsRoundTripAndOverride) {
  datd::Config defaults;
  CliFlags flags = defaults.make_flags();
  ASSERT_TRUE(flags.parse({"--create=true", "--port=9500", "--value=3.5",
                           "--kind=avg", "--scheme=greedy", "--replicas=4",
                           "--metrics-format=json"}));
  const datd::Config config = datd::Config::from_flags(flags);
  EXPECT_TRUE(config.create);
  EXPECT_EQ(config.port, 9500);
  EXPECT_DOUBLE_EQ(config.value, 3.5);
  EXPECT_EQ(config.kind, core::AggregateKind::kAvg);
  EXPECT_EQ(config.scheme, chord::RoutingScheme::kGreedy);
  EXPECT_EQ(config.replicas, 4u);
  EXPECT_EQ(config.metrics_format, obs::ExportFormat::kJson);
}

TEST(DatdConfig, Validation) {
  const auto parse = [](std::vector<std::string> args) {
    datd::Config defaults;
    CliFlags flags = defaults.make_flags();
    if (!flags.parse(args)) throw std::invalid_argument(flags.error());
    return datd::Config::from_flags(flags);
  };
  EXPECT_NO_THROW(parse({"--create=true"}));
  EXPECT_NO_THROW(parse({"--seeds=127.0.0.1:9400,127.0.0.1:9401"}));
  // Neither --create nor --seeds: nothing to boot into.
  EXPECT_THROW(parse({}), std::invalid_argument);
  // A seed endpoint typo is a deployment error found NOW, not after the
  // whole retry budget burns down.
  EXPECT_THROW(parse({"--seeds=127.0.0.1:bad"}), std::invalid_argument);
  EXPECT_THROW(parse({"--create=true", "--bits=2"}), std::invalid_argument);
  EXPECT_THROW(parse({"--create=true", "--replicas=0"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--create=true", "--kind=median"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--create=true", "--scheme=fancy"}),
               std::invalid_argument);
  // datd has no transport switch: --backend is an unknown flag.
  EXPECT_THROW(parse({"--create=true", "--backend=netio"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--create=true", "--epoch-ms=0"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--create=true", "--backoff-base-ms=100",
                      "--backoff-cap-ms=50"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--create=true", "--join-attempts=0"}),
               std::invalid_argument);
  // Unknown flags are parse errors, not silently ignored.
  datd::Config defaults;
  CliFlags flags = defaults.make_flags();
  EXPECT_FALSE(flags.parse({"--create=true", "--frobnicate=9"}));
  EXPECT_FALSE(flags.error().empty());
}

class ConfigFileTest : public ::testing::Test {
 protected:
  void write(const std::string& text) {
    path_ = ::testing::TempDir() + "datd_config_test.conf";
    std::ofstream out(path_, std::ios::trunc);
    out << text;
  }
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(ConfigFileTest, FileSeedsDefaultsFlagsWin) {
  write("# fleet defaults\n"
        "seeds 127.0.0.1:9400,127.0.0.1:9401\n"
        "replicas 3\n"
        "epoch-ms 250\n"
        "\n"
        "aggregate mem-usage\n");
  datd::Config config;
  config.load_file(path_);
  EXPECT_EQ(config.seeds.size(), 2u);
  EXPECT_EQ(config.replicas, 3u);
  EXPECT_EQ(config.epoch_ms, 250u);
  EXPECT_EQ(config.aggregate, "mem-usage");

  // Now the supervisor's per-slot overrides: flags beat file keys.
  CliFlags flags = config.make_flags();
  ASSERT_TRUE(flags.parse({"--port=9407", "--replicas=5"}));
  const datd::Config merged = datd::Config::from_flags(flags);
  EXPECT_EQ(merged.port, 9407);
  EXPECT_EQ(merged.replicas, 5u);
  EXPECT_EQ(merged.epoch_ms, 250u);       // file value survives
  EXPECT_EQ(merged.aggregate, "mem-usage");
}

TEST_F(ConfigFileTest, RejectsUnknownAndNestedKeys) {
  write("no-such-key 5\n");
  datd::Config config;
  EXPECT_THROW(config.load_file(path_), std::invalid_argument);
  write("config other.conf\n");
  EXPECT_THROW(config.load_file(path_), std::invalid_argument);
  EXPECT_THROW(config.load_file("/nonexistent/datd.conf"),
               std::invalid_argument);
}

// ---------------------------------------------------------------- status --

TEST(DatdStatus, WireRoundTrip) {
  datd::StatusInfo info;
  info.pid = 4242;
  info.incarnation = 3;
  info.uptime_us = 1'234'567;
  info.serving = false;
  info.joined = true;
  info.self = chord::NodeRef{77, net::make_udp_endpoint(0x7F000001u, 9400)};
  info.predecessor =
      chord::NodeRef{55, net::make_udp_endpoint(0x7F000001u, 9401)};
  info.successors.push_back(
      chord::NodeRef{99, net::make_udp_endpoint(0x7F000001u, 9402)});
  info.aggregate_keys = {11, 22, 33};

  net::Writer w;
  info.encode(w);
  net::Reader r(w.data());
  const datd::StatusInfo back = datd::StatusInfo::decode(r);
  EXPECT_EQ(back.pid, info.pid);
  EXPECT_EQ(back.incarnation, info.incarnation);
  EXPECT_EQ(back.uptime_us, info.uptime_us);
  EXPECT_EQ(back.serving, info.serving);
  EXPECT_EQ(back.joined, info.joined);
  EXPECT_EQ(back.self.id, info.self.id);
  ASSERT_TRUE(back.predecessor.has_value());
  EXPECT_EQ(back.predecessor->id, 55u);
  ASSERT_EQ(back.successors.size(), 1u);
  EXPECT_EQ(back.successors[0].id, 99u);
  EXPECT_EQ(back.aggregate_keys, info.aggregate_keys);

  EXPECT_NE(back.describe().find("draining"), std::string::npos);
  EXPECT_NE(back.to_json().find("\"schema\":\"dat.status.v1\""),
            std::string::npos);
}

TEST(DatdStatus, NoPredecessorRoundTrip) {
  datd::StatusInfo info;
  info.self = chord::NodeRef{1, net::make_udp_endpoint(0x7F000001u, 9400)};
  net::Writer w;
  info.encode(w);
  net::Reader r(w.data());
  const datd::StatusInfo back = datd::StatusInfo::decode(r);
  EXPECT_FALSE(back.predecessor.has_value());
  EXPECT_TRUE(back.successors.empty());
  EXPECT_TRUE(back.aggregate_keys.empty());
}

// ---------------------------------------------------- process chaos plan --

TEST(ProcessPlan, DeterministicPureFunctionOfSeed) {
  const chaos::ChaosPlan a = chaos::ChaosPlan::process_canonical(7, 64);
  const chaos::ChaosPlan b = chaos::ChaosPlan::process_canonical(7, 64);
  EXPECT_EQ(a.to_spec(), b.to_spec());
  const chaos::ChaosPlan c = chaos::ChaosPlan::process_canonical(8, 64);
  EXPECT_NE(a.to_spec(), c.to_spec());
  EXPECT_TRUE(a.process_mode);
  EXPECT_THROW(chaos::ChaosPlan::process_canonical(7, 4),
               std::invalid_argument);
}

TEST(ProcessPlan, SlotZeroNeverVictimAndKillMixMatches) {
  const chaos::ChaosPlan plan = chaos::ChaosPlan::process_canonical(21, 64);
  std::size_t kills = 0;
  std::size_t terms = 0;
  std::size_t restarts = 0;
  std::set<std::size_t> victims;
  for (const chaos::FaultEvent& e : plan.events) {
    switch (e.kind) {
      case chaos::FaultKind::kSigkill:
        ++kills;
        EXPECT_NE(e.slot, 0u);
        EXPECT_TRUE(victims.insert(e.slot).second) << "victim reused";
        break;
      case chaos::FaultKind::kSigterm:
        ++terms;
        EXPECT_NE(e.slot, 0u);
        EXPECT_TRUE(victims.insert(e.slot).second) << "victim reused";
        break;
      case chaos::FaultKind::kRestart:
        ++restarts;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(kills, 16u);     // 25% of 64
  EXPECT_EQ(terms, 6u);      // 10% of 64
  EXPECT_EQ(restarts, 8u);   // half the kills rejoin
  EXPECT_GE(plan.phases(), 4u);
}

TEST(ProcessPlan, SpecRoundTripKeepsModeAndKillVerbs) {
  const chaos::ChaosPlan plan = chaos::ChaosPlan::process_canonical(5, 16);
  const std::string spec = plan.to_spec();
  EXPECT_NE(spec.find("mode process"), std::string::npos);
  EXPECT_NE(spec.find("sigkill"), std::string::npos);
  EXPECT_NE(spec.find("sigterm"), std::string::npos);
  const chaos::ChaosPlan back = chaos::ChaosPlan::parse(spec);
  EXPECT_TRUE(back.process_mode);
  EXPECT_EQ(back.to_spec(), spec);
  EXPECT_THROW(chaos::ChaosPlan::parse("mode process\nmode sim\n"),
               std::invalid_argument);
  EXPECT_THROW(chaos::ChaosPlan::parse("mode bare-metal\n"),
               std::invalid_argument);
}

// -------------------------------------------------------- graceful drain --

class DrainTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 12;

  void boot(unsigned replicas) {
    harness::ClusterOptions options;
    options.seed = 97;
    options.dat.epoch_us = 200'000;
    cluster_ =
        std::make_unique<harness::SimCluster>(kNodes, std::move(options));
    ASSERT_TRUE(cluster_->wait_converged(300'000'000));
    for (std::size_t i = 0; i < kNodes; ++i) {
      aggs_.push_back(std::make_unique<core::ReplicatedAggregate>(
          cluster_->dat(i), "drain-load", replicas, core::AggregateKind::kSum,
          chord::RoutingScheme::kBalanced));
      const double value = static_cast<double>(i + 1);
      aggs_.back()->start([value] { return value; });
    }
    cluster_->run_for(8 * 200'000);
  }

  [[nodiscard]] double full_sum() const {
    return kNodes * (kNodes + 1) / 2.0;
  }

  [[nodiscard]] std::size_t root_slot(Id key) const {
    const Id root_id = cluster_->ring_view().successor(key);
    for (std::size_t i = 0; i < cluster_->slot_count(); ++i) {
      if (cluster_->is_live(i) && cluster_->node(i).id() == root_id) return i;
    }
    ADD_FAILURE() << "no live root for key";
    return 0;
  }

  /// The root's settled global for `key` must match (count, sum) exactly
  /// within `epochs` push periods.
  void expect_exact(Id key, std::uint64_t count, double sum,
                    unsigned epochs = 15) {
    for (unsigned e = 0; e < epochs; ++e) {
      cluster_->run_for(200'000);
      const auto g = cluster_->dat(root_slot(key)).latest(key);
      if (g && g->state.count == count &&
          std::abs(g->state.sum - sum) < 1e-9) {
        return;
      }
    }
    const auto g = cluster_->dat(root_slot(key)).latest(key);
    ASSERT_TRUE(g.has_value()) << "root has no global";
    EXPECT_EQ(g->state.count, count);
    EXPECT_NEAR(g->state.sum, sum, 1e-9);
  }

  std::unique_ptr<harness::SimCluster> cluster_;
  std::vector<std::unique_ptr<core::ReplicatedAggregate>> aggs_;
};

TEST_F(DrainTest, DrainedNodeLeavesAggregateExactlyOnce) {
  boot(1);
  const Id key = aggs_[0]->keys()[0];
  expect_exact(key, kNodes, full_sum());

  // Pick an interior victim (not the root) and run the daemon's SIGTERM
  // path: DAT drain (handoffs + retracts), then a clean Chord leave.
  std::size_t victim = root_slot(key) == 1 ? 2 : 1;
  const core::DatNode::DrainReport report =
      lb::drain_node(cluster_->dat(victim), lb::PolicyOptions{});
  EXPECT_GE(report.keys, 1u);
  EXPECT_TRUE(cluster_->dat(victim).draining());
  cluster_->run_for(400'000);  // let handoffs + retracts land
  aggs_[victim].reset();       // the aggregate dies with its node
  cluster_->remove_node(victim, /*graceful=*/true);

  // Conservation: the victim's value (victim+1) left exactly once — no
  // residual stale child record (retract), no double count (handoff moves
  // the records instead of copying them).
  expect_exact(key, kNodes - 1, full_sum() - (victim + 1));
}

TEST_F(DrainTest, DrainIsIdempotentAndReportsWork) {
  boot(1);
  const Id key = aggs_[0]->keys()[0];
  expect_exact(key, kNodes, full_sum());

  core::DatNode& dat = cluster_->dat(root_slot(key));
  const core::DatNode::DrainReport first = dat.drain(60'000'000);
  EXPECT_GE(first.keys, 1u);
  const core::DatNode::DrainReport second = dat.drain(60'000'000);
  EXPECT_EQ(second.keys, 0u);  // already draining: nothing left to do
  EXPECT_EQ(second.children_moved, 0u);
}

TEST_F(DrainTest, RootDrainHandsSubtreeToSuccessor) {
  boot(1);
  const Id key = aggs_[0]->keys()[0];
  expect_exact(key, kNodes, full_sum());

  // Draining the ROOT is the hard case: there is no geometric parent to
  // point the children at, so the drain relays them to the successor —
  // the node that owns the key range once the root leaves.
  const std::size_t victim = root_slot(key);
  (void)lb::drain_node(cluster_->dat(victim), lb::PolicyOptions{});
  cluster_->run_for(400'000);
  aggs_[victim].reset();
  cluster_->remove_node(victim, /*graceful=*/true);

  expect_exact(key, kNodes - 1, full_sum() - (victim + 1));
}

TEST_F(DrainTest, ReplicatedRootHandoffMidEpochKeepsExactAggregate) {
  boot(2);
  const Id key0 = aggs_[0]->keys()[0];
  const Id key1 = aggs_[0]->keys()[1];
  expect_exact(key0, kNodes, full_sum());
  expect_exact(key1, kNodes, full_sum());

  // Mid-epoch (pushes in flight), the root of replica 0 sheds its children
  // to a relay — the dat.handoff re-parenting. The moved records travel,
  // not copy: the replica must neither double-count the subtree (kept
  // record + relay's report) nor lose it.
  cluster_->run_for(100'000);  // half a period: updates are in flight
  const std::size_t root0 = root_slot(key0);
  (void)cluster_->dat(root0).shed_children(key0, 1, 60'000'000);
  expect_exact(key0, kNodes, full_sum());
  // The sibling replica tree never saw the handoff and stays exact too.
  expect_exact(key1, kNodes, full_sum());

  // Now the full daemon exit of that same root, mid-epoch: the replicated
  // read (widest-coverage answer across replica roots) must recover the
  // exact post-departure aggregate.
  cluster_->run_for(100'000);
  (void)lb::drain_node(cluster_->dat(root0), lb::PolicyOptions{});
  cluster_->run_for(400'000);
  aggs_[root0].reset();
  cluster_->remove_node(root0, /*graceful=*/true);
  const double want_sum = full_sum() - (root0 + 1);
  expect_exact(key0, kNodes - 1, want_sum);
  expect_exact(key1, kNodes - 1, want_sum);

  bool done = false;
  core::ReplicatedAggregate::Result result;
  const std::size_t reader = root0 == 1 ? 2 : 1;
  aggs_[reader]->query([&](core::ReplicatedAggregate::Result r) {
    done = true;
    result = std::move(r);
  });
  for (unsigned i = 0; i < 50 && !done; ++i) cluster_->run_for(100'000);
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best->state.count, kNodes - 1);
  EXPECT_NEAR(result.best->state.sum, want_sum, 1e-9);
}

TEST_F(DrainTest, DrainingNodeRedirectsStragglers) {
  boot(1);
  const Id key = aggs_[0]->keys()[0];
  expect_exact(key, kNodes, full_sum());

  // Find a node with children and drain it WITHOUT removing it: stragglers
  // that still push to it must be re-issued the redirect, not re-adopted.
  std::size_t victim = kNodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (i != root_slot(key) && cluster_->dat(i).child_count(key) > 0) {
      victim = i;
      break;
    }
  }
  if (victim == kNodes) GTEST_SKIP() << "no interior node in this topology";
  (void)cluster_->dat(victim).drain(60'000'000);
  cluster_->run_for(6 * 200'000);
  // The drained node never re-adopts children for the key...
  EXPECT_EQ(cluster_->dat(victim).child_count(key), 0u);
  // ...while the tree keeps counting every live node, the drained one
  // included (it stopped pushing, but its value had already been handed
  // off? No: draining stops its own contribution too — the tree must
  // settle on everyone EXCEPT the drained node).
  expect_exact(key, kNodes - 1, full_sum() - (victim + 1));
}

}  // namespace
