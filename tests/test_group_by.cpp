// Grouped aggregates — the paper Sec. 2.3's "Group By" semantics: one DAT
// tree (and hence one consistently-hashed root) per group value.

#include "gma/group_by.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "harness/sim_cluster.hpp"

namespace {

using namespace dat;
using namespace dat::gma;

TEST(GroupedAttribute, Naming) {
  EXPECT_EQ(grouped_attribute("cpu-usage", "linux"), "cpu-usage@linux");
  EXPECT_THROW(grouped_attribute("", "x"), std::invalid_argument);
  EXPECT_THROW(grouped_attribute("x", ""), std::invalid_argument);
}

class GroupByClusterTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 18;

  GroupByClusterTest() {
    harness::ClusterOptions options;
    options.seed = 404;
    options.dat.epoch_us = 200'000;
    cluster_ = std::make_unique<harness::SimCluster>(kNodes, std::move(options));
    converged_ = cluster_->wait_converged(300'000'000);
    if (!converged_) return;
    for (std::size_t i = 0; i < kNodes; ++i) {
      groups_.push_back(std::make_unique<GroupedAggregate>(
          cluster_->dat(i), "cpu-usage", core::AggregateKind::kAvg,
          chord::RoutingScheme::kBalanced));
      // Three groups of 6 nodes: linux (load 10), freebsd (load 30),
      // solaris (load 50).
      const char* group = i % 3 == 0 ? "linux" : (i % 3 == 1 ? "freebsd"
                                                             : "solaris");
      const double load = 10.0 + 20.0 * (i % 3);
      groups_.back()->contribute(group, [load]() { return load; });
    }
    cluster_->run_for(8'000'000);
  }

  ~GroupByClusterTest() override { groups_.clear(); }

  std::unique_ptr<harness::SimCluster> cluster_;
  std::vector<std::unique_ptr<GroupedAggregate>> groups_;
  bool converged_ = false;
};

TEST_F(GroupByClusterTest, GroupsAggregateIndependently) {
  ASSERT_TRUE(converged_);
  const struct {
    const char* group;
    double expected_avg;
  } cases[] = {{"linux", 10.0}, {"freebsd", 30.0}, {"solaris", 50.0}};
  for (const auto& c : cases) {
    bool done = false;
    groups_[0]->query(c.group, [&](net::RpcStatus st,
                                   std::optional<core::GlobalValue> g) {
      done = true;
      ASSERT_EQ(st, net::RpcStatus::kOk);
      ASSERT_TRUE(g.has_value()) << c.group;
      EXPECT_EQ(g->state.count, kNodes / 3) << c.group;
      EXPECT_DOUBLE_EQ(g->state.result(core::AggregateKind::kAvg),
                       c.expected_avg)
          << c.group;
    });
    cluster_->run_for(3'000'000);
    EXPECT_TRUE(done) << c.group;
  }
}

TEST_F(GroupByClusterTest, GroupsHaveDistinctRoots) {
  ASSERT_TRUE(converged_);
  const Id k1 = groups_[0]->key_for("linux");
  const Id k2 = groups_[0]->key_for("freebsd");
  const Id k3 = groups_[0]->key_for("solaris");
  EXPECT_NE(k1, k2);
  EXPECT_NE(k2, k3);
  // Keys are consistent across nodes.
  EXPECT_EQ(groups_[5]->key_for("linux"), k1);
}

TEST_F(GroupByClusterTest, SnapshotPerGroup) {
  ASSERT_TRUE(converged_);
  bool done = false;
  groups_[7]->snapshot("freebsd", [&](const core::AggState& state) {
    done = true;
    EXPECT_EQ(state.count, kNodes / 3);
    EXPECT_DOUBLE_EQ(state.result(core::AggregateKind::kAvg), 30.0);
  });
  cluster_->run_for(5'000'000);
  EXPECT_TRUE(done);
}

TEST_F(GroupByClusterTest, QueryUnknownGroupReturnsEmpty) {
  ASSERT_TRUE(converged_);
  bool done = false;
  groups_[0]->query("hurd", [&](net::RpcStatus st,
                                std::optional<core::GlobalValue> g) {
    done = true;
    EXPECT_EQ(st, net::RpcStatus::kOk);
    EXPECT_FALSE(g.has_value());
  });
  cluster_->run_for(3'000'000);
  EXPECT_TRUE(done);
}

TEST_F(GroupByClusterTest, RegroupingMovesTheContribution) {
  ASSERT_TRUE(converged_);
  // Node 0 (linux, load 10) migrates to solaris with load 90.
  groups_[0]->contribute("solaris", []() { return 90.0; });
  // Wait out the soft-state TTL on the old tree plus a few epochs.
  cluster_->run_for(10 * 200'000);

  bool linux_done = false;
  groups_[1]->query("linux", [&](net::RpcStatus st,
                                 std::optional<core::GlobalValue> g) {
    linux_done = true;
    ASSERT_EQ(st, net::RpcStatus::kOk);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->state.count, kNodes / 3 - 1);  // node 0 left the group
  });
  bool solaris_done = false;
  groups_[1]->query("solaris", [&](net::RpcStatus st,
                                   std::optional<core::GlobalValue> g) {
    solaris_done = true;
    ASSERT_EQ(st, net::RpcStatus::kOk);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->state.count, kNodes / 3 + 1);
    // Six members at 50 plus node 0 at 90: an AVG tree carries the sum.
    EXPECT_DOUBLE_EQ(g->state.sum, 6 * 50.0 + 90.0);
  });
  cluster_->run_for(3'000'000);
  EXPECT_TRUE(linux_done);
  EXPECT_TRUE(solaris_done);
}

}  // namespace
