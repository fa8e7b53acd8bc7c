// The headline rebalancing SLO: a cluster deployed with random identifiers
// (unbalanced trees) under a seeded 90/10-skewed workload must re-converge
// to max DAT branching <= 4 within 20 epochs of the rebalancer activating —
// asserted through the same rebalance-skew chaos campaign on both the
// virtual-time SimCluster and the real-socket UdpCluster.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "chaos/campaign.hpp"
#include "chaos/plan.hpp"
#include "harness/sim_cluster.hpp"
#include "harness/udp_cluster.hpp"

namespace {

using namespace dat;

TEST(RebalanceSkewCampaignTest, SimClusterMeetsTheBranchingSlo) {
  const chaos::ChaosPlan plan = chaos::ChaosPlan::rebalance_skew(7, 24);
  ASSERT_TRUE(plan.random_ids);

  harness::ClusterOptions cluster_options;
  cluster_options.seed = plan.seed;
  cluster_options.dat.epoch_us = 200'000;
  cluster_options.node.probing_join = !plan.random_ids;
  harness::SimCluster cluster(plan.nodes, std::move(cluster_options));

  chaos::CampaignOptions options;
  options.quiesce_us = 1'500'000;
  options.rebalance.hot_aggregates = 2;  // 2 hot + 3 cold trees: ~90/10 skew
  options.rebalance.slo_max_branching = 4;
  options.rebalance.slo_max_epochs = 20;
  chaos::Campaign campaign(cluster, plan, options);
  const chaos::CampaignReport report = campaign.run();

  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << "violation: " << violation;
  }
  ASSERT_EQ(report.phases.size(), 2u);
  // Phase 1 (before the rebalancer): the skewed deployment still meets the
  // ordinary recovery SLOs.
  EXPECT_TRUE(report.phases[0].ok());
  EXPECT_FALSE(report.phases[0].rebalance_checked);
  // Phase 2 closes the rebalance event and carries its verdict.
  EXPECT_TRUE(report.phases[1].ok());
  EXPECT_TRUE(report.phases[1].rebalance_checked);
  EXPECT_TRUE(report.phases[1].rebalance_ok);
  EXPECT_LE(report.phases[1].lb_epochs, 20u);
  EXPECT_LE(report.phases[1].lb_max_branching, 4u);

  const chaos::Campaign::LbSummary& lb = campaign.lb_summary();
  ASSERT_TRUE(lb.ran);
  EXPECT_TRUE(lb.converged);
  // Random ids at n=24 must have deployed genuinely unbalanced trees, or
  // the campaign proved nothing.
  EXPECT_GT(lb.initial_max_branching, 4u);
  EXPECT_LE(lb.final_max_branching, 4u);
  EXPECT_GT(lb.migrations + lb.sheds, 0u);

  // The campaign registry carries the dat_lb_* series.
  const obs::MetricsSnapshot snap = campaign.metrics().snapshot();
  EXPECT_GT(snap.value_or_zero("dat_lb_rounds_total"), 0.0);
}

TEST(RebalanceSkewCampaignTest, SameSeedProducesIdenticalEventLogs) {
  const auto run_once = [] {
    const chaos::ChaosPlan plan = chaos::ChaosPlan::rebalance_skew(7, 16);
    harness::ClusterOptions cluster_options;
    cluster_options.seed = plan.seed;
    cluster_options.dat.epoch_us = 200'000;
    cluster_options.node.probing_join = !plan.random_ids;
    harness::SimCluster cluster(plan.nodes, std::move(cluster_options));
    chaos::CampaignOptions options;
    options.quiesce_us = 1'500'000;
    options.rebalance.hot_aggregates = 2;
    chaos::Campaign campaign(cluster, plan, options);
    return campaign.run();
  };
  const chaos::CampaignReport first = run_once();
  const chaos::CampaignReport second = run_once();
  ASSERT_EQ(first.event_log.size(), second.event_log.size());
  for (std::size_t i = 0; i < first.event_log.size(); ++i) {
    EXPECT_EQ(first.event_log[i], second.event_log[i]) << "line " << i;
  }
}

TEST(RebalanceSkewCampaignTest, UdpClusterMeetsTheBranchingSlo) {
  const chaos::ChaosPlan plan = chaos::ChaosPlan::rebalance_skew(7, 10);

  harness::UdpClusterOptions cluster_options;
  cluster_options.seed = plan.seed;
  cluster_options.dat.epoch_us = 200'000;
  cluster_options.node.probing_join = !plan.random_ids;
  harness::UdpCluster cluster(plan.nodes, std::move(cluster_options));

  chaos::CampaignOptions options;
  options.quiesce_us = 1'500'000;
  options.rebalance.hot_aggregates = 2;
  options.rebalance.slo_max_branching = 4;
  options.rebalance.slo_max_epochs = 20;
  chaos::Campaign campaign(cluster, plan, options);
  const chaos::CampaignReport report = campaign.run();

  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << "violation: " << violation;
  }
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_TRUE(report.phases[0].ok());
  EXPECT_TRUE(report.phases[1].ok());
  EXPECT_TRUE(report.phases[1].rebalance_ok);
  EXPECT_LE(report.phases[1].lb_epochs, 20u);
  EXPECT_LE(report.phases[1].lb_max_branching, 4u);
}

TEST(RebalanceSkewCampaignTest, UdpClusterRejectsNetworkFaults) {
  harness::UdpClusterOptions cluster_options;
  cluster_options.seed = 8;
  harness::UdpCluster cluster(2, std::move(cluster_options));
  chaos::ChaosPlan plan;
  plan.nodes = 2;
  plan.partition(100'000, 1);
  plan.verify(200'000);
  EXPECT_THROW(chaos::Campaign(cluster, plan, chaos::CampaignOptions{}),
               std::invalid_argument);
}

}  // namespace
