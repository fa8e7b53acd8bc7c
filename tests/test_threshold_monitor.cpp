// Threshold alerting on an application aggregate (the diagnostics consumer
// of the paper's Sec. 2.1): an obs::SelfMonitor SLO rule watches the root
// of a plain "load" tree that every node feeds, with epoch-count
// hysteresis (fire after `fire` breaching epochs, clear after `clear` OK
// epochs).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/sim_cluster.hpp"
#include "obs/selfmon.hpp"

namespace {

using namespace dat;

class ThresholdMonitorTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 12;
  static constexpr std::uint64_t kEpochUs = 300'000;

  ThresholdMonitorTest() {
    harness::ClusterOptions options;
    options.seed = 7007;
    options.dat.epoch_us = 200'000;
    cluster_ = std::make_unique<harness::SimCluster>(kNodes, std::move(options));
    converged_ = cluster_->wait_converged(300'000'000);
    if (!converged_) return;
    // Every node reports the shared controllable load value.
    for (std::size_t i = 0; i < kNodes; ++i) {
      cluster_->dat(i).start_aggregate("load", core::AggregateKind::kAvg,
                                       chord::RoutingScheme::kBalanced,
                                       [this]() { return load_; });
    }
    cluster_->run_for(4'000'000);
  }

  /// A SelfMonitor on `slot` evaluating the given rule text.
  std::unique_ptr<obs::SelfMonitor> watch(std::size_t slot,
                                          const std::string& rules) {
    obs::SelfMonitorOptions options;
    options.epoch_us = kEpochUs;
    options.rules = obs::SloRuleset::parse(rules);
    return std::make_unique<obs::SelfMonitor>(cluster_->dat(slot),
                                              std::move(options));
  }

  /// Runs for `duration_us`, polling `rule` once per telemetry epoch, and
  /// returns how many times its alert went from clear to firing.
  int run_counting(const obs::SelfMonitor& monitor, const std::string& rule,
                   std::uint64_t duration_us) {
    int fired = 0;
    for (std::uint64_t t = 0; t < duration_us; t += kEpochUs) {
      const bool before = monitor.alert_firing(rule);
      cluster_->run_for(kEpochUs);
      if (!before && monitor.alert_firing(rule)) ++fired;
    }
    return fired;
  }

  [[nodiscard]] double queries(std::size_t slot) const {
    return cluster_->node(slot).telemetry().registry.snapshot().value_or_zero(
        "dat_selfmon_queries_total");
  }

  std::unique_ptr<harness::SimCluster> cluster_;
  double load_ = 50.0;
  bool converged_ = false;
};

TEST_F(ThresholdMonitorTest, FiresOncePerExcursionWithHysteresis) {
  ASSERT_TRUE(converged_);
  const auto monitor = watch(2, "hot load avg < 90 fire 1 clear 2\n");
  int alerts = run_counting(*monitor, "hot", 3'000'000);
  EXPECT_EQ(alerts, 0);  // load 50 < 90
  EXPECT_FALSE(monitor->alert_firing("hot"));
  EXPECT_DOUBLE_EQ(monitor->alerts().front().value, 50.0);

  load_ = 95.0;  // spike
  alerts += run_counting(*monitor, "hot", 6'000'000);
  EXPECT_EQ(alerts, 1);
  EXPECT_DOUBLE_EQ(monitor->alerts().front().value, 95.0);
  EXPECT_TRUE(monitor->alert_firing("hot"));

  // Back under the threshold the alert clears after two OK epochs, and
  // does not re-fire.
  load_ = 85.0;
  alerts += run_counting(*monitor, "hot", 6'000'000);
  EXPECT_EQ(alerts, 1);
  EXPECT_FALSE(monitor->alert_firing("hot"));

  // Full recovery stays clear; the next spike fires again.
  load_ = 60.0;
  alerts += run_counting(*monitor, "hot", 6'000'000);
  EXPECT_FALSE(monitor->alert_firing("hot"));
  load_ = 99.0;
  alerts += run_counting(*monitor, "hot", 6'000'000);
  EXPECT_EQ(alerts, 2);
  EXPECT_TRUE(monitor->alert_firing("hot"));
}

TEST_F(ThresholdMonitorTest, BelowDirection) {
  ASSERT_TRUE(converged_);
  const auto monitor = watch(5, "cold load avg > 20 fire 1 clear 2\n");
  EXPECT_EQ(run_counting(*monitor, "cold", 3'000'000), 0);
  load_ = 10.0;  // dip below
  EXPECT_EQ(run_counting(*monitor, "cold", 6'000'000), 1);
}

TEST_F(ThresholdMonitorTest, StopHaltsPolling) {
  ASSERT_TRUE(converged_);
  auto monitor = watch(1, "hot load avg < 90 fire 1 clear 2\n");
  cluster_->run_for(2'000'000);
  const double polled = queries(1);
  EXPECT_GT(polled, 0.0);
  monitor.reset();
  load_ = 100.0;
  cluster_->run_for(6'000'000);
  EXPECT_EQ(queries(1), polled);  // destroyed before the spike
  // A new monitor picks it up.
  monitor = watch(1, "hot load avg < 90 fire 1 clear 2\n");
  EXPECT_EQ(run_counting(*monitor, "hot", 4'000'000), 1);
}

TEST_F(ThresholdMonitorTest, Validation) {
  ASSERT_TRUE(converged_);
  // An application tree's aggregate kind is unknown to the monitor, so a
  // rule cannot read its `value`.
  EXPECT_THROW((void)watch(0, "hot load value < 90\n"), std::invalid_argument);
  // A published selfmon series knows its kind.
  EXPECT_NO_THROW((void)watch(0, "up nodes value >= 1\n"));
}

}  // namespace
