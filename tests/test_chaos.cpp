// Chaos campaigns: scripted fault timelines, deterministic execution, and
// recovery-SLO verification.

#include "chaos/campaign.hpp"
#include "chaos/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "harness/sim_cluster.hpp"

namespace {

using namespace dat;
using namespace dat::chaos;

TEST(ChaosPlanTest, BuildersAndPhaseCount) {
  ChaosPlan plan;
  plan.crash(2'000'000, 3)
      .verify(4'000'000)
      .restart(5'000'000, 3)
      .verify(7'000'000)
      .loss_burst(1'000'000, 0.2, 500'000);
  EXPECT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.phases(), 2u);
  plan.sort_events();
  EXPECT_EQ(plan.events.front().kind, FaultKind::kLossBurst);
  EXPECT_EQ(plan.events.back().kind, FaultKind::kVerify);
}

TEST(ChaosPlanTest, SpecRoundTrip) {
  const ChaosPlan plan = ChaosPlan::canonical(7, 16);
  const ChaosPlan reparsed = ChaosPlan::parse(plan.to_spec());
  EXPECT_EQ(reparsed.seed, plan.seed);
  EXPECT_EQ(reparsed.nodes, plan.nodes);
  ASSERT_EQ(reparsed.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].at_us, plan.events[i].at_us);
    EXPECT_EQ(reparsed.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(reparsed.events[i].slot, plan.events[i].slot);
    EXPECT_DOUBLE_EQ(reparsed.events[i].magnitude, plan.events[i].magnitude);
    EXPECT_EQ(reparsed.events[i].duration_us, plan.events[i].duration_us);
  }
}

TEST(ChaosPlanTest, ParseAcceptsCommentsAndHeaders) {
  const ChaosPlan plan = ChaosPlan::parse(
      "# a commented plan\n"
      "seed 99\n"
      "nodes 8\n"
      "\n"
      "1000 crash 2\n"
      "2000 loss 0.25 500\n"
      "3000 latency 4.0 250\n"
      "4000 verify\n");
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_EQ(plan.nodes, 8u);
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].at_us, 1'000'000u);
  EXPECT_EQ(plan.events[1].magnitude, 0.25);
  EXPECT_EQ(plan.events[1].duration_us, 500'000u);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kVerify);
}

TEST(ChaosPlanTest, ParseRejectsGarbage) {
  EXPECT_THROW(ChaosPlan::parse("frobnicate 3"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 crash"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 sabotage 2"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 loss 0.5"), std::invalid_argument);
}

TEST(ChaosPlanTest, ParseRejectsMalformedPhaseLines) {
  // Header lines with missing or non-numeric operands.
  EXPECT_THROW(ChaosPlan::parse("seed banana\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("seed\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes eight\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes 0\n"), std::invalid_argument);
  // Event lines with bad timestamps, verbs, or magnitudes.
  EXPECT_THROW(ChaosPlan::parse("soon crash 1\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("1000 loss lots 500\n"),
               std::invalid_argument);
  // Assignment mode must be one of the two known spellings.
  EXPECT_THROW(ChaosPlan::parse("assign\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("assign chaotic\n"), std::invalid_argument);
}

TEST(ChaosPlanTest, ParseRejectsDuplicateHeaderLines) {
  EXPECT_THROW(ChaosPlan::parse("seed 1\nseed 2\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes 8\nnodes 9\n"), std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("assign random\nassign probed\n"),
               std::invalid_argument);
  // One of each is fine, in any order relative to events.
  const ChaosPlan plan =
      ChaosPlan::parse("assign random\nseed 3\nnodes 8\n1000 verify\n");
  EXPECT_TRUE(plan.random_ids);
  EXPECT_EQ(plan.seed, 3u);
}

TEST(ChaosPlanTest, ParseRejectsOutOfRangeVictims) {
  // Slot == node count is one past the last valid victim.
  EXPECT_THROW(ChaosPlan::parse("nodes 8\n1000 crash 8\n"),
               std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes 8\n1000 leave 12\n"),
               std::invalid_argument);
  EXPECT_THROW(ChaosPlan::parse("nodes 8\n1000 partition 9 500\n"),
               std::invalid_argument);
  // The check runs after the whole spec is read, so a late nodes line
  // still bounds earlier events.
  EXPECT_THROW(ChaosPlan::parse("1000 crash 8\nnodes 8\n"),
               std::invalid_argument);
  // The last valid slot is accepted.
  const ChaosPlan plan = ChaosPlan::parse("nodes 8\n1000 crash 7\n");
  EXPECT_EQ(plan.events.at(0).slot, 7u);
}

TEST(ChaosPlanTest, RebalanceSkewRoundTripsAndValidates) {
  const ChaosPlan plan = ChaosPlan::rebalance_skew(7, 24);
  EXPECT_TRUE(plan.random_ids);
  EXPECT_EQ(plan.phases(), 2u);
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kRebalance);

  // The spec round-trips byte-identically, including the assign line.
  const std::string spec = plan.to_spec();
  const ChaosPlan reparsed = ChaosPlan::parse(spec);
  EXPECT_EQ(reparsed.to_spec(), spec);
  EXPECT_TRUE(reparsed.random_ids);

  // Legacy plans without an assign line keep round-tripping without one.
  const std::string legacy = ChaosPlan::canonical(7, 16).to_spec();
  EXPECT_EQ(legacy.find("assign"), std::string::npos);
  EXPECT_EQ(ChaosPlan::parse(legacy).to_spec(), legacy);

  // Too small to host the skewed workload.
  EXPECT_THROW(ChaosPlan::rebalance_skew(1, 4), std::invalid_argument);
}

TEST(ChaosPlanTest, CanonicalIsAPureFunctionOfSeed) {
  const ChaosPlan a = ChaosPlan::canonical(7, 16);
  const ChaosPlan b = ChaosPlan::canonical(7, 16);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].describe(), b.events[i].describe());
  }
  EXPECT_GE(a.phases(), 5u);  // crash, leave, loss, partition+heal, latency
  EXPECT_THROW(ChaosPlan::canonical(1, 2), std::invalid_argument);
}

CampaignReport run_canonical_campaign(std::uint64_t seed, std::size_t nodes) {
  harness::ClusterOptions options;
  options.seed = seed;
  options.dat.epoch_us = 200'000;
  harness::SimCluster cluster(nodes, std::move(options));
  CampaignOptions campaign_options;
  campaign_options.quiesce_us = 1'500'000;
  Campaign campaign(cluster, ChaosPlan::canonical(seed, nodes),
                    campaign_options);
  return campaign.run();
}

TEST(ChaosCampaignTest, CanonicalPlanMeetsRecoverySlos) {
  const CampaignReport report = run_canonical_campaign(7, 10);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << "violation: " << violation;
  }
  ASSERT_EQ(report.phases.size(), ChaosPlan::canonical(7, 10).phases());
  for (const PhaseReport& phase : report.phases) {
    EXPECT_TRUE(phase.ok()) << "phase " << phase.phase << " failed: expected "
                            << phase.expected_coverage << ", observed "
                            << phase.observed_coverage;
    EXPECT_LE(phase.epochs_to_recover, 10u);
    EXPECT_GE(phase.roots_answered, 1u);
  }
  // The RPC layer was actually exercised, including retries.
  EXPECT_GT(report.phases.back().rpc.calls, 0u);
}

TEST(ChaosCampaignTest, SameSeedProducesIdenticalEventLogs) {
  const CampaignReport first = run_canonical_campaign(7, 10);
  const CampaignReport second = run_canonical_campaign(7, 10);
  ASSERT_EQ(first.event_log.size(), second.event_log.size());
  for (std::size_t i = 0; i < first.event_log.size(); ++i) {
    EXPECT_EQ(first.event_log[i], second.event_log[i]) << "line " << i;
  }
}

TEST(ChaosCampaignTest, ScriptedPlanRunsCrashRestartCycle) {
  harness::ClusterOptions options;
  options.seed = 5;
  options.dat.epoch_us = 200'000;
  harness::SimCluster cluster(8, std::move(options));
  const ChaosPlan plan = ChaosPlan::parse(
      "seed 5\n"
      "nodes 8\n"
      "1000 crash 4\n"
      "3000 verify\n"
      "4000 restart 4\n"
      "6000 verify\n");
  CampaignOptions campaign_options;
  campaign_options.quiesce_us = 1'500'000;
  Campaign campaign(cluster, plan, campaign_options);
  const CampaignReport report = campaign.run();
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.phases[0].expected_coverage, 7u);
  EXPECT_EQ(report.phases[1].expected_coverage, 8u);
  // Coverage is a lower-bound SLO: soft-state re-parenting can transiently
  // double-count a subtree until the stale child entry ages out of its TTL.
  EXPECT_GE(report.phases[1].observed_coverage, 8u);
  EXPECT_TRUE(cluster.is_live(4));

  // A campaign object runs once.
  EXPECT_THROW(campaign.run(), std::logic_error);
}

TEST(ChaosCampaignTest, RejectsZeroReplicas) {
  harness::ClusterOptions options;
  options.seed = 5;
  harness::SimCluster cluster(4, std::move(options));
  CampaignOptions campaign_options;
  campaign_options.replicas = 0;
  EXPECT_THROW(Campaign(cluster, ChaosPlan::canonical(5, 4), campaign_options),
               std::invalid_argument);
}

// ---------------------------------------------------- plan validation ----

/// A Campaign on a fresh 8-node sim cluster: plan checks run in the
/// constructor, before any fault touches the fleet.
void construct_on_sim(const ChaosPlan& plan) {
  harness::ClusterOptions options;
  options.seed = 3;
  harness::SimCluster cluster(8, std::move(options));
  Campaign campaign(cluster, plan, CampaignOptions{});
}

TEST(ChaosPlanValidationTest, RejectsAFaultOnASlotThatIsAlreadyDown) {
  for (const char* verb :
       {"crash", "leave", "sigkill", "sigterm", "sigabrt", "partition"}) {
    const ChaosPlan plan = ChaosPlan::parse(
        std::string("nodes 8\n1000 crash 3\n2000 ") + verb + " 3\n");
    EXPECT_THROW(construct_on_sim(plan), std::invalid_argument) << verb;
  }
  // A slot the fleet never had is down from the start.
  EXPECT_THROW(construct_on_sim(ChaosPlan::parse("nodes 9\n1000 crash 8\n")),
               std::invalid_argument);
}

TEST(ChaosPlanValidationTest, RejectsARestartOfALiveSlot) {
  EXPECT_THROW(construct_on_sim(ChaosPlan::parse("nodes 8\n1000 restart 3\n")),
               std::invalid_argument);
}

TEST(ChaosPlanValidationTest, RejectsAHealOfAnUnpartitionedSlot) {
  EXPECT_THROW(construct_on_sim(ChaosPlan::parse("nodes 8\n1000 heal 3\n")),
               std::invalid_argument);
}

TEST(ChaosPlanValidationTest, RejectsAVerifyWithNoReachableLiveSlot) {
  ChaosPlan plan;
  plan.nodes = 8;
  for (std::size_t slot = 0; slot < 7; ++slot) plan.crash(1'000'000, slot);
  plan.partition(1'500'000, 7);
  plan.verify(2'000'000);
  EXPECT_THROW(construct_on_sim(plan), std::invalid_argument);
}

TEST(ChaosPlanValidationTest, RejectsARebalanceWithNoReachableLiveSlot) {
  ChaosPlan plan;
  plan.nodes = 8;
  for (std::size_t slot = 0; slot < 8; ++slot) plan.sigkill(1'000'000, slot);
  plan.rebalance(2'000'000);
  EXPECT_THROW(construct_on_sim(plan), std::invalid_argument);
}

TEST(ChaosPlanValidationTest, BuiltInPlansPassForSeedsOneToTwenty) {
  harness::ClusterOptions options;
  options.seed = 3;
  harness::SimCluster cluster(16, std::move(options));
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const ChaosPlan& plan :
         {ChaosPlan::canonical(seed, 16), ChaosPlan::rebalance_skew(seed, 16),
          ChaosPlan::selfmon(seed, 16), ChaosPlan::process_canonical(seed, 16),
          ChaosPlan::process_selfmon(seed, 16)}) {
      EXPECT_NO_THROW(Campaign(cluster, plan, CampaignOptions{}))
          << "seed " << seed << "\n" << plan.to_spec();
    }
  }
}

TEST(ChaosPlanValidationTest, ReportPrinterMatchesTheVerdict) {
  CampaignReport report;
  PhaseReport phase;
  phase.phase = 1;
  phase.rebalance_checked = true;
  phase.selfmon_checked = true;
  report.phases.push_back(phase);  // nothing ok: a failed phase
  report.violations.push_back("phase 1: coverage short");
  Campaign::LbSummary lb;
  lb.ran = true;
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(print_report(report, lb, sink, sink), 1);
  report.interrupted = true;
  EXPECT_EQ(print_report(report, lb, sink, sink), 130);
  std::rewind(sink);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), sink));
  std::fclose(sink);
  EXPECT_NE(text.find("violation: phase 1: coverage short"), std::string::npos);
  EXPECT_NE(text.find("did NOT converge"), std::string::npos);
  EXPECT_NE(text.find("campaign FAILED: 0/1 phases ok"), std::string::npos);
  EXPECT_NE(text.find("campaign INTERRUPTED"), std::string::npos);
}

// ---------------------------------------------- scripted wall-clock target --

/// A four-slot target on a virtual clock that stands in for a process
/// fleet: its ring converges at `ring_ok_at_us`, its one replica root counts
/// the live slots exactly, and its restarts fail when `restart_fails`.
class ScriptedTarget final : public Target {
 public:
  std::uint64_t window_us = 0;
  std::uint64_t ring_ok_at_us = 0;
  bool restart_fails = false;
  unsigned ring_reads = 0;

  std::size_t slot_count() const override { return live_.size(); }
  bool is_live(std::size_t slot) const override { return live_[slot]; }
  std::uint64_t now_us() const override { return now_us_; }
  void run_for(std::uint64_t us) override { now_us_ += us; }
  std::uint64_t epoch_us() override { return 100'000; }
  bool exact_aggregates() const override { return true; }
  std::uint64_t verify_window_us() const override { return window_us; }
  std::vector<Id> start_replicas(const std::string&, unsigned,
                                 core::AggregateKind, chord::RoutingScheme,
                                 std::uint64_t) override {
    return {42};
  }
  void apply(const FaultEvent& event, const Journal& journal) override {
    if (event.kind == FaultKind::kRestart && restart_fails) {
      journal.violation("restart failed for slot " +
                        std::to_string(event.slot));
      return;
    }
    live_[event.slot] = event.kind == FaultKind::kRestart;
  }
  void check_structure() override {}
  std::string await_converged(std::uint64_t budget_us) override {
    ++ring_reads;
    if (now_us_ < ring_ok_at_us) {
      run_for(std::min(budget_us, ring_ok_at_us - now_us_));
    }
    return now_us_ >= ring_ok_at_us ? "" : "ring: not one cycle yet";
  }
  std::vector<std::vector<RootAnswer>> probe_roots(
      const std::vector<Id>& keys) override {
    RootAnswer root{0, 0.0, true};
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (!live_[i]) continue;
      ++root.count;
      root.sum += slot_value(i);
    }
    return std::vector<std::vector<RootAnswer>>(keys.size(), {root});
  }
  std::optional<AlertReading> coverage_alert() override { return {}; }
  std::optional<std::size_t> max_branching(const std::vector<Id>&) override {
    return {};
  }
  RebalanceRound rebalance_round(const std::vector<Id>&,
                                 obs::MetricsRegistry&) override {
    return {};
  }

 private:
  std::vector<bool> live_ = std::vector<bool>(4, true);
  std::uint64_t now_us_ = 0;
};

CampaignOptions no_quiesce() {
  CampaignOptions options;
  options.quiesce_us = 0;
  return options;
}

TEST(ChaosWindowTest, EveryCheckIsReReadUntilTheyHoldInOnePass) {
  ScriptedTarget target;
  target.window_us = 5'000'000;
  target.ring_ok_at_us = 2'000'000;
  ChaosPlan plan;
  plan.nodes = 4;
  plan.verify(0);
  Campaign campaign(target, plan, no_quiesce());
  const CampaignReport report = campaign.run();
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_TRUE(report.ok());
  // No check waits alone: one pass per 100 ms push epoch until the ring
  // holds at 2 s, each pass re-reading the ring.
  EXPECT_EQ(report.phases[0].epochs_to_recover, 20u);
  EXPECT_EQ(target.ring_reads, 21u);
  EXPECT_EQ(report.phases[0].observed_coverage, 4u);
}

TEST(ChaosWindowTest, APhaseFailsWhenItsWindowCloses) {
  ScriptedTarget target;
  target.window_us = 5'000'000;
  target.ring_ok_at_us = 60'000'000;  // beyond the 30 s converge budget too
  ChaosPlan plan;
  plan.nodes = 4;
  plan.verify(0);
  Campaign campaign(target, plan, no_quiesce());
  const CampaignReport report = campaign.run();
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_FALSE(report.phases[0].ok());
  EXPECT_FALSE(report.phases[0].ring_converged);
  EXPECT_LE(target.now_us(), 5'000'000u);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("ring: not one cycle yet"),
            std::string::npos);
}

TEST(ChaosWindowTest, AFaultStrandedByAFailedRestartIsAViolation) {
  ScriptedTarget target;
  target.restart_fails = true;
  ChaosPlan plan;
  plan.nodes = 4;
  plan.sigkill(0, 1);
  plan.restart(1'000'000, 1);
  plan.sigkill(2'000'000, 1);  // its slot never came back
  plan.verify(3'000'000);
  Campaign campaign(target, plan, no_quiesce());
  CampaignReport report;
  ASSERT_NO_THROW(report = campaign.run());
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_TRUE(report.phases[0].ok());  // 3 live slots, counted exactly
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_EQ(report.violations[0], "restart failed for slot 1");
  EXPECT_NE(report.violations[1].find("sigkill slot=1 skipped"),
            std::string::npos);
}

}  // namespace
