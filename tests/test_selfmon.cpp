// Tests of the self-monitoring layer: log2-bucket quantile estimation, the
// histogram aggregate carrier, SLO rule parsing and hysteresis, the alert /
// fleet-view wire formats, crash postmortems, the selfmon chaos plans, and
// an end-to-end sim-cluster run where every node hosts a SelfMonitor and
// one node's cached meta-tree roots answer for the whole fleet.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/plan.hpp"
#include "dat/aggregate.hpp"
#include "harness/sim_cluster.hpp"
#include "net/codec.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/selfmon.hpp"

namespace {

using namespace dat;

// -- quantile estimation ------------------------------------------------------

TEST(QuantileTest, EmptyDistributionReadsZero) {
  const std::vector<std::uint64_t> empty;
  EXPECT_EQ(obs::quantile_from_buckets(empty, 0.5), 0.0);
  const std::vector<std::uint64_t> zeros(10, 0);
  EXPECT_EQ(obs::quantile_from_buckets(zeros, 0.99), 0.0);
}

TEST(QuantileTest, BucketZeroStaysWithinUnitInterval) {
  // All mass in bucket 0, which spans [0, 1].
  const std::vector<std::uint64_t> b{8};
  EXPECT_GE(obs::quantile_from_buckets(b, 0.0), 0.0);
  EXPECT_LE(obs::quantile_from_buckets(b, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(obs::quantile_from_buckets(b, 1.0), 1.0);
}

TEST(QuantileTest, InterpolatesLinearlyInsideOneBucket) {
  // Bucket 3 spans (4, 8]: ranks spread linearly across that interval.
  const std::vector<std::uint64_t> b{0, 0, 0, 10};
  const double lo = obs::quantile_from_buckets(b, 0.1);
  const double mid = obs::quantile_from_buckets(b, 0.5);
  const double hi = obs::quantile_from_buckets(b, 1.0);
  EXPECT_GT(lo, 4.0);
  EXPECT_LT(lo, mid);
  EXPECT_LT(mid, hi);
  EXPECT_DOUBLE_EQ(hi, 8.0);
  EXPECT_NEAR(mid, 6.0, 0.5);
}

TEST(QuantileTest, BoundaryBetweenAdjacentBuckets) {
  // Half the mass in (2, 4], half in (4, 8]: the median sits at the shared
  // boundary and p75 inside the upper bucket.
  const std::vector<std::uint64_t> b{0, 0, 5, 5};
  EXPECT_NEAR(obs::quantile_from_buckets(b, 0.5), 4.0, 0.5);
  EXPECT_GT(obs::quantile_from_buckets(b, 0.75), 4.0);
  EXPECT_LE(obs::quantile_from_buckets(b, 0.75), 8.0);
}

TEST(QuantileTest, OverflowBucketClampsToItsLowerBound) {
  std::vector<std::uint64_t> b(obs::Histogram::kBuckets, 0);
  b.back() = 3;
  const double q = obs::quantile_from_buckets(b, 0.99);
  EXPECT_DOUBLE_EQ(q, 9223372036854775808.0);  // 2^63
}

TEST(QuantileTest, HistogramQuantileBracketsTheObservedValue) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(100);
  // 100 lands in the (64, 128] bucket; every quantile must stay inside it.
  EXPECT_GT(h.quantile(0.5), 64.0);
  EXPECT_LE(h.quantile(0.5), 128.0);
  EXPECT_GT(h.quantile(0.99), h.quantile(0.01));
}

TEST(QuantileTest, SampleQuantileIsZeroForScalars) {
  obs::Sample s;
  s.value = 42.0;
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

// -- histogram aggregate carrier ----------------------------------------------

TEST(AggStateHistogramTest, KindSevenDecodesAsHistogram) {
  EXPECT_EQ(core::aggregate_kind_from(7), core::AggregateKind::kHistogram);
  EXPECT_STREQ(core::to_string(core::AggregateKind::kHistogram), "histogram");
  EXPECT_THROW((void)core::aggregate_kind_from(8), std::invalid_argument);
}

TEST(AggStateHistogramTest, MergeResizesAndAddsBucketwise) {
  core::AggState a = core::AggState::of_histogram({1, 2}, 10.0);
  const core::AggState b = core::AggState::of_histogram({0, 1, 4}, 30.0);
  a.merge(b);
  ASSERT_EQ(a.hist.size(), 3u);
  EXPECT_EQ(a.hist[0], 1u);
  EXPECT_EQ(a.hist[1], 3u);
  EXPECT_EQ(a.hist[2], 4u);
  EXPECT_EQ(a.count, 8u);  // 3 + 5 observations
  EXPECT_DOUBLE_EQ(a.sum, 40.0);
  // kHistogram's scalar result is the observation count.
  EXPECT_DOUBLE_EQ(a.result(core::AggregateKind::kHistogram), 8.0);
}

TEST(AggStateHistogramTest, WireRoundTripCarriesBuckets) {
  const core::AggState state = core::AggState::of_histogram({0, 7, 0, 9}, 55.5);
  net::Writer w;
  core::write_agg_state(w, state);
  net::Reader r(w.data());
  const core::AggState back = core::read_agg_state(r);
  EXPECT_EQ(back, state);
  EXPECT_GT(back.quantile(0.9), 0.0);
}

TEST(AggStateHistogramTest, ScalarStatesPayOneEmptyLengthPrefix) {
  net::Writer scalar;
  core::write_agg_state(scalar, core::AggState::of(3.0));
  net::Writer hist;
  core::write_agg_state(hist, core::AggState::of_histogram({1}, 1.0));
  EXPECT_LT(scalar.data().size(), hist.data().size());
  net::Reader r(scalar.data());
  EXPECT_TRUE(core::read_agg_state(r).hist.empty());
}

TEST(AggStateHistogramTest, DecodeRejectsOversizedBucketCount) {
  net::Writer w;
  w.f64(0.0);
  w.f64(0.0);
  w.u64(0);
  w.f64(0.0);
  w.f64(0.0);
  w.u32(static_cast<std::uint32_t>(obs::Histogram::kBuckets + 1));
  net::Reader r(w.data());
  EXPECT_THROW((void)core::read_agg_state(r), net::CodecError);

  core::AggState oversized;
  oversized.hist.assign(obs::Histogram::kBuckets + 1, 0);
  net::Writer out;
  EXPECT_THROW(core::write_agg_state(out, oversized), net::CodecError);
}

// -- SLO rules ----------------------------------------------------------------

TEST(SloRulesetTest, DefaultsCoverCoverageAndLatency) {
  const obs::SloRuleset rules = obs::SloRuleset::defaults();
  ASSERT_GE(rules.rules.size(), 2u);
  const obs::SloRule& coverage = rules.rules.front();
  EXPECT_EQ(coverage.name, "coverage");
  EXPECT_EQ(coverage.series, "nodes");
  EXPECT_TRUE(coverage.threshold_is_fleet);
  bool has_latency = false;
  for (const obs::SloRule& r : rules.rules) {
    if (r.series == "rpc.latency" && r.stat == obs::SloStat::kP99) {
      has_latency = true;
    }
  }
  EXPECT_TRUE(has_latency);
}

TEST(SloRulesetTest, ParseSpecRoundTrip) {
  const std::string spec =
      "# fleet health\n"
      "coverage nodes count == fleet fire 3 clear 1\n"
      "rss proc.rss max < 2000000000\n"
      "rpc-p99 rpc.latency p99 < 250000 fire 2 clear 4\n";
  const obs::SloRuleset rules = obs::SloRuleset::parse(spec);
  ASSERT_EQ(rules.rules.size(), 3u);
  EXPECT_EQ(rules.rules[0].fire_epochs, 3u);
  EXPECT_EQ(rules.rules[0].clear_epochs, 1u);
  EXPECT_TRUE(rules.rules[0].threshold_is_fleet);
  EXPECT_EQ(rules.rules[0].op, obs::SloOp::kEq);
  EXPECT_EQ(rules.rules[1].stat, obs::SloStat::kMax);
  EXPECT_DOUBLE_EQ(rules.rules[1].threshold, 2e9);
  EXPECT_EQ(rules.rules[2].clear_epochs, 4u);

  const obs::SloRuleset again = obs::SloRuleset::parse(rules.to_spec());
  ASSERT_EQ(again.rules.size(), rules.rules.size());
  EXPECT_EQ(again.to_spec(), rules.to_spec());
}

TEST(SloRulesetTest, ParseRejectsMalformedRules) {
  EXPECT_THROW((void)obs::SloRuleset::parse("only-a-name\n"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::SloRuleset::parse("r s p42 < 1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::SloRuleset::parse("r s count <> 1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::SloRuleset::parse("r s count < notanumber\n"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::SloRuleset::parse("r s count < 1 fire 0\n"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)obs::SloRuleset::parse("r s count < 1\nr t count > 2\n"),
      std::invalid_argument);
}

// -- wire formats -------------------------------------------------------------

TEST(SelfMonWireTest, AlertsRoundTrip) {
  std::vector<obs::Alert> alerts(2);
  alerts[0].rule = "coverage";
  alerts[0].series = "nodes";
  alerts[0].firing = true;
  alerts[0].value = 6.0;
  alerts[0].threshold = 8.0;
  alerts[0].since_us = 1'234'567;
  alerts[0].breaches = 5;
  alerts[1].rule = "rpc-p99";
  alerts[1].series = "rpc.latency";

  net::Writer w;
  obs::write_alerts(w, alerts);
  net::Reader r(w.data());
  const std::vector<obs::Alert> back = obs::read_alerts(r);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].rule, "coverage");
  EXPECT_TRUE(back[0].firing);
  EXPECT_DOUBLE_EQ(back[0].value, 6.0);
  EXPECT_DOUBLE_EQ(back[0].threshold, 8.0);
  EXPECT_EQ(back[0].since_us, 1'234'567u);
  EXPECT_EQ(back[0].breaches, 5u);
  EXPECT_FALSE(back[1].firing);
}

TEST(SelfMonWireTest, FleetViewRoundTrip) {
  obs::SelfMonitor::FleetView view;
  view.now_us = 99;
  view.fleet_size = 16;
  view.epoch_us = 500'000;
  obs::SelfMonitor::SeriesView nodes;
  nodes.name = "nodes";
  nodes.kind = core::AggregateKind::kSum;
  nodes.state = core::AggState::of(1.0);
  nodes.fetched_at_us = 42;
  obs::SelfMonitor::SeriesView latency;
  latency.name = "rpc.latency";
  latency.kind = core::AggregateKind::kHistogram;
  latency.state = core::AggState::of_histogram({0, 3, 9}, 30.0);
  view.series = {nodes, latency};
  obs::Alert alert;
  alert.rule = "coverage";
  view.alerts = {alert};

  net::Writer w;
  obs::write_fleet_view(w, view);
  net::Reader r(w.data());
  const obs::SelfMonitor::FleetView back = obs::read_fleet_view(r);
  EXPECT_EQ(back.now_us, 99u);
  EXPECT_EQ(back.fleet_size, 16u);
  EXPECT_EQ(back.epoch_us, 500'000u);
  ASSERT_EQ(back.series.size(), 2u);
  ASSERT_NE(back.find("rpc.latency"), nullptr);
  EXPECT_EQ(back.find("rpc.latency")->state.hist.size(), 3u);
  EXPECT_EQ(back.find("missing"), nullptr);
  ASSERT_EQ(back.alerts.size(), 1u);
  EXPECT_EQ(back.alerts[0].rule, "coverage");
}

// -- postmortems --------------------------------------------------------------

TEST(PostmortemTest, FileNameMatchesPid) {
  EXPECT_EQ(obs::postmortem_file_name(1234), "postmortem-1234.json");
}

TEST(PostmortemTest, InstallRequiresADirectory) {
  obs::Postmortem::Config config;
  config.directory.clear();
  EXPECT_FALSE(obs::Postmortem::install(config));
  EXPECT_FALSE(obs::Postmortem::installed());
}

TEST(PostmortemTest, WriteNowProducesParseableEnvelope) {
  obs::MetricsRegistry registry;
  registry.counter("dat_test_events_total").inc(7);
  obs::FlightRecorder recorder(/*id_seed=*/1);

  obs::Postmortem::Config config;
  config.directory = ::testing::TempDir();
  config.registry = &registry;
  config.recorder = &recorder;
  ASSERT_TRUE(obs::Postmortem::install(config));
  ASSERT_TRUE(obs::Postmortem::installed());
  const std::string path = obs::Postmortem::dump_path();
  EXPECT_NE(path.find("postmortem-"), std::string::npos);

  registry.counter("dat_test_events_total").inc(1);
  obs::Postmortem::refresh();
  ASSERT_TRUE(obs::Postmortem::write_now(SIGABRT));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const std::string dump = text.str();
  EXPECT_NE(dump.find("\"schema\":\"dat.postmortem.v1\""), std::string::npos);
  EXPECT_NE(dump.find("\"signal\":6"), std::string::npos);
  EXPECT_NE(dump.find("dat_test_events_total"), std::string::npos);

  obs::Postmortem::uninstall();
  EXPECT_FALSE(obs::Postmortem::installed());
  std::remove(path.c_str());
}

// -- selfmon chaos plans ------------------------------------------------------

TEST(SelfmonPlanTest, PureFunctionOfSeedAndSlotZeroSafe) {
  const chaos::ChaosPlan a = chaos::ChaosPlan::selfmon(7, 12);
  const chaos::ChaosPlan b = chaos::ChaosPlan::selfmon(7, 12);
  ASSERT_EQ(a.events.size(), b.events.size());
  std::size_t crashes = 0;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].describe(), b.events[i].describe());
    if (a.events[i].kind == chaos::FaultKind::kCrash) {
      EXPECT_NE(a.events[i].slot, 0u);  // slot 0 is the probe node
      ++crashes;
    }
  }
  EXPECT_EQ(crashes, 12u / 4);  // 25% kill wave
  EXPECT_EQ(a.phases(), 3u);    // baseline, firing, clear
  EXPECT_THROW((void)chaos::ChaosPlan::selfmon(1, 3), std::invalid_argument);
}

TEST(SelfmonPlanTest, ProcessVariantLeadsWithSigabrt) {
  const chaos::ChaosPlan plan = chaos::ChaosPlan::process_selfmon(9, 16);
  std::size_t sigabrts = 0;
  std::size_t sigkills = 0;
  bool first_fault_is_abort = false;
  bool seen_fault = false;
  for (const chaos::FaultEvent& e : plan.events) {
    if (e.kind == chaos::FaultKind::kSigabrt) {
      if (!seen_fault) first_fault_is_abort = true;
      seen_fault = true;
      EXPECT_NE(e.slot, 0u);
      ++sigabrts;
    } else if (e.kind == chaos::FaultKind::kSigkill) {
      seen_fault = true;
      EXPECT_NE(e.slot, 0u);
      ++sigkills;
    }
  }
  EXPECT_EQ(sigabrts, 1u);  // exactly one postmortem-producing crash
  EXPECT_TRUE(first_fault_is_abort);
  EXPECT_EQ(sigabrts + sigkills, 16u / 4);
  EXPECT_THROW((void)chaos::ChaosPlan::process_selfmon(1, 6),
               std::invalid_argument);

  // The sigabrt verb survives a spec round trip.
  const chaos::ChaosPlan back = chaos::ChaosPlan::parse(plan.to_spec());
  EXPECT_EQ(back.to_spec(), plan.to_spec());
  std::size_t reparsed_aborts = 0;
  for (const chaos::FaultEvent& e : back.events) {
    if (e.kind == chaos::FaultKind::kSigabrt) ++reparsed_aborts;
  }
  EXPECT_EQ(reparsed_aborts, 1u);
}

// -- end to end on the sim cluster -------------------------------------------

harness::ClusterOptions selfmon_cluster_options(std::uint64_t seed) {
  harness::ClusterOptions options;
  options.seed = seed;
  options.dat.epoch_us = 200'000;
  options.with_selfmon = true;
  options.selfmon.epoch_us = 400'000;
  return options;
}

TEST(SelfMonitorSimTest, OneNodeAnswersForTheWholeFleet) {
  constexpr std::size_t kNodes = 8;
  harness::SimCluster cluster(kNodes, selfmon_cluster_options(11));
  ASSERT_TRUE(cluster.wait_converged(600'000'000));
  cluster.run_for(4'000'000);  // ~10 telemetry epochs

  obs::SelfMonitor* monitor = cluster.selfmon(0);
  ASSERT_NE(monitor, nullptr);
  EXPECT_EQ(monitor->options().fleet_size, kNodes);  // auto-filled

  const obs::SelfMonitor::FleetView view = monitor->view();
  EXPECT_EQ(view.fleet_size, kNodes);

  // The coverage meta-tree counted every node from one node's cache.
  const auto* nodes = view.find("nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->state.count, kNodes);

  // Counter meta-trees aggregate one leaf per node.
  const auto* msgs = view.find("net.msgs");
  ASSERT_NE(msgs, nullptr);
  EXPECT_EQ(msgs->state.count, kNodes);
  EXPECT_GT(msgs->state.sum, 0.0);

  // The latency histogram merged bucket-wise across the fleet.
  const auto* latency = view.find("rpc.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->kind, core::AggregateKind::kHistogram);
  EXPECT_GT(latency->state.count, 0u);
  EXPECT_GT(latency->state.quantile(0.99), 0.0);

  // Full fleet up: the coverage alert is clear, and alerts() mirrors the
  // rule list.
  EXPECT_FALSE(monitor->alert_firing("coverage"));
  const std::vector<obs::Alert> alerts = monitor->alerts();
  ASSERT_FALSE(alerts.empty());
  EXPECT_EQ(alerts.front().rule, "coverage");
  EXPECT_DOUBLE_EQ(alerts.front().threshold, static_cast<double>(kNodes));
}

TEST(SelfMonitorSimTest, FleetViewMatchesScrapeEveryoneGroundTruth) {
  constexpr std::size_t kNodes = 6;
  harness::SimCluster cluster(kNodes, selfmon_cluster_options(23));
  ASSERT_TRUE(cluster.wait_converged(600'000'000));
  cluster.run_for(4'000'000);

  obs::SelfMonitor* monitor = cluster.selfmon(0);
  ASSERT_NE(monitor, nullptr);
  const obs::SelfMonitor::FleetView view = monitor->view();
  const auto* msgs = view.find("net.msgs");
  ASSERT_NE(msgs, nullptr);

  // Ground truth: scrape every node's registry directly. The meta-tree
  // answer lags the live counters by at most ~one epoch of traffic, so the
  // one-node answer must land within the ground truth sampled one epoch
  // before and after the view.
  double scraped = 0.0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const obs::MetricsSnapshot snap =
        cluster.node(i).telemetry().registry.snapshot();
    scraped += snap.value_or_zero("dat_net_messages_sent_total");
  }
  EXPECT_GT(msgs->state.sum, 0.0);
  EXPECT_LE(msgs->state.sum, scraped);  // never ahead of the live counters
  // ... and not more than two epochs stale.
  cluster.run_for(2 * monitor->options().epoch_us);
  const obs::SelfMonitor::FleetView later = monitor->view();
  const auto* fresher = later.find("net.msgs");
  ASSERT_NE(fresher, nullptr);
  EXPECT_GT(fresher->state.sum, msgs->state.sum * 0.5);
}

TEST(SelfMonitorSimTest, CoverageAlertFiresWhenNodesCrash) {
  constexpr std::size_t kNodes = 8;
  harness::SimCluster cluster(kNodes, selfmon_cluster_options(31));
  ASSERT_TRUE(cluster.wait_converged(600'000'000));
  cluster.run_for(4'000'000);
  obs::SelfMonitor* monitor = cluster.selfmon(0);
  ASSERT_NE(monitor, nullptr);
  ASSERT_FALSE(monitor->alert_firing("coverage"));

  cluster.remove_node(3, /*graceful=*/false);
  cluster.remove_node(5, /*graceful=*/false);
  cluster.refresh_d0_hints();

  // Dead leaves age out of the meta-trees; the rule needs two consecutive
  // breach epochs before it fires (hysteresis).
  bool fired = false;
  for (int epoch = 0; epoch < 40 && !fired; ++epoch) {
    cluster.run_for(monitor->options().epoch_us);
    fired = monitor->alert_firing("coverage");
  }
  EXPECT_TRUE(fired);
  const std::vector<obs::Alert> alerts = monitor->alerts();
  ASSERT_FALSE(alerts.empty());
  EXPECT_TRUE(alerts.front().firing);
  EXPECT_LT(alerts.front().value, static_cast<double>(kNodes));
  EXPECT_GT(alerts.front().breaches, 0u);
}

TEST(SelfMonitorSimTest, OneRulesetWatchesSelfmonSeriesAndApplicationTrees) {
  constexpr std::size_t kNodes = 8;
  harness::ClusterOptions options = selfmon_cluster_options(41);
  options.selfmon.rules = obs::SloRuleset::parse(
      "coverage nodes count == fleet\n"
      "hot load avg < 90 fire 1 clear 2\n");
  harness::SimCluster cluster(kNodes, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(600'000'000));
  double load = 50.0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    cluster.dat(i).start_aggregate("load", core::AggregateKind::kAvg,
                                   chord::RoutingScheme::kBalanced,
                                   [&load] { return load; });
  }
  cluster.run_for(4'000'000);

  obs::SelfMonitor* monitor = cluster.selfmon(0);
  ASSERT_NE(monitor, nullptr);
  const std::vector<obs::Alert> alerts = monitor->alerts();
  ASSERT_EQ(alerts.size(), 2u);
  // The selfmon-series rule reads its meta-tree...
  EXPECT_DOUBLE_EQ(alerts[0].value, static_cast<double>(kNodes));
  EXPECT_FALSE(alerts[0].firing);
  // ... and the application-tree rule reads the watched "load" root.
  EXPECT_EQ(alerts[1].series, "load");
  EXPECT_DOUBLE_EQ(alerts[1].value, 50.0);
  EXPECT_FALSE(alerts[1].firing);
  // The watched tree is not a published series: the fleet view is as
  // before.
  const obs::SelfMonitor::FleetView view = monitor->view();
  EXPECT_EQ(view.find("load"), nullptr);
  EXPECT_EQ(view.series.size(), obs::SelfMonitor::default_series().size());

  load = 95.0;
  bool fired = false;
  for (int epoch = 0; epoch < 20 && !fired; ++epoch) {
    cluster.run_for(monitor->options().epoch_us);
    fired = monitor->alert_firing("hot");
  }
  EXPECT_TRUE(fired);
  EXPECT_FALSE(monitor->alert_firing("coverage"));
}

TEST(SelfMonitorSimTest, OneRootReadingCountsOnceAcrossTelemetryEpochs) {
  // Telemetry polls four times per DAT epoch, so the root's cached view is
  // re-read several times; hysteresis must count the root reading once. A
  // single leaf spike reaches the root in one epoch and cannot fire a
  // "fire 2" rule.
  constexpr std::size_t kNodes = 12;
  harness::ClusterOptions options;
  options.seed = 5;
  options.dat.epoch_us = 400'000;
  options.with_selfmon = true;
  options.selfmon.epoch_us = 100'000;
  options.selfmon.rules =
      obs::SloRuleset::parse("hot load max < 90 fire 2 clear 2\n");
  std::size_t spiking = kNodes;  // the slot whose next push reports 95
  harness::SimCluster cluster(kNodes, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(600'000'000));
  Id key = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    key = cluster.dat(i).start_aggregate(
        "load", core::AggregateKind::kMax, chord::RoutingScheme::kBalanced,
        [&spiking, i] {
          if (spiking != i) return 50.0;
          spiking = kNodes;
          return 95.0;
        });
  }
  cluster.run_for(6'000'000);
  obs::SelfMonitor* monitor = cluster.selfmon(0);
  ASSERT_NE(monitor, nullptr);
  ASSERT_EQ(monitor->alerts().size(), 1u);
  EXPECT_DOUBLE_EQ(monitor->alerts().front().value, 50.0);
  EXPECT_EQ(monitor->alerts().front().breaches, 0u);

  // Spike one tree leaf for one push.
  for (std::size_t i = 0; i < kNodes && spiking == kNodes; ++i) {
    if (cluster.dat(i).child_count(key) == 0 && !cluster.dat(i).latest(key)) {
      spiking = i;
    }
  }
  ASSERT_LT(spiking, kNodes);
  bool fired = false;
  for (int epoch = 0; epoch < 40; ++epoch) {
    cluster.run_for(monitor->options().epoch_us);
    fired = fired || monitor->alert_firing("hot");
  }
  EXPECT_EQ(spiking, kNodes) << "the leaf never pushed its spike";
  EXPECT_FALSE(fired);
  EXPECT_EQ(monitor->alerts().front().breaches, 1u);
}

TEST(SelfmonCampaignTest, AlertFiresDuringKillWaveAndClearsAfterRecovery) {
  const chaos::ChaosPlan plan = chaos::ChaosPlan::selfmon(7, 8);
  harness::SimCluster cluster(plan.nodes, selfmon_cluster_options(plan.seed));
  chaos::CampaignOptions options;
  options.quiesce_us = 1'500'000;
  options.check_selfmon = true;
  options.selfmon_max_epochs = 30;
  chaos::Campaign campaign(cluster, plan, options);
  const chaos::CampaignReport report = campaign.run();

  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << "violation: " << violation;
  }
  ASSERT_EQ(report.phases.size(), 3u);
  for (const chaos::PhaseReport& phase : report.phases) {
    EXPECT_TRUE(phase.selfmon_checked);
    EXPECT_TRUE(phase.selfmon_ok) << "phase " << phase.phase;
  }
  EXPECT_FALSE(report.phases[0].selfmon_firing);  // baseline: all up
  EXPECT_TRUE(report.phases[1].selfmon_firing);   // kill wave: alert fires
  EXPECT_FALSE(report.phases[2].selfmon_firing);  // recovered: alert clears
  EXPECT_TRUE(report.ok());
}

}  // namespace
