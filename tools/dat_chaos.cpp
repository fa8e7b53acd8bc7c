// dat_chaos: deterministic chaos campaigns against a simulated DAT cluster.
//
// Runs a scripted fault timeline (crash, graceful leave, restart/rejoin,
// loss bursts, latency spikes, partition/heal, rebalance) through
// chaos::Campaign against a SimCluster and verifies recovery after every
// quiescent window: structural invariants, coverage re-convergence within a
// bounded number of epochs, replica query availability, and the rebalance
// and self-monitoring SLOs when the plan asks for them. The Campaign takes
// any harness::Fleet; the test suite runs the rebalance-skew plan on a
// UdpCluster through the same code. Everything is seeded, so two runs with
// the same seed produce bit-identical event logs — which the CI soak job
// asserts for the canonical, rebalance-skew and selfmon campaigns.
//
//   dat_chaos --nodes 16 --seed 7 --print-events
//   dat_chaos --plan myplan.txt --replicas 3
//   dat_chaos --campaign rebalance-skew --nodes 24 --seed 7
//   dat_chaos --campaign selfmon --nodes 16 --seed 7

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/campaign.hpp"
#include "chaos/plan.hpp"
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "datd/signals.hpp"
#include "harness/sim_cluster.hpp"
#include "obs/export.hpp"

namespace {

int run_campaign(const dat::CliFlags& flags) {
  using namespace dat;

  chaos::ChaosPlan plan;
  const std::string plan_path = flags.get_string("plan");
  const std::string campaign_name = flags.get_string("campaign");
  if (!plan_path.empty()) {
    std::ifstream in(plan_path);
    if (!in) {
      std::fprintf(stderr, "dat_chaos: cannot open plan file %s\n",
                   plan_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    plan = chaos::ChaosPlan::parse(text.str());
  } else if (campaign_name == "canonical") {
    plan = chaos::ChaosPlan::canonical(
        static_cast<std::uint64_t>(flags.get_int("seed")),
        static_cast<std::size_t>(flags.get_int("nodes")));
  } else if (campaign_name == "rebalance-skew") {
    plan = chaos::ChaosPlan::rebalance_skew(
        static_cast<std::uint64_t>(flags.get_int("seed")),
        static_cast<std::size_t>(flags.get_int("nodes")));
  } else if (campaign_name == "selfmon") {
    plan = chaos::ChaosPlan::selfmon(
        static_cast<std::uint64_t>(flags.get_int("seed")),
        static_cast<std::size_t>(flags.get_int("nodes")));
  } else {
    std::fprintf(stderr, "dat_chaos: unknown --campaign %s\n",
                 campaign_name.c_str());
    return 2;
  }

  harness::ClusterOptions cluster_options;
  cluster_options.seed = plan.seed;
  cluster_options.with_dat = true;
  // Plans can demand an unbalanced deployment (random ids instead of
  // identifier probing) — the shape the rebalance event then repairs.
  cluster_options.node.probing_join = !plan.random_ids;
  // The selfmon campaign asserts the self-monitoring SLO: every node hosts
  // a SelfMonitor, and each verify phase additionally waits for the probe
  // node's coverage alert to reach the state the ground truth implies.
  const bool selfmon_campaign =
      plan_path.empty() && campaign_name == "selfmon";
  cluster_options.with_selfmon = selfmon_campaign;
  harness::SimCluster cluster(plan.nodes, std::move(cluster_options));

  chaos::CampaignOptions options;
  options.replicas = static_cast<unsigned>(flags.get_int("replicas"));
  options.quiesce_us =
      static_cast<std::uint64_t>(flags.get_int("quiesce-ms")) * 1000;
  options.max_recovery_epochs =
      static_cast<unsigned>(flags.get_int("max-epochs"));
  // The skewed workload only matters to plans that actually rebalance;
  // keeping it off elsewhere leaves the canonical soak untouched.
  const bool has_rebalance = std::any_of(
      plan.events.begin(), plan.events.end(), [](const chaos::FaultEvent& e) {
        return e.kind == chaos::FaultKind::kRebalance;
      });
  if (has_rebalance) {
    options.rebalance.hot_aggregates =
        static_cast<unsigned>(flags.get_int("hot-keys"));
  }
  options.rebalance.slo_max_branching =
      static_cast<std::size_t>(flags.get_int("slo-branching"));
  options.rebalance.slo_max_epochs =
      static_cast<unsigned>(flags.get_int("slo-epochs"));
  options.check_selfmon = selfmon_campaign;
  // ^C aborts the timeline between events; the metrics flush and the table
  // below still run on whatever completed, and the exit code becomes 130.
  options.interrupted = [] { return datd::pending_signal() != 0; };

  chaos::Campaign campaign(cluster, plan, options);
  const chaos::CampaignReport report = campaign.run();

  const std::string metrics_path = flags.get_string("metrics-out");
  if (!metrics_path.empty()) {
    // Campaign-level recovery metrics (phase timings, fault counts) merged
    // with the cluster-wide per-node roll-up, as one JSON document.
    obs::MetricsSnapshot snap =
        campaign.metrics().snapshot().with_label("node", "campaign");
    snap.merge(cluster.telemetry_snapshot());
    std::ofstream out(metrics_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "dat_chaos: cannot open %s\n", metrics_path.c_str());
      return 2;
    }
    out << obs::to_json(snap);
  }

  if (flags.get_bool("print-events")) {
    for (const std::string& line : report.event_log) {
      std::printf("%s\n", line.c_str());
    }
  }

  std::printf("\n%-6s %-8s %-6s %-9s %-9s %-7s %-6s %-9s %-7s %s\n", "phase",
              "t(ms)", "live", "expected", "coverage", "epochs", "roots",
              "lb", "alert", "result");
  for (const chaos::PhaseReport& p : report.phases) {
    char lb[32] = "-";
    if (p.rebalance_checked) {
      std::snprintf(lb, sizeof(lb), "%u/%zu", p.lb_epochs,
                    p.lb_max_branching);
    }
    const char* alert =
        p.selfmon_checked ? (p.selfmon_firing ? "firing" : "clear") : "-";
    std::printf("%-6zu %-8llu %-6zu %-9zu %-9zu %-7u %-6u %-9s %-7s %s\n",
                p.phase, static_cast<unsigned long long>(p.at_us / 1000),
                p.live, p.expected_coverage, p.observed_coverage,
                p.epochs_to_recover, p.roots_answered, lb, alert,
                p.ok() ? "OK" : "FAIL");
  }

  const chaos::Campaign::LbSummary& lb = campaign.lb_summary();
  if (lb.ran) {
    std::printf("\nrebalancer: %s in %u epochs, branching %zu -> %zu, "
                "%zu migrations, %zu sheds\n",
                lb.converged ? "converged" : "did NOT converge", lb.epochs,
                lb.initial_max_branching, lb.final_max_branching,
                lb.migrations, lb.sheds);
  }

  if (!report.phases.empty()) {
    const dat::net::RpcStats& rpc = report.phases.back().rpc;
    std::printf("\nrpc totals (live nodes): calls=%llu attempts=%llu "
                "retransmits=%llu timeouts=%llu backoff=%llums\n",
                static_cast<unsigned long long>(rpc.calls),
                static_cast<unsigned long long>(rpc.attempts),
                static_cast<unsigned long long>(rpc.retransmits),
                static_cast<unsigned long long>(rpc.timeouts),
                static_cast<unsigned long long>(rpc.backoff_wait_us / 1000));
  }

  for (const std::string& violation : report.violations) {
    std::fprintf(stderr, "violation: %s\n", violation.c_str());
  }
  std::size_t phases_ok = 0;
  for (const auto& p : report.phases) {
    if (p.ok()) ++phases_ok;
  }
  std::printf("\ncampaign %s: %zu/%zu phases ok\n",
              report.interrupted ? "INTERRUPTED"
                                 : (report.ok() ? "PASSED" : "FAILED"),
              phases_ok, report.phases.size());
  if (report.interrupted) return 130;
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  dat::CliFlags flags;
  flags.flag("nodes", std::int64_t{16}, "cluster size for the canonical plan")
      .flag("seed", std::int64_t{7}, "campaign seed (canonical plan)")
      .flag("plan", std::string{},
            "path to a text plan spec (overrides --nodes/--seed)")
      .flag("campaign", std::string{"canonical"},
            "built-in campaign: canonical | rebalance-skew | selfmon")
      .flag("hot-keys", std::int64_t{2},
            "extra hot trees pushed 10x faster (workload skew)")
      .flag("slo-branching", std::int64_t{4},
            "rebalance SLO: max branching to re-converge to")
      .flag("slo-epochs", std::int64_t{20},
            "rebalance SLO: epoch budget after activation")
      .flag("replicas", std::int64_t{3}, "replica trees for the aggregate")
      .flag("quiesce-ms", std::int64_t{2000},
            "settle window before each verification")
      .flag("max-epochs", std::int64_t{10},
            "recovery SLO: epochs allowed until coverage re-converges")
      .flag("print-events", false, "print the deterministic event log")
      .flag("metrics-out", std::string{},
            "write campaign + cluster telemetry JSON to this path")
      .flag("verbose", false, "chaos events to stderr as they happen");

  if (!flags.parse(argc - 1, argv + 1)) {
    std::fprintf(stderr, "dat_chaos: %s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.get_bool("verbose")) {
    dat::Logger::instance().set_level(dat::LogLevel::kInfo);
  }
  dat::datd::install_signal_guard();
  try {
    return run_campaign(flags);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "dat_chaos: %s\n", err.what());
    return 2;
  }
}
