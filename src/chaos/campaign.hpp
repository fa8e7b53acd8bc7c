#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/plan.hpp"
#include "chaos/target.hpp"
#include "harness/fleet.hpp"
#include "lb/policy.hpp"
#include "net/rpc.hpp"
#include "obs/metrics.hpp"

namespace dat::chaos {

/// Knobs of the kRebalance event: the SLO it drives towards and the skewed
/// workload it is exercised under.
struct RebalanceOptions {
  /// Branching SLO: max fresh children of any tracked tree on any node.
  std::size_t slo_max_branching = 4;
  /// Epoch budget to reach the SLO after the rebalancer activates.
  unsigned slo_max_epochs = 20;
  /// Extra hot replica trees registered alongside the base replicas, pushed
  /// at a tenth of the base epoch. With 2 hot trees next to 2 base trees,
  /// ~91% of update volume lands on the hot keys — the 90/10 skew of the
  /// headline campaign. 0 keeps the base replicas only.
  unsigned hot_aggregates = 0;
  /// Decision-policy knobs forwarded to lb::plan_rebalance.
  lb::PolicyOptions policy{};
};

struct CampaignOptions {
  /// Base name of the campaign aggregate; replica tree i uses the key
  /// H(name "#" i) — the same layout as core::ReplicatedAggregate, so a
  /// reader keeps the widest-coverage answer across the replica roots.
  std::string aggregate = "cpu-usage";
  unsigned replicas = 3;
  /// SUM: the coverage and exactness probes read both count and sum off
  /// the roots, and a SUM tree's updates carry both (core::shape_of).
  core::AggregateKind kind = core::AggregateKind::kSum;
  chord::RoutingScheme scheme = chord::RoutingScheme::kBalanced;

  /// Settle window run before each verification.
  std::uint64_t quiesce_us = 2'000'000;
  /// Recovery SLO: coverage must re-converge to the reachable live
  /// population within this many continuous-push epochs after quiesce. A
  /// target with a verify window (Target::verify_window_us) ignores this,
  /// converge_timeout_us and selfmon_max_epochs: its window is the budget.
  unsigned max_recovery_epochs = 10;
  /// Budget for ring convergence (only awaited when no partition is up).
  std::uint64_t converge_timeout_us = 30'000'000;
  /// Rebalancer SLO and workload skew, used by kRebalance events.
  RebalanceOptions rebalance{};
  /// Assert the self-monitoring SLO at every verify: the probe node's
  /// coverage alert must be FIRING while the reachable population is below
  /// the configured fleet size and CLEAR once it is back, each within
  /// selfmon_max_epochs telemetry epochs. Requires a cluster built with
  /// ClusterOptions::with_selfmon; datd daemons always run one.
  bool check_selfmon = false;
  unsigned selfmon_max_epochs = 12;
  /// Polled between events; returning true abandons the rest of the
  /// timeline (completed phases keep their reports and the event log notes
  /// the cut). The CLI wires its SIGINT latch in here, so ^C still flushes
  /// metrics and tears the cluster down through the normal destructors.
  std::function<bool()> interrupted;
};

/// Outcome of one verification phase (one kVerify event).
struct PhaseReport {
  std::size_t phase = 0;
  std::uint64_t at_us = 0;
  std::size_t live = 0;
  /// Reachable population: live minus partitioned slots.
  std::size_t expected_coverage = 0;
  /// Widest fresh coverage any replica root reported.
  std::size_t observed_coverage = 0;
  /// Epochs waited after quiesce until the coverage SLO was met (or
  /// max_recovery_epochs when it never was).
  unsigned epochs_to_recover = 0;
  unsigned roots_answered = 0;
  bool coverage_ok = false;
  bool query_ok = false;       ///< at least one replica root answered
  bool invariants_ok = false;  ///< structural checks passed
  bool ring_checked = false;   ///< convergence awaited (no partition active)
  bool ring_converged = false;
  /// This phase closes a rebalance event; the SLO outcome gates ok().
  bool rebalance_checked = false;
  bool rebalance_ok = false;
  /// Self-monitoring gate (CampaignOptions::check_selfmon): whether the
  /// probe node's coverage alert matched the expected state in time, and
  /// the state it ended in.
  bool selfmon_checked = false;
  bool selfmon_ok = false;
  bool selfmon_firing = false;
  unsigned selfmon_epochs = 0;  ///< epochs waited for the alert to settle
  /// Epochs the rebalancer ran before meeting the SLO (or the full budget
  /// when it never did), and the branching it ended at.
  unsigned lb_epochs = 0;
  std::size_t lb_max_branching = 0;
  /// Cumulative RPC counters summed over live nodes at phase end.
  net::RpcStats rpc;

  [[nodiscard]] bool ok() const {
    return coverage_ok && query_ok && invariants_ok &&
           (!ring_checked || ring_converged) &&
           (!rebalance_checked || rebalance_ok) &&
           (!selfmon_checked || selfmon_ok);
  }
};

struct CampaignReport {
  std::vector<PhaseReport> phases;
  /// Deterministic event log: one line per applied event and per phase
  /// outcome. Two same-seed runs must produce identical logs.
  std::vector<std::string> event_log;
  /// Invariant-violation texts, if any phase tripped a check.
  std::vector<std::string> violations;
  /// True when CampaignOptions::interrupted cut the timeline short.
  bool interrupted = false;

  [[nodiscard]] bool ok() const {
    return violations.empty() &&
           std::all_of(phases.begin(), phases.end(),
                       [](const PhaseReport& p) { return p.ok(); });
  }
};

/// The one chaos runner: executes a ChaosPlan against a Target, applying
/// each fault at its timestamp on the target's clock and, at every kVerify
/// event, running a quiescent window and then judging the structural
/// checks, ring convergence, the coverage-recovery SLO (under the target's
/// rule), replica-query availability and, when asked, the rebalance and
/// self-monitoring SLOs, all in one pass within the target's verify window
/// when it has one. On a SimCluster the event log is a pure function
/// of (cluster seed, plan); a UdpCluster or a datd::ProcessFleet runs the
/// same plan on wall-clock time over real sockets.
class Campaign {
 public:
  /// Throws std::invalid_argument, before touching the target, for a
  /// network fault on a target without a simulated network, or when a
  /// replay from a whole fleet would crash, leave, signal or partition a
  /// slot already down, restart one that is up, heal one not partitioned,
  /// or verify or rebalance with no reachable live slot. Then registers
  /// the replica aggregates fleet-wide, so restarted slots rejoin.
  Campaign(Target& target, ChaosPlan plan, CampaignOptions options);
  /// Runs on an in-process fleet (which must have its DAT layer enabled)
  /// through a FleetTarget the campaign owns.
  Campaign(harness::Fleet& fleet, ChaosPlan plan, CampaignOptions options);

  /// Boots the target, then runs the whole plan; may be called once.
  CampaignReport run();

  /// What the rebalancer did, if the plan had a kRebalance event on a
  /// target that can observe branching.
  struct LbSummary {
    bool ran = false;
    bool converged = false;  ///< branching SLO met within the epoch budget
    unsigned epochs = 0;
    std::size_t initial_max_branching = 0;
    std::size_t final_max_branching = 0;
    std::size_t migrations = 0;
    std::size_t sheds = 0;
  };
  [[nodiscard]] const LbSummary& lb_summary() const noexcept { return lb_; }

  /// Campaign-level telemetry: fault counts by kind, phases run/failed,
  /// and per-phase recovery timing histograms (epochs to meet the
  /// coverage SLO, fleet-clock duration of quiesce + recovery). Populated
  /// by run(); snapshot it afterwards (or merge into a cluster roll-up).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }

 private:
  struct Probe {
    std::size_t coverage = 0;
    unsigned roots_answered = 0;
    bool met = false;  ///< the target's coverage rule holds
    std::string inexact;  ///< exact rule: the first key that missed it
  };

  Campaign(std::unique_ptr<Target> owned, Target* borrowed, ChaosPlan plan,
           CampaignOptions options);

  void apply(const FaultEvent& event);
  PhaseReport run_verify(const FaultEvent& event);
  void run_rebalance(const FaultEvent& event);
  [[nodiscard]] Probe probe_coverage(std::size_t expected);
  Journal journal() { return {report_.event_log, report_.violations}; }
  void note(const std::string& line) { journal().note(line); }

  std::unique_ptr<Target> owned_target_;
  Target& target_;
  ChaosPlan plan_;
  CampaignOptions options_;
  std::vector<Id> keys_;
  /// keys_ plus the hot skewed trees — the set the rebalancer tracks.
  std::vector<Id> all_keys_;
  LbSummary lb_;
  /// A rebalance event ran and its outcome awaits the closing verify.
  bool lb_pending_report_ = false;
  CampaignReport report_;
  std::size_t phase_ = 0;
  bool ran_ = false;

  obs::MetricsRegistry metrics_;
  obs::Counter* m_phases_ = nullptr;
  obs::Counter* m_phase_failures_ = nullptr;
  obs::Histogram* m_recovery_epochs_ = nullptr;
  obs::Histogram* m_phase_duration_us_ = nullptr;
};

/// Prints the phase table, the rebalancer and RPC summaries and the verdict
/// line to `out`, and each violation to `err` — the report dat_chaos and
/// dat_supervisor share. Returns their exit code: 0 when every SLO held,
/// 1 on a violation, 130 when the run was interrupted.
int print_report(const CampaignReport& report,
                 const Campaign::LbSummary& lb, std::FILE* out,
                 std::FILE* err);

}  // namespace dat::chaos
