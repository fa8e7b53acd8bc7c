#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos/plan.hpp"
#include "harness/fleet.hpp"
#include "lb/rebalancer.hpp"
#include "net/rpc.hpp"
#include "net/sim_transport.hpp"
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
  /// at hot_epoch_us. With 2 hot trees at a 10x faster period next to 2
  /// base trees, ~91% of update volume lands on the hot keys — the 90/10
  /// skew of the headline campaign. 0 keeps the base replicas only.
  unsigned hot_aggregates = 0;
  /// Push period of the hot trees; 0 derives base epoch / 10.
  std::uint64_t hot_epoch_us = 0;
  /// Decision-policy knobs forwarded to lb::plan_rebalance.
  lb::PolicyOptions policy{};
};

struct CampaignOptions {
  /// Base name of the campaign aggregate; replica tree i uses the key
  /// H(name "#" i) — the same layout as core::ReplicatedAggregate, so a
  /// reader keeps the widest-coverage answer across the replica roots.
  std::string aggregate = "cpu-usage";
  unsigned replicas = 3;
  core::AggregateKind kind = core::AggregateKind::kCount;
  chord::RoutingScheme scheme = chord::RoutingScheme::kBalanced;
  /// Per-slot local values; null uses the slot index as the sample.
  harness::Fleet::LocalValueFactory local_values;

  /// Settle window run before each verification.
  std::uint64_t quiesce_us = 2'000'000;
  /// Recovery SLO: coverage must re-converge to the reachable live
  /// population within this many continuous-push epochs after quiesce.
  unsigned max_recovery_epochs = 10;
  /// Budget per root query while probing coverage.
  std::uint64_t probe_timeout_us = 2'000'000;
  /// Budget for ring convergence (only awaited when no partition is up).
  std::uint64_t converge_timeout_us = 30'000'000;
  /// Refresh d0 hints after membership changes (matches clusters built
  /// with inject_d0_hint; set false when exercising the estimator).
  bool refresh_hints = true;
  /// Rebalancer SLO and workload skew, used by kRebalance events.
  RebalanceOptions rebalance{};
  /// Assert the self-monitoring SLO at every verify: the probe node's
  /// coverage alert must be FIRING while the reachable population is below
  /// the configured fleet size and CLEAR once it is back, each within
  /// selfmon_max_epochs telemetry epochs. Requires a cluster built with
  /// ClusterOptions::with_selfmon.
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
    if (!violations.empty()) return false;
    for (const PhaseReport& p : phases) {
      if (!p.ok()) return false;
    }
    return true;
  }
};

/// Executes a ChaosPlan against a harness::Fleet: applies each fault at its
/// timestamp on the fleet's clock and, at every kVerify event, runs a
/// quiescent window and then checks the structural invariants, the
/// coverage-recovery SLO and replica-query availability. On a SimCluster
/// all randomness is the cluster's own seeded Rng streams, so the produced
/// event log is a pure function of (cluster seed, plan); on a UdpCluster
/// the same plan runs on wall-clock time over real sockets.
class Campaign {
 public:
  /// The cluster must have its DAT layer enabled; the campaign registers
  /// its replica aggregates cluster-wide in the constructor so restarted
  /// slots rejoin the trees automatically. Network faults (loss and
  /// latency bursts, partition, heal) need the simulated fabric: on any
  /// other fleet a plan containing one throws std::invalid_argument.
  Campaign(harness::Fleet& cluster, ChaosPlan plan,
           CampaignOptions options);

  /// Runs the whole plan; may be called once.
  CampaignReport run();

  [[nodiscard]] const std::vector<Id>& keys() const noexcept { return keys_; }

  /// What the rebalancer did, if the plan had a kRebalance event.
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
  };

  void apply(const FaultEvent& event);
  PhaseReport run_verify(const FaultEvent& event);
  void run_rebalance(const FaultEvent& event);
  /// Max fresh child count over live slots x tracked keys (the branching
  /// the SLO bounds).
  [[nodiscard]] std::size_t measured_max_branching();
  [[nodiscard]] Probe probe_coverage();
  [[nodiscard]] std::size_t probe_slot() const;
  [[nodiscard]] net::RpcStats live_rpc_stats() const;
  void note(const std::string& line);

  harness::Fleet& cluster_;
  /// The simulated fabric when the fleet is a SimCluster, else null.
  net::SimNetwork* sim_network_ = nullptr;
  ChaosPlan plan_;
  CampaignOptions options_;
  std::vector<Id> keys_;
  /// keys_ plus the hot skewed trees — the set the rebalancer tracks.
  std::vector<Id> all_keys_;
  std::unique_ptr<lb::Rebalancer> rebalancer_;
  LbSummary lb_;
  /// A rebalance event ran and its outcome awaits the closing verify.
  bool lb_pending_report_ = false;
  /// Slot -> endpoint for currently partitioned slots (the endpoint is
  /// needed to heal after the chord::Node object is unreachable).
  std::unordered_map<std::size_t, net::Endpoint> partitioned_;
  CampaignReport report_;
  std::size_t phase_ = 0;
  bool ran_ = false;

  obs::MetricsRegistry metrics_;
  obs::Counter* m_phases_ = nullptr;
  obs::Counter* m_phase_failures_ = nullptr;
  obs::Histogram* m_recovery_epochs_ = nullptr;
  obs::Histogram* m_phase_duration_us_ = nullptr;
};

}  // namespace dat::chaos
