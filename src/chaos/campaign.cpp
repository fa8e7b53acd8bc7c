#include "chaos/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/logging.hpp"
#include "harness/sim_cluster.hpp"
#include "lb/rebalancer.hpp"

namespace dat::chaos {

namespace {
/// The dat_chaos_faults_total label: the plan verb, bursts spelled out.
const char* fault_kind_label(FaultKind kind) {
  if (kind == FaultKind::kLossBurst) return "loss_burst";
  if (kind == FaultKind::kLatencyBurst) return "latency_burst";
  return to_string(kind);
}

/// Replays the plan from a whole fleet of `slots` and throws
/// std::invalid_argument at the first event that cannot apply: a network
/// fault without a simulated network, or a slot in the wrong state.
void check_plan(const ChaosPlan& plan, std::size_t slots, bool simulated) {
  enum State : char { kUp, kDown, kCut };
  std::vector<State> state(slots, kUp);
  const auto reject = [](const FaultEvent& event, const char* why) {
    throw std::invalid_argument("Campaign: " + event.describe() + " " + why);
  };
  for (const FaultEvent& event : plan.events) {
    const FaultKind kind = event.kind;
    if (!simulated &&
        (kind == FaultKind::kLossBurst || kind == FaultKind::kLatencyBurst ||
         kind == FaultKind::kPartition || kind == FaultKind::kHeal)) {
      reject(event, "needs the simulated network");
    }
    if (!event.has_slot()) {
      if ((kind == FaultKind::kVerify || kind == FaultKind::kRebalance) &&
          std::find(state.begin(), state.end(), kUp) == state.end()) {
        reject(event, "has no reachable live slot");
      }
      continue;
    }
    if (event.slot >= slots) reject(event, "targets a slot outside the fleet");
    State& s = state[event.slot];
    if (kind == FaultKind::kRestart) {
      if (s != kDown) reject(event, "targets a slot that is up");
      s = kUp;
    } else if (kind == FaultKind::kHeal) {
      if (s != kCut) reject(event, "targets a slot that is not partitioned");
      s = kUp;
    } else {
      if (s == kDown) reject(event, "targets a slot that is already down");
      s = kind == FaultKind::kPartition ? kCut : kDown;
    }
  }
}

/// Any in-process harness::Fleet; network faults need a SimCluster. Held to
/// the lower bound: re-parenting over-counts until a child TTL expires.
class FleetTarget final : public Target {
 public:
  FleetTarget(harness::Fleet& fleet, const CampaignOptions& options)
      : fleet_(fleet),
        policy_(options.rebalance.policy) {
    if (auto* sim = dynamic_cast<harness::SimCluster*>(&fleet_)) {
      sim_network_ = &sim->network();
    }
  }

  std::size_t slot_count() const override { return fleet_.slot_count(); }
  bool is_live(std::size_t slot) const override {
    return fleet_.is_live(slot);
  }
  bool is_reachable(std::size_t slot) const override {
    return fleet_.is_live(slot) && !partitioned_.contains(slot);
  }
  std::uint64_t now_us() const override { return fleet_.now_us(); }
  void run_for(std::uint64_t us) override { fleet_.run_for(us); }
  std::uint64_t epoch_us() override {
    return fleet_.dat(probe_slot()).options().epoch_us;
  }
  bool simulates_network() const override { return sim_network_ != nullptr; }
  bool exact_aggregates() const override { return false; }

  std::vector<Id> start_replicas(const std::string& name, unsigned replicas,
                                 core::AggregateKind kind,
                                 chord::RoutingScheme scheme,
                                 std::uint64_t epoch_us) override {
    const auto sample = [](std::size_t slot) -> core::DatNode::LocalValueFn {
      return [slot] { return slot_value(slot); };
    };
    std::vector<Id> keys;
    for (unsigned i = 0; i < replicas; ++i) {
      keys.push_back(fleet_.start_aggregate_everywhere(
          name + "#" + std::to_string(i), kind, scheme, sample, epoch_us));
    }
    return keys;
  }

  void apply(const FaultEvent& event, const Journal& journal) override {
    const std::string at = "t=" + std::to_string(event.at_us / 1000) + "ms ";
    const std::string slot = std::to_string(event.slot);
    switch (event.kind) {
      case FaultKind::kRestart:
        if (!fleet_.restart_node(event.slot)) {
          journal.note(at + "restart slot=" + slot + " FAILED");
          journal.violation("restart failed for slot " + slot);
        }
        return;
      case FaultKind::kLossBurst:
        sim_network_->loss_burst(event.magnitude, event.duration_us);
        return;
      case FaultKind::kLatencyBurst:
        sim_network_->latency_burst(event.magnitude, event.duration_us);
        return;
      case FaultKind::kPartition: {
        const net::Endpoint ep = fleet_.node(event.slot).self().endpoint;
        sim_network_->set_partitioned(ep, true);
        partitioned_[event.slot] = ep;
        return;
      }
      case FaultKind::kHeal:
        sim_network_->set_partitioned(partitioned_.at(event.slot), false);
        partitioned_.erase(event.slot);
        return;
      default:
        break;  // the slot-downing faults
    }
    // A destroyed endpoint must not linger in the fabric's partition set.
    if (const auto it = partitioned_.find(event.slot);
        it != partitioned_.end()) {
      sim_network_->set_partitioned(it->second, false);
      partitioned_.erase(it);
    }
    // In-process, a SIGKILL or SIGABRT is an abrupt crash; a SIGTERM is what
    // datd does on one: re-parent every subtree upstream and retract its
    // records, then leave the ring cleanly.
    if (event.kind == FaultKind::kSigterm) {
      const auto drained =
          fleet_.dat(event.slot).drain(policy_.handoff_ttl_us);
      journal.note(at + "drain slot=" + slot + " keys=" +
                   std::to_string(drained.keys) + " moved=" +
                   std::to_string(drained.children_moved) + " retracts=" +
                   std::to_string(drained.retracts_sent));
    }
    fleet_.remove_node(event.slot, event.kind == FaultKind::kLeave ||
                                       event.kind == FaultKind::kSigterm);
    fleet_.refresh_d0_hints();  // the clusters' d0 hints track n
  }

  void check_structure() override { fleet_.assert_local_invariants(); }

  std::string await_converged(std::uint64_t budget_us) override {
    return fleet_.wait_converged(budget_us)
               ? std::string()
               : "ring did not re-converge within budget";
  }

  std::vector<std::vector<RootAnswer>> probe_roots(
      const std::vector<Id>& keys) override {
    std::vector<std::vector<RootAnswer>> answers(keys.size());
    core::DatNode& probe = fleet_.dat(probe_slot());
    // A healed or re-parented ex-root can hold a stale global with an
    // inflated count; only values pushed within the last two epochs count.
    const std::uint64_t freshness = 2 * probe.options().epoch_us + 100'000;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      // The callback must own its landing pad: a query towards a
      // partitioned root can outlive this probe's patience (retries keep
      // the RPC pending), and the late response would otherwise write to a
      // dead stack frame.
      struct Pending {
        bool done = false;
        net::RpcStatus status = net::RpcStatus::kTimeout;
        std::optional<core::GlobalValue> value;
      };
      auto pending = std::make_shared<Pending>();
      probe.query_global(keys[k], [pending](net::RpcStatus s, auto v) {
        pending->done = true;
        pending->status = s;
        pending->value = std::move(v);
      });
      const std::uint64_t deadline = fleet_.now_us() + kProbeTimeoutUs;
      while (!pending->done && fleet_.now_us() < deadline) {
        fleet_.run_for(10'000);
      }
      if (pending->done && pending->status == net::RpcStatus::kOk &&
          pending->value.has_value()) {
        const core::GlobalValue& global = *pending->value;
        answers[k].push_back(
            {global.state.count, global.state.sum,
             global.updated_at_us + freshness >= fleet_.now_us()});
      }
    }
    return answers;
  }

  std::optional<AlertReading> coverage_alert() override {
    const obs::SelfMonitor* monitor = fleet_.selfmon(probe_slot());
    if (monitor == nullptr) return std::nullopt;
    return AlertReading{monitor->alert_firing("coverage"),
                        monitor->options().fleet_size,
                        monitor->options().epoch_us};
  }

  net::RpcStats rpc_stats() const override {
    net::RpcStats total;
    for (std::size_t i = 0; i < fleet_.slot_count(); ++i) {
      if (fleet_.is_live(i)) total += fleet_.node(i).rpc().stats();
    }
    return total;
  }

  std::optional<std::size_t> max_branching(
      const std::vector<Id>& keys) override {
    std::size_t max_children = 0;
    for (std::size_t i = 0; i < fleet_.slot_count(); ++i) {
      if (!fleet_.is_live(i)) continue;
      for (const Id key : keys) {
        max_children = std::max(max_children, fleet_.dat(i).child_count(key));
      }
    }
    return max_children;
  }

  RebalanceRound rebalance_round(const std::vector<Id>& keys,
                                 obs::MetricsRegistry& metrics) override {
    if (!rebalancer_) {
      lb::RebalancerOptions lb_options;
      lb_options.policy = policy_;
      lb_options.epoch_us = epoch_us();
      rebalancer_ =
          std::make_unique<lb::Rebalancer>(fleet_, keys, lb_options, &metrics);
    }
    const lb::RoundReport round = rebalancer_->run_round();
    return {round.to_string(), round.migrations, round.sheds};
  }

 private:
  harness::Fleet& fleet_;
  /// The simulated fabric when the fleet is a SimCluster, else null.
  net::SimNetwork* sim_network_ = nullptr;
  /// Budget per root query while probing coverage.
  static constexpr std::uint64_t kProbeTimeoutUs = 2'000'000;
  lb::PolicyOptions policy_;
  std::unique_ptr<lb::Rebalancer> rebalancer_;
  /// Slot -> endpoint for currently partitioned slots (the endpoint is
  /// needed to heal after the chord::Node object is unreachable).
  std::unordered_map<std::size_t, net::Endpoint> partitioned_;
};
}  // namespace

void Journal::note(const std::string& line) const {
  log.push_back(line);
  DAT_LOG_INFO("chaos", line);
}

std::size_t Target::live_count() const {
  std::size_t live = 0;
  for (std::size_t i = 0; i < slot_count(); ++i) live += is_live(i) ? 1 : 0;
  return live;
}

std::size_t Target::reachable_count() const {
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < slot_count(); ++i) {
    reachable += is_reachable(i) ? 1 : 0;
  }
  return reachable;
}

std::size_t Target::probe_slot() const {
  for (std::size_t i = 0; i < slot_count(); ++i) {
    if (is_reachable(i)) return i;
  }
  throw std::logic_error("Campaign: no reachable live slot to probe from");
}

Campaign::Campaign(Target& target, ChaosPlan plan, CampaignOptions options)
    : Campaign(nullptr, &target, std::move(plan), std::move(options)) {}

Campaign::Campaign(harness::Fleet& fleet, ChaosPlan plan,
                   CampaignOptions options)
    : Campaign(std::make_unique<FleetTarget>(fleet, options), nullptr,
               std::move(plan), options) {}

Campaign::Campaign(std::unique_ptr<Target> owned, Target* borrowed,
                   ChaosPlan plan, CampaignOptions options)
    : owned_target_(std::move(owned)),
      target_(borrowed != nullptr ? *borrowed : *owned_target_),
      plan_(std::move(plan)),
      options_(std::move(options)) {
  if (options_.replicas == 0) {
    throw std::invalid_argument("Campaign: replicas == 0");
  }
  m_phases_ = &metrics_.counter("dat_chaos_phases_total");
  m_phase_failures_ = &metrics_.counter("dat_chaos_phase_failures_total");
  m_recovery_epochs_ = &metrics_.histogram("dat_chaos_recovery_epochs");
  m_phase_duration_us_ = &metrics_.histogram("dat_chaos_phase_duration_us");
  plan_.sort_events();
  check_plan(plan_, target_.slot_count(), target_.simulates_network());
  // Same key layout as core::ReplicatedAggregate: replica i rendezvouses at
  // H(name "#" i). Registering through the target keeps restarted slots
  // contributing without campaign-side bookkeeping.
  keys_ = target_.start_replicas(options_.aggregate, options_.replicas,
                                 options_.kind, options_.scheme, 0);
  // The skewed workload: hot trees push at a fraction of the base period,
  // concentrating update volume on a few keys (90/10 with the defaults of
  // the rebalance-skew campaign). Registered fleet-wide like the replicas,
  // so churned slots keep contributing to the skew; run() puts the replica
  // keys in front once boot() has settled them.
  if (options_.rebalance.hot_aggregates > 0) {
    all_keys_ = target_.start_replicas(
        options_.aggregate + "-hot", options_.rebalance.hot_aggregates,
        options_.kind, options_.scheme, target_.epoch_us() / 10);
  }
}

void Campaign::apply(const FaultEvent& event) {
  note(event.describe());
  // Find-or-create per fault kind: apply() runs a handful of times per
  // campaign, so the registry lookup is not a hot path.
  metrics_.counter("dat_chaos_faults_total",
                   {{"kind", fault_kind_label(event.kind)}})
      .inc();
  // The constructor's replay proved every event applicable; only a restart
  // that failed at run time can strand one, which is then a violation.
  const bool probes = event.kind == FaultKind::kVerify ||
                      event.kind == FaultKind::kRebalance;
  if (event.has_slot() ? event.kind != FaultKind::kRestart &&
                             event.kind != FaultKind::kHeal &&
                             !target_.is_live(event.slot)
                       : probes && target_.reachable_count() == 0) {
    report_.violations.push_back(event.describe() +
                                 " skipped: a failed restart left its "
                                 "slot down");
    return;
  }
  if (event.kind == FaultKind::kVerify) {
    report_.phases.push_back(run_verify(event));
  } else if (event.kind == FaultKind::kRebalance) {
    run_rebalance(event);
  } else {
    target_.apply(event, journal());
  }
}

void Campaign::run_rebalance(const FaultEvent& event) {
  const std::string at =
      "t=" + std::to_string(event.at_us / 1000) + "ms rebalance ";
  const std::optional<std::size_t> initial = target_.max_branching(all_keys_);
  if (!initial) {
    // Branching is not observable on this target: one round, no SLO.
    note(at + target_.rebalance_round(all_keys_, metrics_).summary);
    return;
  }
  lb_.ran = true;
  lb_.epochs = 0;
  lb_.initial_max_branching = *initial;
  lb_.final_max_branching = lb_.initial_max_branching;
  lb_.converged =
      lb_.initial_max_branching <= options_.rebalance.slo_max_branching;
  note(at + "start branching=" + std::to_string(lb_.initial_max_branching) +
       " slo=" + std::to_string(options_.rebalance.slo_max_branching));
  // One measured round per epoch: measure -> decide -> apply, then run the
  // fleet one push period so handoffs re-home and soft state expires
  // before the next measurement.
  const std::uint64_t epoch_us = target_.epoch_us();
  while (!lb_.converged && lb_.epochs < options_.rebalance.slo_max_epochs) {
    const RebalanceRound round = target_.rebalance_round(all_keys_, metrics_);
    lb_.migrations += round.migrations;
    lb_.sheds += round.sheds;
    target_.run_for(epoch_us);
    ++lb_.epochs;
    lb_.final_max_branching = target_.max_branching(all_keys_).value_or(0);
    lb_.converged =
        lb_.final_max_branching <= options_.rebalance.slo_max_branching;
    note(at + "epoch=" + std::to_string(lb_.epochs) + " " + round.summary +
         " -> branching=" + std::to_string(lb_.final_max_branching));
  }
  note(at + (lb_.converged ? "converged" : "FAILED to converge") +
       " epochs=" + std::to_string(lb_.epochs) +
       " branching=" + std::to_string(lb_.final_max_branching));
  lb_pending_report_ = true;
}

Campaign::Probe Campaign::probe_coverage(std::size_t expected) {
  Probe best;
  const bool exact = target_.exact_aggregates();
  double want_sum = 0.0;
  for (std::size_t i = 0; i < target_.slot_count(); ++i) {
    if (target_.is_live(i)) want_sum += slot_value(i);
  }
  const std::vector<std::vector<RootAnswer>> answers =
      target_.probe_roots(keys_);
  for (std::size_t k = 0; k < answers.size(); ++k) {
    if (!answers[k].empty()) ++best.roots_answered;
    bool key_exact = false;
    for (const RootAnswer& root : answers[k]) {
      if (root.fresh) {
        best.coverage =
            std::max(best.coverage, static_cast<std::size_t>(root.count));
      }
      key_exact = key_exact || (root.count == expected &&
                                std::abs(root.sum - want_sum) <= 1e-6);
    }
    if (!key_exact && best.inexact.empty()) {
      best.inexact = "no root of key " + std::to_string(keys_[k]) +
                     " counts " + std::to_string(expected) + " with sum " +
                     std::to_string(want_sum);
    }
  }
  best.met = exact ? best.inexact.empty() : best.coverage >= expected;
  return best;
}

PhaseReport Campaign::run_verify(const FaultEvent& event) {
  PhaseReport phase;
  phase.phase = ++phase_;
  phase.at_us = event.at_us;
  const std::string tag = "phase " + std::to_string(phase.phase) + ": ";
  const std::uint64_t phase_start_us = target_.now_us();

  target_.run_for(options_.quiesce_us);

  phase.live = target_.live_count();
  phase.expected_coverage = target_.reachable_count();

  // Without a verify window each check below waits within its own budget.
  // With one, no check waits alone: the whole pass is re-run one push epoch
  // apart until every check holds in the same pass or the window closes.
  const std::uint64_t window = target_.verify_window_us();
  const std::uint64_t epoch_us = target_.epoch_us();
  std::string structure_violation;
  std::string ring_violation;
  Probe probe;
  std::optional<AlertReading> alert;
  bool expect_firing = false;
  for (;;) {
    // Structural checks hold at any instant, partitions included.
    try {
      target_.check_structure();
      structure_violation.clear();
    } catch (const std::logic_error& err) {
      structure_violation = err.what();
    }
    phase.invariants_ok = structure_violation.empty();

    // Ring convergence (and the converged-tree checks inside it) is only a
    // meaningful target when every live node is reachable.
    if (phase.expected_coverage == phase.live) {
      phase.ring_checked = true;
      try {
        const std::string failure = target_.await_converged(
            window == 0 ? options_.converge_timeout_us : 0);
        ring_violation = failure.empty() ? "" : tag + failure;
        phase.ring_converged = failure.empty();
      } catch (const std::logic_error& err) {
        ring_violation = err.what();
        phase.ring_converged = false;
      }
    }

    // Recovery SLO: the target's coverage rule must hold within
    // max_recovery_epochs continuous epochs.
    probe = probe_coverage(phase.expected_coverage);
    while (!probe.met && window == 0 &&
           phase.epochs_to_recover < options_.max_recovery_epochs) {
      target_.run_for(epoch_us);
      ++phase.epochs_to_recover;
      probe = probe_coverage(phase.expected_coverage);
    }
    phase.rpc = target_.rpc_stats();

    // Self-monitoring gate: the probe node's own coverage alert must agree
    // with ground truth — firing while the reachable population is short
    // of the configured fleet, clear once it is whole again. Alert
    // transitions need fire/clear hysteresis epochs, so poll up to the
    // epoch budget; a failed read keeps the last reading.
    if (options_.check_selfmon && (alert = target_.coverage_alert())) {
      expect_firing = phase.expected_coverage < alert->fleet_size;
      while (alert->firing != expect_firing && window == 0 &&
             phase.selfmon_epochs < options_.selfmon_max_epochs) {
        target_.run_for(alert->epoch_us);
        ++phase.selfmon_epochs;
        if (const auto next = target_.coverage_alert()) alert = next;
      }
    }
    const bool held = phase.invariants_ok && ring_violation.empty() &&
                      probe.met &&
                      (!options_.check_selfmon ||
                       (alert && alert->firing == expect_firing));
    if (window == 0 || held || target_.now_us() - phase_start_us >= window ||
        (options_.interrupted && options_.interrupted())) {
      break;
    }
    target_.run_for(epoch_us);
    ++phase.epochs_to_recover;
  }
  phase.observed_coverage = probe.coverage;
  phase.roots_answered = probe.roots_answered;
  phase.coverage_ok = probe.met;
  phase.query_ok = probe.roots_answered >= 1;
  for (const std::string* violation : {&structure_violation, &ring_violation}) {
    if (!violation->empty()) report_.violations.push_back(*violation);
  }
  if (!probe.met && target_.exact_aggregates()) {
    report_.violations.push_back(tag + probe.inexact);
  }

  // A rebalance event ran since the previous verify: this phase carries its
  // SLO verdict.
  if (lb_pending_report_) {
    lb_pending_report_ = false;
    phase.rebalance_checked = true;
    phase.rebalance_ok = lb_.converged;
    phase.lb_epochs = lb_.epochs;
    phase.lb_max_branching = lb_.final_max_branching;
    if (!lb_.converged) {
      report_.violations.push_back(
          tag + "rebalancer missed the branching SLO (" +
          std::to_string(lb_.final_max_branching) + " > " +
          std::to_string(options_.rebalance.slo_max_branching) + " after " +
          std::to_string(lb_.epochs) + " epochs)");
    }
  }

  if (options_.check_selfmon) {
    phase.selfmon_checked = true;
    if (!alert) {
      report_.violations.push_back(
          tag + "check_selfmon set but the probe node's coverage alert "
                "cannot be read");
    } else {
      phase.selfmon_firing = alert->firing;
      phase.selfmon_ok = phase.selfmon_firing == expect_firing;
      if (!phase.selfmon_ok) {
        report_.violations.push_back(
            tag + "coverage alert " +
            (phase.selfmon_firing ? "firing" : "clear") + ", expected " +
            (expect_firing ? "firing" : "clear") + " after " +
            std::to_string(phase.selfmon_epochs) + " epochs");
      }
    }
  }

  m_phases_->inc();
  if (!phase.ok()) m_phase_failures_->inc();
  m_recovery_epochs_->observe(phase.epochs_to_recover);
  m_phase_duration_us_->observe(target_.now_us() - phase_start_us);

  std::ostringstream oss;
  oss << "t=" << event.at_us / 1000 << "ms phase=" << phase.phase
      << " live=" << phase.live << " expected=" << phase.expected_coverage
      << " coverage=" << phase.observed_coverage
      << " epochs=" << phase.epochs_to_recover
      << " roots=" << phase.roots_answered;
  if (phase.rebalance_checked) {
    oss << " lb_epochs=" << phase.lb_epochs
        << " lb_branching=" << phase.lb_max_branching;
  }
  if (phase.selfmon_checked) {
    oss << " alert=" << (phase.selfmon_firing ? "firing" : "clear");
  }
  oss << (phase.ok() ? " OK" : " FAIL");
  note(oss.str());
  return phase;
}

CampaignReport Campaign::run() {
  if (ran_) throw std::logic_error("Campaign::run: already ran");
  ran_ = true;
  if (!target_.boot(journal(), keys_)) {
    report_.interrupted = options_.interrupted && options_.interrupted();
    return std::move(report_);
  }
  all_keys_.insert(all_keys_.begin(), keys_.begin(), keys_.end());
  const std::uint64_t start = target_.now_us();
  for (const FaultEvent& event : plan_.events) {
    if (options_.interrupted && options_.interrupted()) {
      report_.interrupted = true;
      note("campaign interrupted before " + event.describe());
      break;
    }
    const std::uint64_t at = start + event.at_us;
    if (target_.now_us() < at) {
      target_.run_for(at - target_.now_us());
    }
    apply(event);
  }
  return std::move(report_);
}

int print_report(const CampaignReport& report,
                 const Campaign::LbSummary& lb, std::FILE* out,
                 std::FILE* err) {
  std::fprintf(out, "\n%-6s %-8s %-6s %-9s %-9s %-7s %-6s %-9s %-7s %s\n",
               "phase", "t(ms)", "live", "expected", "coverage", "epochs",
               "roots", "lb", "alert", "result");
  for (const PhaseReport& p : report.phases) {
    char lb_cell[32] = "-";
    if (p.rebalance_checked) {
      std::snprintf(lb_cell, sizeof(lb_cell), "%u/%zu", p.lb_epochs,
                    p.lb_max_branching);
    }
    const char* alert =
        p.selfmon_checked ? (p.selfmon_firing ? "firing" : "clear") : "-";
    std::fprintf(out,
                 "%-6zu %-8llu %-6zu %-9zu %-9zu %-7u %-6u %-9s %-7s %s\n",
                 p.phase, static_cast<unsigned long long>(p.at_us / 1000),
                 p.live, p.expected_coverage, p.observed_coverage,
                 p.epochs_to_recover, p.roots_answered, lb_cell, alert,
                 p.ok() ? "OK" : "FAIL");
  }

  if (lb.ran) {
    std::fprintf(out,
                 "\nrebalancer: %s in %u epochs, branching %zu -> %zu, "
                 "%zu migrations, %zu sheds\n",
                 lb.converged ? "converged" : "did NOT converge", lb.epochs,
                 lb.initial_max_branching, lb.final_max_branching,
                 lb.migrations, lb.sheds);
  }

  // Targets without in-process protocol stacks report no RPC counters.
  if (!report.phases.empty() && report.phases.back().rpc.calls > 0) {
    const net::RpcStats& rpc = report.phases.back().rpc;
    std::fprintf(out,
                 "\nrpc totals (live nodes): calls=%llu attempts=%llu "
                 "retransmits=%llu timeouts=%llu backoff=%llums\n",
                 static_cast<unsigned long long>(rpc.calls),
                 static_cast<unsigned long long>(rpc.attempts),
                 static_cast<unsigned long long>(rpc.retransmits),
                 static_cast<unsigned long long>(rpc.timeouts),
                 static_cast<unsigned long long>(rpc.backoff_wait_us / 1000));
  }

  for (const std::string& violation : report.violations) {
    std::fprintf(err, "violation: %s\n", violation.c_str());
  }
  const auto phases_ok = static_cast<std::size_t>(
      std::count_if(report.phases.begin(), report.phases.end(),
                    [](const PhaseReport& p) { return p.ok(); }));
  std::fprintf(out, "\ncampaign %s: %zu/%zu phases ok\n",
               report.interrupted ? "INTERRUPTED"
                                  : (report.ok() ? "PASSED" : "FAILED"),
               phases_ok, report.phases.size());
  if (report.interrupted) return 130;
  return report.ok() ? 0 : 1;
}

}  // namespace dat::chaos
