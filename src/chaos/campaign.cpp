#include "chaos/campaign.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "harness/sim_cluster.hpp"
#include "lb/drain.hpp"

namespace dat::chaos {

namespace {
const char* fault_kind_label(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kLeave: return "leave";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kLossBurst: return "loss_burst";
    case FaultKind::kLatencyBurst: return "latency_burst";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHeal: return "heal";
    case FaultKind::kVerify: return "verify";
    case FaultKind::kRebalance: return "rebalance";
    case FaultKind::kSigkill: return "sigkill";
    case FaultKind::kSigterm: return "sigterm";
    case FaultKind::kSigabrt: return "sigabrt";
  }
  return "unknown";
}
}  // namespace

Campaign::Campaign(harness::Fleet& cluster, ChaosPlan plan,
                   CampaignOptions options)
    : cluster_(cluster), plan_(std::move(plan)), options_(std::move(options)) {
  if (options_.replicas == 0) {
    throw std::invalid_argument("Campaign: replicas == 0");
  }
  if (auto* sim = dynamic_cast<harness::SimCluster*>(&cluster_)) {
    sim_network_ = &sim->network();
  }
  for (const FaultEvent& event : plan_.events) {
    const bool network_fault = event.kind == FaultKind::kLossBurst ||
                               event.kind == FaultKind::kLatencyBurst ||
                               event.kind == FaultKind::kPartition ||
                               event.kind == FaultKind::kHeal;
    if (network_fault && sim_network_ == nullptr) {
      throw std::invalid_argument("Campaign: " + event.describe() +
                                  " needs the simulated network");
    }
  }
  m_phases_ = &metrics_.counter("dat_chaos_phases_total");
  m_phase_failures_ = &metrics_.counter("dat_chaos_phase_failures_total");
  m_recovery_epochs_ = &metrics_.histogram("dat_chaos_recovery_epochs");
  m_phase_duration_us_ = &metrics_.histogram("dat_chaos_phase_duration_us");
  plan_.sort_events();
  // Same key layout as core::ReplicatedAggregate: replica i rendezvouses at
  // H(name "#" i). Registering through the cluster keeps restarted slots
  // contributing without campaign-side bookkeeping.
  harness::Fleet::LocalValueFactory local =
      options_.local_values
          ? options_.local_values
          : [](std::size_t slot) -> core::DatNode::LocalValueFn {
              return [slot] { return static_cast<double>(slot); };
            };
  keys_.reserve(options_.replicas);
  for (unsigned i = 0; i < options_.replicas; ++i) {
    keys_.push_back(cluster_.start_aggregate_everywhere(
        options_.aggregate + "#" + std::to_string(i), options_.kind,
        options_.scheme, local));
  }
  all_keys_ = keys_;
  // The skewed workload: hot trees push at a fraction of the base period,
  // concentrating update volume on a few keys (90/10 with the defaults of
  // the rebalance-skew campaign). Registered cluster-wide like the
  // replicas, so churned slots keep contributing to the skew.
  if (options_.rebalance.hot_aggregates > 0) {
    const std::uint64_t base_epoch_us =
        cluster_.dat(probe_slot()).options().epoch_us;
    const std::uint64_t hot_epoch_us = options_.rebalance.hot_epoch_us != 0
                                           ? options_.rebalance.hot_epoch_us
                                           : base_epoch_us / 10;
    for (unsigned i = 0; i < options_.rebalance.hot_aggregates; ++i) {
      all_keys_.push_back(cluster_.start_aggregate_everywhere(
          options_.aggregate + "-hot#" + std::to_string(i), options_.kind,
          options_.scheme, local, hot_epoch_us));
    }
  }
}

void Campaign::note(const std::string& line) {
  report_.event_log.push_back(line);
  DAT_LOG_INFO("chaos", line);
}

std::size_t Campaign::probe_slot() const {
  for (std::size_t i = 0; i < cluster_.slot_count(); ++i) {
    if (cluster_.is_live(i) && !partitioned_.contains(i)) return i;
  }
  throw std::logic_error("Campaign: no reachable live slot to probe from");
}

net::RpcStats Campaign::live_rpc_stats() const {
  net::RpcStats total;
  for (std::size_t i = 0; i < cluster_.slot_count(); ++i) {
    if (!cluster_.is_live(i)) continue;
    total += cluster_.node(i).rpc().stats();
  }
  return total;
}

void Campaign::apply(const FaultEvent& event) {
  note(event.describe());
  // Find-or-create per fault kind: apply() runs a handful of times per
  // campaign, so the registry lookup is not a hot path.
  metrics_.counter("dat_chaos_faults_total",
                   {{"kind", fault_kind_label(event.kind)}})
      .inc();
  switch (event.kind) {
    case FaultKind::kCrash:
    case FaultKind::kLeave:
    case FaultKind::kSigkill:
    case FaultKind::kSigterm:
    case FaultKind::kSigabrt: {
      if (!cluster_.is_live(event.slot)) {
        throw std::logic_error("Campaign: " + event.describe() +
                               " targets a dead slot");
      }
      // A destroyed endpoint must not linger in the fabric's partition set.
      if (const auto it = partitioned_.find(event.slot);
          it != partitioned_.end()) {
        sim_network_->set_partitioned(it->second, false);
        partitioned_.erase(it);
      }
      // In the sim, a SIGKILL is an abrupt crash; a SIGTERM is what datd
      // does on one: re-parent every subtree upstream and retract its
      // records, then leave the ring cleanly.
      const bool graceful = event.kind == FaultKind::kLeave ||
                            event.kind == FaultKind::kSigterm;
      if (event.kind == FaultKind::kSigterm) {
        const auto drained =
            lb::drain_node(cluster_.dat(event.slot), options_.rebalance.policy);
        note("t=" + std::to_string(event.at_us / 1000) + "ms drain slot=" +
             std::to_string(event.slot) + " keys=" +
             std::to_string(drained.keys) + " moved=" +
             std::to_string(drained.children_moved) + " retracts=" +
             std::to_string(drained.retracts_sent));
      }
      cluster_.remove_node(event.slot, graceful);
      if (options_.refresh_hints) cluster_.refresh_d0_hints();
      break;
    }
    case FaultKind::kRestart: {
      if (!cluster_.restart_node(event.slot)) {
        note("t=" + std::to_string(event.at_us / 1000) + "ms restart slot=" +
             std::to_string(event.slot) + " FAILED");
        report_.violations.push_back("restart failed for slot " +
                                     std::to_string(event.slot));
      }
      break;
    }
    case FaultKind::kLossBurst:
      sim_network_->loss_burst(event.magnitude, event.duration_us);
      break;
    case FaultKind::kLatencyBurst:
      sim_network_->latency_burst(event.magnitude, event.duration_us);
      break;
    case FaultKind::kPartition: {
      const net::Endpoint ep = cluster_.node(event.slot).self().endpoint;
      sim_network_->set_partitioned(ep, true);
      partitioned_[event.slot] = ep;
      break;
    }
    case FaultKind::kHeal: {
      const auto it = partitioned_.find(event.slot);
      if (it == partitioned_.end()) {
        throw std::logic_error("Campaign: " + event.describe() +
                               " targets a slot that is not partitioned");
      }
      sim_network_->set_partitioned(it->second, false);
      partitioned_.erase(it);
      break;
    }
    case FaultKind::kVerify:
      report_.phases.push_back(run_verify(event));
      break;
    case FaultKind::kRebalance:
      run_rebalance(event);
      break;
  }
}

std::size_t Campaign::measured_max_branching() {
  std::size_t max_children = 0;
  for (std::size_t i = 0; i < cluster_.slot_count(); ++i) {
    if (!cluster_.is_live(i)) continue;
    for (const Id key : all_keys_) {
      max_children = std::max(max_children, cluster_.dat(i).child_count(key));
    }
  }
  return max_children;
}

void Campaign::run_rebalance(const FaultEvent& event) {
  const std::uint64_t epoch_us =
      cluster_.dat(probe_slot()).options().epoch_us;
  if (!rebalancer_) {
    lb::RebalancerOptions lb_options;
    lb_options.policy = options_.rebalance.policy;
    lb_options.epoch_us = epoch_us;
    rebalancer_ = std::make_unique<lb::Rebalancer>(cluster_, all_keys_,
                                                   lb_options, &metrics_);
  }
  lb_.ran = true;
  lb_.epochs = 0;
  lb_.initial_max_branching = measured_max_branching();
  lb_.final_max_branching = lb_.initial_max_branching;
  lb_.converged =
      lb_.initial_max_branching <= options_.rebalance.slo_max_branching;
  note("t=" + std::to_string(event.at_us / 1000) +
       "ms rebalance start branching=" +
       std::to_string(lb_.initial_max_branching) +
       " slo=" + std::to_string(options_.rebalance.slo_max_branching));
  // One measured round per epoch: measure -> decide -> apply, then run the
  // cluster one push period so handoffs re-home and soft state expires
  // before the next measurement.
  while (!lb_.converged && lb_.epochs < options_.rebalance.slo_max_epochs) {
    const lb::RoundReport round = rebalancer_->run_round();
    lb_.migrations += round.migrations;
    lb_.sheds += round.sheds;
    cluster_.run_for(epoch_us);
    ++lb_.epochs;
    lb_.final_max_branching = measured_max_branching();
    lb_.converged =
        lb_.final_max_branching <= options_.rebalance.slo_max_branching;
    note("t=" + std::to_string(event.at_us / 1000) + "ms rebalance epoch=" +
         std::to_string(lb_.epochs) + " " + round.to_string() +
         " -> branching=" + std::to_string(lb_.final_max_branching));
  }
  note("t=" + std::to_string(event.at_us / 1000) + "ms rebalance " +
       (lb_.converged ? "converged" : "FAILED to converge") + " epochs=" +
       std::to_string(lb_.epochs) +
       " branching=" + std::to_string(lb_.final_max_branching));
  lb_pending_report_ = true;
}

Campaign::Probe Campaign::probe_coverage() {
  Probe best;
  core::DatNode& probe = cluster_.dat(probe_slot());
  // A healed or re-parented ex-root can hold a stale global with an
  // inflated count; only values pushed within the last two epochs count.
  const std::uint64_t freshness = 2 * probe.options().epoch_us + 100'000;
  for (const Id key : keys_) {
    // The callback must own its landing pad: a query towards a partitioned
    // root can outlive this probe's patience (retries keep the RPC pending),
    // and the late response would otherwise write to a dead stack frame.
    struct Pending {
      bool done = false;
      net::RpcStatus status = net::RpcStatus::kTimeout;
      std::optional<core::GlobalValue> value;
    };
    auto pending = std::make_shared<Pending>();
    probe.query_global(key, [pending](net::RpcStatus s,
                                      std::optional<core::GlobalValue> v) {
      pending->done = true;
      pending->status = s;
      pending->value = std::move(v);
    });
    const std::uint64_t deadline =
        cluster_.now_us() + options_.probe_timeout_us;
    while (!pending->done && cluster_.now_us() < deadline) {
      cluster_.run_for(10'000);
    }
    if (pending->done && pending->status == net::RpcStatus::kOk &&
        pending->value.has_value()) {
      ++best.roots_answered;
      const bool fresh =
          pending->value->updated_at_us + freshness >= cluster_.now_us();
      if (fresh) {
        best.coverage =
            std::max(best.coverage,
                     static_cast<std::size_t>(pending->value->state.count));
      }
    }
  }
  return best;
}

PhaseReport Campaign::run_verify(const FaultEvent& event) {
  PhaseReport phase;
  phase.phase = ++phase_;
  phase.at_us = event.at_us;
  const std::uint64_t phase_start_us = cluster_.now_us();

  cluster_.run_for(options_.quiesce_us);

  phase.live = cluster_.live_count();
  phase.expected_coverage = phase.live - partitioned_.size();

  // Structural invariants hold at any instant, partitions included.
  try {
    cluster_.assert_local_invariants();
    phase.invariants_ok = true;
  } catch (const std::logic_error& err) {
    report_.violations.push_back(err.what());
  }

  // Ring convergence (and the converged-tree checks inside wait_converged)
  // is only a meaningful target when every live node is reachable.
  if (partitioned_.empty()) {
    phase.ring_checked = true;
    try {
      phase.ring_converged =
          cluster_.wait_converged(options_.converge_timeout_us);
      if (!phase.ring_converged) {
        report_.violations.push_back(
            "phase " + std::to_string(phase.phase) +
            ": ring did not re-converge within budget");
      }
    } catch (const std::logic_error& err) {
      report_.violations.push_back(err.what());
    }
  }

  // Recovery SLO: the widest fresh replica coverage must reach the
  // reachable population within max_recovery_epochs continuous epochs.
  const std::uint64_t epoch_us =
      cluster_.dat(probe_slot()).options().epoch_us;
  Probe probe = probe_coverage();
  unsigned epochs = 0;
  while (probe.coverage < phase.expected_coverage &&
         epochs < options_.max_recovery_epochs) {
    cluster_.run_for(epoch_us);
    ++epochs;
    probe = probe_coverage();
  }
  phase.observed_coverage = probe.coverage;
  phase.epochs_to_recover = epochs;
  phase.roots_answered = probe.roots_answered;
  phase.coverage_ok = probe.coverage >= phase.expected_coverage;
  phase.query_ok = probe.roots_answered >= 1;
  phase.rpc = live_rpc_stats();

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
          "phase " + std::to_string(phase.phase) +
          ": rebalancer missed the branching SLO (" +
          std::to_string(lb_.final_max_branching) + " > " +
          std::to_string(options_.rebalance.slo_max_branching) + " after " +
          std::to_string(lb_.epochs) + " epochs)");
    }
  }

  // Self-monitoring gate: the probe node's own coverage alert must agree
  // with ground truth — firing while the reachable population is short of
  // the configured fleet, clear once it is whole again. Alert transitions
  // need fire/clear hysteresis epochs, so poll up to the epoch budget.
  if (options_.check_selfmon) {
    phase.selfmon_checked = true;
    obs::SelfMonitor* monitor = cluster_.selfmon(probe_slot());
    if (monitor == nullptr) {
      report_.violations.push_back(
          "phase " + std::to_string(phase.phase) +
          ": check_selfmon set but the probe slot has no SelfMonitor");
    } else {
      const std::uint64_t selfmon_epoch_us = monitor->options().epoch_us;
      const bool expect_firing =
          phase.expected_coverage < monitor->options().fleet_size;
      while (monitor->alert_firing("coverage") != expect_firing &&
             phase.selfmon_epochs < options_.selfmon_max_epochs) {
        cluster_.run_for(selfmon_epoch_us);
        ++phase.selfmon_epochs;
      }
      phase.selfmon_firing = monitor->alert_firing("coverage");
      phase.selfmon_ok = phase.selfmon_firing == expect_firing;
      if (!phase.selfmon_ok) {
        report_.violations.push_back(
            "phase " + std::to_string(phase.phase) + ": coverage alert " +
            (phase.selfmon_firing ? "firing" : "clear") + ", expected " +
            (expect_firing ? "firing" : "clear") + " after " +
            std::to_string(phase.selfmon_epochs) + " epochs");
      }
    }
  }

  m_phases_->inc();
  if (!phase.ok()) m_phase_failures_->inc();
  m_recovery_epochs_->observe(phase.epochs_to_recover);
  m_phase_duration_us_->observe(cluster_.now_us() - phase_start_us);

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
  const std::uint64_t start = cluster_.now_us();
  for (const FaultEvent& event : plan_.events) {
    if (options_.interrupted && options_.interrupted()) {
      report_.interrupted = true;
      note("campaign interrupted before " + event.describe());
      break;
    }
    const std::uint64_t at = start + event.at_us;
    if (cluster_.now_us() < at) {
      cluster_.run_for(at - cluster_.now_us());
    }
    apply(event);
  }
  return std::move(report_);
}

}  // namespace dat::chaos
