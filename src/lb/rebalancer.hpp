#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lb/load.hpp"
#include "lb/policy.hpp"
#include "obs/metrics.hpp"

namespace dat::lb {

struct RebalancerOptions {
  PolicyOptions policy{};
  /// Base push period of the tracked aggregates; update_rate is normalized
  /// to updates per this interval.
  std::uint64_t epoch_us = 500'000;
};

/// What one measurement + decision + apply cycle did.
struct RoundReport {
  std::size_t round = 0;
  double gap_ratio = 1.0;        ///< measured before acting
  std::size_t max_children = 0;  ///< measured before acting
  std::size_t migrations = 0;
  std::size_t migration_failures = 0;
  std::size_t sheds = 0;
  std::size_t children_moved = 0;
  /// No action was needed (the plan came back empty).
  bool balanced = false;

  [[nodiscard]] std::string to_string() const;
};

/// The periodic measurement-driven load balancer (Sec. 4 of the paper made
/// concrete through the Charm++ CentralLB shape): each round snapshots every
/// node's dat_tree_* gauges into a ClusterLoad, runs the pure
/// plan_rebalance() policy, then applies the plan to the harness::Fleet —
/// identifier migrations as graceful leave + forced-id rejoin, branching
/// overflow as child handoffs to a relay node.
class Rebalancer {
 public:
  /// `registry` receives the dat_lb_* counters/gauges; pass the campaign or
  /// cluster registry to surface them in dumps, or nullptr to keep them in
  /// an internal registry (still readable via metrics()).
  Rebalancer(harness::Fleet& fleet, std::vector<Id> keys,
             RebalancerOptions options,
             obs::MetricsRegistry* registry = nullptr);

  /// Runs one measure -> decide -> apply cycle.
  RoundReport run_round();

  [[nodiscard]] const std::vector<RoundReport>& history() const noexcept {
    return history_;
  }
  [[nodiscard]] const RebalancerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return *registry_; }

 private:
  harness::Fleet& fleet_;
  std::vector<Id> keys_;
  RebalancerOptions options_;
  obs::MetricsRegistry own_registry_;
  obs::MetricsRegistry* registry_;
  /// Last observed dat_tree_updates_in per (slot, key), for rate deltas.
  std::map<std::pair<std::size_t, Id>, std::uint64_t> last_updates_;
  std::vector<RoundReport> history_;

  obs::Counter* m_rounds_;
  obs::Counter* m_migrations_;
  obs::Counter* m_migration_failures_;
  obs::Counter* m_sheds_;
  obs::Counter* m_children_moved_;
  obs::Gauge* m_gap_ratio_x1000_;
  obs::Gauge* m_max_branching_;
};

}  // namespace dat::lb
