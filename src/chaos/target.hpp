#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/plan.hpp"
#include "chord/routing.hpp"
#include "common/id_space.hpp"
#include "dat/aggregate.hpp"
#include "net/rpc.hpp"
#include "obs/metrics.hpp"

namespace dat::chaos {

/// Where a target reports while it acts for the campaign: notes land in the
/// campaign's event log, failed checks in its violations.
struct Journal {
  std::vector<std::string>& log;
  std::vector<std::string>& violations;

  void note(const std::string& line) const;
  void violation(const std::string& what) const { violations.push_back(what); }
};

/// A replica root's global. `fresh`: pushed within the last two epochs; a
/// target that cannot compare clocks with the root reports true.
struct RootAnswer {
  std::uint64_t count = 0;
  double sum = 0.0;
  bool fresh = true;
};

/// The probe node's coverage alert, the fleet size its rule compares the
/// live population with, and the self-monitoring epoch it changes at.
struct AlertReading {
  bool firing = false;
  std::size_t fleet_size = 0;
  std::uint64_t epoch_us = 0;
};

/// Every slot's local sample: its own index, fixed and distinct per slot,
/// so the exact rule's sum catches a lost or doubled contributor.
inline double slot_value(std::size_t slot) { return static_cast<double>(slot); }

struct RebalanceRound {
  std::string summary;  ///< one-line rendering for the event log
  std::size_t migrations = 0;
  std::size_t sheds = 0;
};

/// A fleet chaos::Campaign can drive. The campaign walks the plan and
/// judges every verify phase; a target only acts on its slots and reports
/// what it observes. Campaign's FleetTarget serves every in-process
/// harness::Fleet; datd::ProcessFleet serves forked datd daemons.
class Target {
 public:
  virtual ~Target() = default;

  [[nodiscard]] virtual std::size_t slot_count() const = 0;
  [[nodiscard]] virtual bool is_live(std::size_t slot) const = 0;
  /// Live and not cut off by a partition: a replica root can cover it.
  [[nodiscard]] virtual bool is_reachable(std::size_t slot) const {
    return is_live(slot);
  }
  [[nodiscard]] std::size_t live_count() const;
  [[nodiscard]] std::size_t reachable_count() const;
  /// The lowest reachable slot, which queries roots and reads its alert;
  /// throws std::logic_error when there is none.
  [[nodiscard]] std::size_t probe_slot() const;
  [[nodiscard]] virtual std::uint64_t now_us() const = 0;
  virtual void run_for(std::uint64_t us) = 0;
  /// Push period of the fleet's DAT trees.
  [[nodiscard]] virtual std::uint64_t epoch_us() = 0;

  /// Loss, latency and partition faults need a simulated network.
  [[nodiscard]] virtual bool simulates_network() const { return false; }
  /// The coverage rule the campaign holds this target to. True: every
  /// replica key has a root whose count equals the live population and
  /// whose sum equals the live slots' values. False: the widest fresh
  /// coverage reaches at least the reachable population.
  [[nodiscard]] virtual bool exact_aggregates() const = 0;

  /// Registers `replicas` trees keyed H(name "#" i) on every slot, restarted
  /// ones included, each slot sampling slot_value(slot); returns the keys,
  /// or none when boot() learns them. `epoch_us` 0 keeps the push period.
  virtual std::vector<Id> start_replicas(const std::string& name,
                                         unsigned replicas,
                                         core::AggregateKind kind,
                                         chord::RoutingScheme scheme,
                                         std::uint64_t epoch_us) = 0;
  /// Brings the fleet up before the first event and sets `keys` to the
  /// replica keys it serves, if start_replicas() left them to it; false,
  /// after journaling why, when it missed its boot SLO. In-process fleets
  /// boot when built.
  virtual bool boot(const Journal& /*journal*/, std::vector<Id>& /*keys*/) {
    return true;
  }
  /// Wall-clock window in which every check of a verify phase must hold
  /// in one pass; 0 for none: each check then waits within the campaign's
  /// budgets alone.
  [[nodiscard]] virtual std::uint64_t verify_window_us() const { return 0; }

  /// Applies a fault (never a verify or rebalance).
  virtual void apply(const FaultEvent& event, const Journal& journal) = 0;

  /// Checks that hold at any instant, partitions included; throws
  /// std::logic_error naming the violation.
  virtual void check_structure() = 0;
  /// Waits up to `budget_us` for the ring to converge over the live slots;
  /// returns what was still wrong, or "". May throw std::logic_error.
  virtual std::string await_converged(std::uint64_t budget_us) = 0;
  /// answers[k]: what keys[k]'s roots said (empty when none answered).
  virtual std::vector<std::vector<RootAnswer>> probe_roots(
      const std::vector<Id>& keys) = 0;
  /// The probe node's coverage alert; nullopt when it cannot be read.
  virtual std::optional<AlertReading> coverage_alert() = 0;
  /// RPC counters summed over the live slots' protocol stacks.
  [[nodiscard]] virtual net::RpcStats rpc_stats() const { return {}; }

  /// Max fresh child count of any of `keys` on any live slot; nullopt when
  /// the target cannot observe branching.
  virtual std::optional<std::size_t> max_branching(
      const std::vector<Id>& keys) = 0;
  /// One rebalancing round over `keys`; dat_lb_* series land in `metrics`.
  virtual RebalanceRound rebalance_round(const std::vector<Id>& keys,
                                         obs::MetricsRegistry& metrics) = 0;
};

}  // namespace dat::chaos
