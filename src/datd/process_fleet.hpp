#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/target.hpp"
#include "datd/admin.hpp"

namespace dat::datd {

/// Knobs of a forked datd fleet; the aggregate every daemon runs comes from
/// the campaign (Target::start_replicas).
struct ProcessFleetOptions {
  std::size_t nodes = 64;          ///< slot i binds 127.0.0.1:base_port+i
  std::uint16_t base_port = 9400;
  std::string datd_path;           ///< path to the datd binary (required)
  std::uint64_t seed = 1;          ///< slot i's rng seed is seed*1000+i+1
  std::uint64_t epoch_ms = 150;            ///< DAT push period
  std::uint64_t drain_deadline_ms = 5000;  ///< SIGTERM hard deadline
  /// Crash-dump directory (empty = off); a SIGABRT victim's dump is
  /// archived as archived-postmortem-slot<i>-<pid>.json.
  std::string postmortem_dir;
  /// Recovery SLO: every check of a verify phase holds in one pass within.
  std::uint64_t verify_window_ms = 15'000;
};

/// Real datd daemons on loopback, one forked process per slot, as a
/// chaos::Target: Campaign judges the phases, this class does the process
/// work. Slot 0 creates the ring, the others join through it; crash and
/// SIGKILL kill, SIGABRT makes a daemon dump a postmortem, leave and
/// SIGTERM drain, restart respawns with a bumped incarnation. Its checks:
/// boot within kBootTimeoutMs; victims die by their signal, a SIGTERM one
/// by exit 0 within its drain deadline plus 3 s, a SIGABRT one leaving a
/// dump; await_converged() wants every live daemon joined at its spawned
/// incarnation in one successor cycle; check_structure() wants
/// dat_daemon_uptime_us on the probe daemon's metrics page.
class ProcessFleet final : public chaos::Target {
 public:
  /// Boot SLO: every daemon reports a joined ring within this window.
  static constexpr std::uint64_t kBootTimeoutMs = 60'000;

  /// Forks nothing: boot() starts the daemons once the campaign has
  /// accepted its plan and registered the aggregate.
  explicit ProcessFleet(ProcessFleetOptions options);
  ~ProcessFleet() override;  ///< SIGKILLs and reaps every daemon still up

  [[nodiscard]] std::size_t slot_count() const override {
    return slots_.size();
  }
  [[nodiscard]] bool is_live(std::size_t slot) const override {
    return slot < slots_.size() && slots_[slot].alive;
  }
  /// Wall-clock microseconds; run_for sleeps, cut short by a pending
  /// SIGINT/SIGTERM so the campaign's interrupt hook sees it promptly.
  [[nodiscard]] std::uint64_t now_us() const override;
  void run_for(std::uint64_t us) override;
  [[nodiscard]] std::uint64_t epoch_us() override {
    return options_.epoch_ms * 1000;
  }

  [[nodiscard]] bool exact_aggregates() const override { return true; }
  [[nodiscard]] std::uint64_t verify_window_us() const override {
    return options_.verify_window_ms * 1000;
  }
  /// Records the one replicated aggregate the daemons will run and returns
  /// no keys: boot() reads them from slot 0. Throws std::invalid_argument
  /// on a second aggregate or a per-tree period.
  std::vector<Id> start_replicas(const std::string& name, unsigned replicas,
                                 core::AggregateKind kind,
                                 chord::RoutingScheme scheme,
                                 std::uint64_t epoch_us) override;
  bool boot(const chaos::Journal& journal, std::vector<Id>& keys) override;

  void apply(const chaos::FaultEvent& event,
             const chaos::Journal& journal) override;

  void check_structure() override;
  std::string await_converged(std::uint64_t budget_us) override;
  std::vector<std::vector<chaos::RootAnswer>> probe_roots(
      const std::vector<Id>& keys) override;
  std::optional<chaos::AlertReading> coverage_alert() override;

  /// Branching is not observable over the admin RPCs.
  std::optional<std::size_t> max_branching(const std::vector<Id>&) override {
    return std::nullopt;
  }
  /// One `datd.rebalance` shed round on every live daemon.
  chaos::RebalanceRound rebalance_round(
      const std::vector<Id>& keys, obs::MetricsRegistry& metrics) override;

 private:
  struct Slot {
    long pid = -1;
    std::uint64_t incarnation = 0;
    bool alive = false;
  };

  [[nodiscard]] bool spawn(std::size_t slot, const chaos::Journal& journal);
  [[nodiscard]] net::Endpoint endpoint(std::size_t slot) const;

  ProcessFleetOptions options_;
  AdminClient admin_;
  std::vector<Slot> slots_;
  /// The campaign's aggregate, as datd flags.
  std::vector<std::string> aggregate_args_;
};

}  // namespace dat::datd
