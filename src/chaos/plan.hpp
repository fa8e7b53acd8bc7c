#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dat::chaos {

/// One kind of injected fault (or control point) in a chaos timeline.
enum class FaultKind : std::uint8_t {
  kCrash = 0,        ///< abrupt failure of a slot, no departure notice
  kLeave = 1,        ///< graceful departure of a slot
  kRestart = 2,      ///< rejoin a previously crashed/departed slot
  kLossBurst = 3,    ///< uniform datagram loss `magnitude` for `duration_us`
  kLatencyBurst = 4, ///< latency multiplier `magnitude` for `duration_us`
  kPartition = 5,    ///< slot becomes unreachable (stays alive)
  kHeal = 6,         ///< partition on slot is lifted
  kVerify = 7,       ///< quiesce, then run the recovery verifier
  kRebalance = 8,    ///< run the measurement-driven rebalancer to its SLO
  kSigkill = 9,      ///< SIGKILL a daemon process (abrupt, like kCrash)
  kSigterm = 10,     ///< SIGTERM a daemon: graceful drain, then clean leave
  kSigabrt = 11,     ///< SIGABRT a daemon: crash that leaves a postmortem
                     ///< dump for the process fleet to archive (sim: crash)
};

[[nodiscard]] const char* to_string(FaultKind k) noexcept;

/// One scheduled event of a ChaosPlan. Which fields matter depends on the
/// kind: slot for crash/leave/restart/partition/heal, magnitude+duration
/// for the bursts, nothing extra for verify.
struct FaultEvent {
  std::uint64_t at_us = 0;
  FaultKind kind = FaultKind::kVerify;
  std::size_t slot = 0;
  double magnitude = 0.0;
  std::uint64_t duration_us = 0;

  /// Stable one-line rendering, e.g. "t=1200ms crash slot=3"; used for the
  /// deterministic event log that same-seed runs must reproduce bit-exact.
  [[nodiscard]] std::string describe() const;
  /// The kind names a victim slot: all but bursts, verify and rebalance.
  [[nodiscard]] bool has_slot() const noexcept;
};

/// A seeded, scripted timeline of fault events executed against a cluster
/// by chaos::Campaign. Events run in at_us order (ties keep insertion
/// order); every kVerify event closes a phase and triggers the verifier.
struct ChaosPlan {
  std::uint64_t seed = 1;
  std::size_t nodes = 16;
  /// Deployment directive for the campaign runner: build the cluster with
  /// random identifier assignment instead of probing joins. Random ids give
  /// the unbalanced trees (max branching 7+ at n >= 16, Fig. 7a) that the
  /// rebalance event is then expected to repair.
  bool random_ids = false;
  std::vector<FaultEvent> events;

  // Builder-style helpers; times are virtual microseconds from campaign
  // start. Each returns *this for chaining.
  ChaosPlan& add(FaultEvent event) {
    events.push_back(event);
    return *this;
  }
  ChaosPlan& crash(std::uint64_t at_us, std::size_t slot) {
    return add({at_us, FaultKind::kCrash, slot});
  }
  ChaosPlan& leave(std::uint64_t at_us, std::size_t slot) {
    return add({at_us, FaultKind::kLeave, slot});
  }
  ChaosPlan& restart(std::uint64_t at_us, std::size_t slot) {
    return add({at_us, FaultKind::kRestart, slot});
  }
  ChaosPlan& loss_burst(std::uint64_t at_us, double rate,
                        std::uint64_t duration_us) {
    return add({at_us, FaultKind::kLossBurst, 0, rate, duration_us});
  }
  ChaosPlan& latency_burst(std::uint64_t at_us, double multiplier,
                           std::uint64_t duration_us) {
    return add({at_us, FaultKind::kLatencyBurst, 0, multiplier, duration_us});
  }
  ChaosPlan& partition(std::uint64_t at_us, std::size_t slot) {
    return add({at_us, FaultKind::kPartition, slot});
  }
  ChaosPlan& heal(std::uint64_t at_us, std::size_t slot) {
    return add({at_us, FaultKind::kHeal, slot});
  }
  ChaosPlan& verify(std::uint64_t at_us) {
    return add({at_us, FaultKind::kVerify});
  }
  ChaosPlan& rebalance(std::uint64_t at_us) {
    return add({at_us, FaultKind::kRebalance});
  }
  ChaosPlan& sigkill(std::uint64_t at_us, std::size_t slot) {
    return add({at_us, FaultKind::kSigkill, slot});
  }
  ChaosPlan& sigterm(std::uint64_t at_us, std::size_t slot) {
    return add({at_us, FaultKind::kSigterm, slot});
  }
  ChaosPlan& sigabrt(std::uint64_t at_us, std::size_t slot) {
    return add({at_us, FaultKind::kSigabrt, slot});
  }

  /// Orders events by at_us (stable: simultaneous events keep the order
  /// they were added in). Campaign calls this before executing.
  void sort_events();

  /// Number of kVerify events, i.e. phases the campaign reports on.
  [[nodiscard]] std::size_t phases() const;

  /// Renders the plan back to the text-spec format parse() accepts.
  [[nodiscard]] std::string to_spec() const;

  /// Parses the line-based spec format (times in milliseconds):
  ///
  ///   # comment / blank lines ignored
  ///   seed <n>
  ///   nodes <n>
  ///   assign random|probed
  ///   <at_ms> crash <slot>
  ///   <at_ms> leave <slot>
  ///   <at_ms> restart <slot>
  ///   <at_ms> loss <rate> <duration_ms>
  ///   <at_ms> latency <multiplier> <duration_ms>
  ///   <at_ms> partition <slot>
  ///   <at_ms> heal <slot>
  ///   <at_ms> verify
  ///   <at_ms> rebalance
  ///   <at_ms> sigkill <slot>
  ///   <at_ms> sigterm <slot>
  ///   <at_ms> sigabrt <slot>
  ///
  /// Throws std::invalid_argument with the offending line on bad input:
  /// malformed fields, unknown verbs, duplicate seed/nodes/assign lines, a
  /// zero node count, or a slot-bearing event whose victim is outside
  /// [0, nodes).
  [[nodiscard]] static ChaosPlan parse(std::string_view spec);

  /// The canonical seeded campaign used by tests and the CI soak: a mix of
  /// crash+rejoin, graceful leave, a 20% loss burst, a partition+heal and a
  /// latency spike, with a verify point after each disturbance. Slot
  /// choices are drawn from Rng(seed), so the timeline is a pure function
  /// of (seed, nodes).
  [[nodiscard]] static ChaosPlan canonical(std::uint64_t seed,
                                           std::size_t nodes);

  /// The rebalancing SLO campaign: the cluster deploys with random ids
  /// (unbalanced trees), a verify phase measures the skewed baseline, then
  /// a rebalance event activates the measurement-driven rebalancer, and a
  /// closing verify phase asserts both the usual recovery checks and the
  /// branching SLO (see CampaignOptions::rebalance). Timeline is a pure
  /// function of (seed, nodes).
  [[nodiscard]] static ChaosPlan rebalance_skew(std::uint64_t seed,
                                                std::size_t nodes);

  /// The canonical process-level kill plan the daemon-soak CI job runs: a
  /// fleet of `nodes` real datd processes gets a baseline verify, a SIGKILL
  /// wave hitting 25% of the fleet, a verify, restarts of half the killed
  /// slots (bumped incarnations), a verify, a SIGTERM wave draining 10%
  /// gracefully, and a closing verify. Slot 0 (the bootstrap seed every
  /// restarted daemon rejoins through) is never a victim. Victim choices
  /// are drawn from Rng(seed), so the timeline is a pure function of
  /// (seed, nodes).
  [[nodiscard]] static ChaosPlan process_canonical(std::uint64_t seed,
                                                   std::size_t nodes);

  /// The self-monitoring SLO campaign (sim variant): a baseline verify with
  /// every alert clear, a crash wave over 25% of the fleet whose closing
  /// verify must observe the coverage alert FIRING, restarts of every
  /// victim, and a final verify that must observe it CLEAR again. Slot 0 is
  /// never a victim (it is the campaign's probe node). Timeline is a pure
  /// function of (seed, nodes).
  [[nodiscard]] static ChaosPlan selfmon(std::uint64_t seed,
                                         std::size_t nodes);

  /// The self-monitoring SLO campaign against real datd processes: same
  /// fire-then-clear shape as selfmon(), except the first victim dies by
  /// SIGABRT — exercising the crash-postmortem path the process fleet
  /// archives — and the rest by SIGKILL.
  [[nodiscard]] static ChaosPlan process_selfmon(std::uint64_t seed,
                                                 std::size_t nodes);
};

}  // namespace dat::chaos
