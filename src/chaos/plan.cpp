#include "chaos/plan.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"

namespace dat::chaos {

const char* to_string(FaultKind k) noexcept {
  // Indexed by the enumerator values; these are also the plan-spec verbs.
  static constexpr const char* kNames[] = {
      "crash", "leave",  "restart",   "loss",    "latency", "partition",
      "heal",  "verify", "rebalance", "sigkill", "sigterm", "sigabrt"};
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kNames) ? kNames[i] : "?";
}

bool FaultEvent::has_slot() const noexcept {
  return kind != FaultKind::kLossBurst && kind != FaultKind::kLatencyBurst &&
         kind != FaultKind::kVerify && kind != FaultKind::kRebalance;
}

std::string FaultEvent::describe() const {
  std::ostringstream oss;
  oss << "t=" << at_us / 1000 << "ms " << to_string(kind);
  if (has_slot()) {
    oss << " slot=" << slot;
  } else if (kind == FaultKind::kLossBurst ||
             kind == FaultKind::kLatencyBurst) {
    oss << " x=" << magnitude << " for=" << duration_us / 1000 << "ms";
  }
  return oss.str();
}

void ChaosPlan::sort_events() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_us < b.at_us;
                   });
}

std::size_t ChaosPlan::phases() const {
  std::size_t n = 0;
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kVerify) ++n;
  }
  return n;
}

std::string ChaosPlan::to_spec() const {
  std::ostringstream oss;
  oss << "seed " << seed << "\n";
  oss << "nodes " << nodes << "\n";
  // Only a non-default assignment line is spelled out, keeping legacy
  // plans' parse -> to_spec round trips byte-identical.
  if (random_ids) oss << "assign random\n";
  for (const FaultEvent& e : events) {
    oss << e.at_us / 1000 << " " << to_string(e.kind);
    if (e.has_slot()) {
      oss << " " << e.slot;
    } else if (e.kind == FaultKind::kLossBurst ||
               e.kind == FaultKind::kLatencyBurst) {
      oss << " " << e.magnitude << " " << e.duration_us / 1000;
    }
    oss << "\n";
  }
  return oss.str();
}

namespace {

[[noreturn]] void bad_line(const std::string& line, const char* why) {
  throw std::invalid_argument(std::string("ChaosPlan::parse: ") + why +
                              " in line: \"" + line + "\"");
}

}  // namespace

ChaosPlan ChaosPlan::parse(std::string_view spec) {
  ChaosPlan plan;
  std::istringstream input{std::string(spec)};
  std::string line;
  std::set<std::string> headers;
  while (std::getline(input, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);

    std::string head;
    fields >> head;
    if (head == "seed" || head == "nodes" || head == "assign") {
      if (!headers.insert(head).second) {
        bad_line(line, ("duplicate " + head).c_str());
      }
      std::string value;
      if (!(fields >> value)) bad_line(line, "missing value");
      if (head == "assign") {
        if (value != "random" && value != "probed") {
          bad_line(line, "unknown assign");
        }
        plan.random_ids = value == "random";
      } else {
        std::istringstream number(value);
        std::uint64_t n = 0;
        if (!(number >> n) || (head == "nodes" && n == 0)) {
          bad_line(line, ("bad " + head).c_str());
        }
        if (head == "seed") plan.seed = n; else plan.nodes = n;
      }
      continue;
    }

    std::uint64_t at_ms = 0;
    try {
      at_ms = std::stoull(head);
    } catch (const std::exception&) {
      bad_line(line, "expected a millisecond timestamp");
    }
    const std::uint64_t at_us = at_ms * 1000;

    std::string verb;
    if (!(fields >> verb)) bad_line(line, "missing event verb");
    // Event verbs are the FaultKind names.
    FaultEvent event{at_us, FaultKind::kCrash};
    while (verb != to_string(event.kind)) {
      if (event.kind == FaultKind::kSigabrt) bad_line(line, "unknown verb");
      event.kind = static_cast<FaultKind>(static_cast<int>(event.kind) + 1);
    }
    if (event.has_slot() && !(fields >> event.slot)) {
      bad_line(line, "missing slot");
    }
    if (event.kind == FaultKind::kLossBurst ||
        event.kind == FaultKind::kLatencyBurst) {
      std::uint64_t duration_ms = 0;
      if (!(fields >> event.magnitude >> duration_ms)) {
        bad_line(line, "expected <magnitude> <duration_ms>");
      }
      event.duration_us = duration_ms * 1000;
    }
    plan.add(event);
  }
  // Victim slots can only be range-checked once the node count is final
  // (the `nodes` line may legally follow the events it governs).
  for (const FaultEvent& e : plan.events) {
    if (e.has_slot() && e.slot >= plan.nodes) {
      throw std::invalid_argument(
          "ChaosPlan::parse: slot " + std::to_string(e.slot) +
          " out of range for " + std::to_string(plan.nodes) +
          " nodes in event: \"" + e.describe() + "\"");
    }
  }
  plan.sort_events();
  return plan;
}

ChaosPlan ChaosPlan::canonical(std::uint64_t seed, std::size_t nodes) {
  if (nodes < 4) {
    throw std::invalid_argument("ChaosPlan::canonical: need >= 4 nodes");
  }
  Rng rng(seed * 7919 + 17);
  // Distinct victim slots, excluding slot 0 so the verifier always has a
  // stable probe node (any slot may still crash in hand-written plans).
  const auto pick = [&](std::size_t avoid) {
    for (;;) {
      const auto slot = 1 + static_cast<std::size_t>(
                                rng.next_below(static_cast<std::uint64_t>(
                                    nodes - 1)));
      if (slot != avoid) return slot;
    }
  };
  const std::size_t crash_victim = pick(0);
  const std::size_t leave_victim = pick(crash_victim);
  // The leaver stays gone, so the partition must target someone else; the
  // crash victim has restarted by then and is fair game again.
  const std::size_t part_victim = pick(leave_victim);

  ChaosPlan plan;
  plan.seed = seed;
  plan.nodes = nodes;
  // Phase 1: abrupt crash, then the same slot restarts and rejoins.
  plan.crash(1'000'000, crash_victim);
  plan.verify(3'000'000);
  plan.restart(4'000'000, crash_victim);
  plan.verify(6'000'000);
  // Phase 2: graceful leave (stays gone).
  plan.leave(7'000'000, leave_victim);
  plan.verify(9'000'000);
  // Phase 3: 20% loss burst across the fabric.
  plan.loss_burst(10'000'000, 0.20, 2'000'000);
  plan.verify(13'000'000);
  // Phase 4: partition one node, then heal it.
  plan.partition(14'000'000, part_victim);
  plan.verify(16'000'000);
  plan.heal(17'000'000, part_victim);
  plan.verify(19'000'000);
  // Phase 5: 8x latency spike.
  plan.latency_burst(20'000'000, 8.0, 2'000'000);
  plan.verify(23'000'000);
  return plan;
}

namespace {

/// Victim draw for the kill-wave plans: a Fisher-Yates shuffle of
/// [1, nodes) from Rng(rng_seed). Slot 0 (the probe and bootstrap node) is
/// never a victim.
std::vector<std::size_t> shuffled_victims(std::uint64_t rng_seed,
                                          std::size_t nodes) {
  Rng rng(rng_seed);
  std::vector<std::size_t> victims(nodes - 1);
  for (std::size_t i = 0; i < victims.size(); ++i) victims[i] = i + 1;
  for (std::size_t i = victims.size(); i > 1; --i) {
    std::swap(victims[i - 1],
              victims[static_cast<std::size_t>(
                  rng.next_below(static_cast<std::uint64_t>(i)))]);
  }
  return victims;
}

}  // namespace

ChaosPlan ChaosPlan::process_canonical(std::uint64_t seed, std::size_t nodes) {
  if (nodes < 8) {
    throw std::invalid_argument("ChaosPlan::process_canonical: need >= 8 nodes");
  }
  // Slot 0 is the bootstrap seed every restarted daemon rejoins through.
  const std::vector<std::size_t> victims =
      shuffled_victims(seed * 104729 + 31, nodes);
  const std::size_t kills = std::max<std::size_t>(1, nodes / 4);   // 25%
  const std::size_t terms = std::max<std::size_t>(1, nodes / 10);  // 10%
  const std::size_t restarts = std::max<std::size_t>(1, kills / 2);

  ChaosPlan plan;
  plan.seed = seed;
  plan.nodes = nodes;
  // Phase 1: baseline — the freshly booted fleet must converge and cover.
  plan.verify(3'000'000);
  // Phase 2: SIGKILL wave over 25% of the fleet, spread across ~2s.
  for (std::size_t i = 0; i < kills; ++i) {
    plan.sigkill(4'000'000 + i * (2'000'000 / kills), victims[i]);
  }
  plan.verify(15'000'000);
  // Phase 3: half the killed slots come back with bumped incarnations.
  for (std::size_t i = 0; i < restarts; ++i) {
    plan.restart(16'000'000 + i * (2'000'000 / restarts), victims[i]);
  }
  plan.verify(28'000'000);
  // Phase 4: SIGTERM wave over 10% — graceful drains whose aggregate
  // conservation the campaign checks per victim.
  for (std::size_t i = 0; i < terms; ++i) {
    plan.sigterm(29'000'000 + i * (2'000'000 / terms), victims[kills + i]);
  }
  plan.verify(40'000'000);
  return plan;
}

ChaosPlan ChaosPlan::selfmon(std::uint64_t seed, std::size_t nodes) {
  if (nodes < 4) {
    throw std::invalid_argument("ChaosPlan::selfmon: need >= 4 nodes");
  }
  const std::vector<std::size_t> victims =
      shuffled_victims(seed * 52361 + 7, nodes);
  const std::size_t kills = std::max<std::size_t>(1, nodes / 4);  // 25%

  ChaosPlan plan;
  plan.seed = seed;
  plan.nodes = nodes;
  // Phase 1: baseline — the fleet monitors itself, every alert clear.
  plan.verify(3'000'000);
  // Phase 2: crash wave; the coverage alert must FIRE at the verify.
  for (std::size_t i = 0; i < kills; ++i) {
    plan.crash(4'000'000 + i * (1'000'000 / kills), victims[i]);
  }
  plan.verify(6'000'000);
  // Phase 3: every victim returns; the alert must CLEAR within the SLO.
  for (std::size_t i = 0; i < kills; ++i) {
    plan.restart(8'000'000 + i * (1'000'000 / kills), victims[i]);
  }
  plan.verify(11'000'000);
  return plan;
}

ChaosPlan ChaosPlan::process_selfmon(std::uint64_t seed, std::size_t nodes) {
  if (nodes < 8) {
    throw std::invalid_argument("ChaosPlan::process_selfmon: need >= 8 nodes");
  }
  const std::vector<std::size_t> victims =
      shuffled_victims(seed * 52361 + 7, nodes);
  const std::size_t kills = std::max<std::size_t>(1, nodes / 4);  // 25%

  ChaosPlan plan;
  plan.seed = seed;
  plan.nodes = nodes;
  // Phase 1: baseline.
  plan.verify(4'000'000);
  // Phase 2: kill wave. The first victim aborts — its crash handler writes
  // a postmortem dump the process fleet archives — and the rest are SIGKILLed.
  plan.sigabrt(5'000'000, victims[0]);
  for (std::size_t i = 1; i < kills; ++i) {
    plan.sigkill(5'000'000 + i * (2'000'000 / kills), victims[i]);
  }
  plan.verify(16'000'000);
  // Phase 3: all victims restart; the coverage alert must clear.
  for (std::size_t i = 0; i < kills; ++i) {
    plan.restart(17'000'000 + i * (2'000'000 / kills), victims[i]);
  }
  plan.verify(30'000'000);
  return plan;
}

ChaosPlan ChaosPlan::rebalance_skew(std::uint64_t seed, std::size_t nodes) {
  if (nodes < 8) {
    throw std::invalid_argument("ChaosPlan::rebalance_skew: need >= 8 nodes");
  }
  ChaosPlan plan;
  plan.seed = seed;
  plan.nodes = nodes;
  plan.random_ids = true;  // deploy unbalanced on purpose
  // Phase 1: baseline. The skewed deployment must still aggregate correctly
  // — and this is where the campaign measures the unbalanced branching the
  // rebalancer is about to repair.
  plan.verify(2'000'000);
  // Phase 2: activate the rebalancer (it consumes virtual time itself, one
  // measured round per epoch, up to the SLO budget), then verify that the
  // repaired deployment still meets every recovery check plus the SLO.
  plan.rebalance(4'000'000);
  plan.verify(4'100'000);
  return plan;
}

}  // namespace dat::chaos
