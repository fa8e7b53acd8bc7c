#include "datd/process_fleet.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <utility>

#include "datd/signals.hpp"
#include "net/endpoint.hpp"
#include "obs/postmortem.hpp"

namespace dat::datd {

namespace {

/// Admin-RPC poll period while waiting for boot or ring convergence, and
/// the daemons' self-monitoring epoch.
constexpr std::uint64_t kPollUs = 250'000;
constexpr std::uint64_t kSelfmonEpochMs = 500;

}  // namespace

ProcessFleet::ProcessFleet(ProcessFleetOptions options)
    : options_(std::move(options)), slots_(options_.nodes) {}

ProcessFleet::~ProcessFleet() {
  for (Slot& s : slots_) {
    if (!s.alive) continue;
    ::kill(static_cast<pid_t>(s.pid), SIGKILL);
    int status = 0;
    ::waitpid(static_cast<pid_t>(s.pid), &status, 0);
    s.alive = false;
  }
}

std::uint64_t ProcessFleet::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ProcessFleet::run_for(std::uint64_t us) {
  const std::uint64_t deadline = now_us() + us;
  for (std::uint64_t now = now_us(); now < deadline && pending_signal() == 0;
       now = now_us()) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::min<std::uint64_t>(deadline - now, 100'000)));
  }
}

net::Endpoint ProcessFleet::endpoint(std::size_t slot) const {
  return net::make_udp_endpoint(
      0x7F000001u, static_cast<std::uint16_t>(options_.base_port + slot));
}

std::vector<Id> ProcessFleet::start_replicas(const std::string& name,
                                             unsigned replicas,
                                             core::AggregateKind kind,
                                             chord::RoutingScheme scheme,
                                             std::uint64_t epoch_us) {
  if (!aggregate_args_.empty() || epoch_us != 0) {
    throw std::invalid_argument(
        "ProcessFleet: datd runs one replicated aggregate at the fleet's "
        "push period");
  }
  aggregate_args_ = {"--aggregate=" + name,
                     "--replicas=" + std::to_string(replicas),
                     std::string("--kind=") + core::to_string(kind),
                     std::string("--scheme=") + chord::to_string(scheme)};
  return {};
}

bool ProcessFleet::spawn(std::size_t slot, const chaos::Journal& journal) {
  Slot& s = slots_[slot];
  std::vector<std::string> args = {
      options_.datd_path,
      "--port=" + std::to_string(options_.base_port + slot),
      "--seed=" + std::to_string(options_.seed * 1000 + slot + 1),
      "--incarnation=" + std::to_string(s.incarnation),
      "--value=" + std::to_string(chaos::slot_value(slot)),
      "--epoch-ms=" + std::to_string(options_.epoch_ms),
      "--drain-deadline-ms=" + std::to_string(options_.drain_deadline_ms),
      "--selfmon-epoch-ms=" + std::to_string(kSelfmonEpochMs),
      "--fleet-size=" + std::to_string(slots_.size()),
      slot == 0 ? std::string("--create=true")
                : "--seeds=127.0.0.1:" + std::to_string(options_.base_port)};
  args.insert(args.end(), aggregate_args_.begin(), aggregate_args_.end());
  if (!options_.postmortem_dir.empty()) {
    args.push_back("--postmortem-dir=" + options_.postmortem_dir);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    journal.violation("fork failed for slot " + std::to_string(slot));
    return false;
  }
  if (pid == 0) {
    ::execv(options_.datd_path.c_str(), argv.data());
    // Only reached when exec failed; the parent sees exit 127 on reap.
    std::_Exit(127);
  }
  s.pid = pid;
  s.alive = true;
  return true;
}

bool ProcessFleet::boot(const chaos::Journal& journal, std::vector<Id>& keys) {
  if (aggregate_args_.empty()) {
    throw std::logic_error("ProcessFleet::boot: no aggregate registered");
  }
  const std::uint64_t start = now_us();
  const std::uint64_t deadline = start + kBootTimeoutMs * 1000;
  journal.note("boot: spawning " + std::to_string(slots_.size()) +
               " daemons on 127.0.0.1:" + std::to_string(options_.base_port) +
               "-" + std::to_string(options_.base_port + slots_.size() - 1));
  if (!spawn(0, journal)) return false;
  // Wait for the seed node before unleashing the joiners: every other slot
  // retries with backoff anyway, but a live seed keeps boot time flat.
  while (now_us() < deadline && pending_signal() == 0) {
    const auto status = admin_.status(endpoint(0));
    if (status && status->joined) break;
    run_for(kPollUs);
  }
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    if (pending_signal() != 0 || !spawn(i, journal)) return false;
  }
  while (pending_signal() == 0) {
    std::size_t joined = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const auto status = admin_.status(endpoint(i));
      if (status && status->joined) ++joined;
      // The daemons own their replica key layout; probe what they serve.
      if (i == 0 && status) keys = status->aggregate_keys;
    }
    if (joined == slots_.size()) {
      journal.note("boot: fleet up in " +
                   std::to_string((now_us() - start) / 1000) + "ms");
      return true;
    }
    if (now_us() > deadline) {
      journal.violation("boot: only " + std::to_string(joined) + "/" +
                        std::to_string(slots_.size()) +
                        " daemons joined within " +
                        std::to_string(kBootTimeoutMs) + "ms");
      return false;
    }
    run_for(kPollUs);
  }
  return false;
}

void ProcessFleet::apply(const chaos::FaultEvent& event,
                         const chaos::Journal& journal) {
  using chaos::FaultKind;
  const std::size_t slot = event.slot;
  Slot& s = slots_[slot];
  if (event.kind == FaultKind::kRestart) {
    ++s.incarnation;
    if (spawn(slot, journal)) {
      journal.note("restart: slot " + std::to_string(slot) +
                   " respawned (pid " + std::to_string(s.pid) +
                   ", incarnation " + std::to_string(s.incarnation) + ")");
    }
    return;
  }
  // A drained daemon must exit 0 within its hard deadline plus scheduling
  // margin (exit 1: the drain blew it); other victims die by their signal.
  const bool drain =
      event.kind == FaultKind::kLeave || event.kind == FaultKind::kSigterm;
  const int sig =
      drain ? SIGTERM : (event.kind == FaultKind::kSigabrt ? SIGABRT : SIGKILL);
  const std::string who = std::string(chaos::to_string(event.kind)) +
                          ": slot " + std::to_string(slot);
  const std::uint64_t start = now_us();
  const std::uint64_t wait_ms = options_.drain_deadline_ms + 3000;
  const auto elapsed_ms = [&] { return (now_us() - start) / 1000; };
  const auto pid = static_cast<pid_t>(s.pid);
  ::kill(pid, sig);
  int status = 0;
  bool reaped = ::waitpid(pid, &status, WNOHANG) == pid;
  while (!reaped && elapsed_ms() <= wait_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    reaped = ::waitpid(pid, &status, WNOHANG) == pid;
  }
  s.alive = false;
  if (!reaped) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    journal.violation(who + " did not exit within " + std::to_string(wait_ms) +
                      "ms");
  } else if (drain ? (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                   : (!WIFSIGNALED(status) || WTERMSIG(status) != sig)) {
    journal.violation(
        who + (WIFEXITED(status)
                   ? " exited " + std::to_string(WEXITSTATUS(status))
                   : " died by signal " + std::to_string(WTERMSIG(status))) +
        (drain ? " instead of exiting 0" : " instead of its signal"));
  } else if (drain) {
    journal.note(who + " drained (value " +
                 std::to_string(chaos::slot_value(slot)) +
                 " retired) and exited 0 in " + std::to_string(elapsed_ms()) +
                 "ms");
  } else {
    journal.note(who + " (pid " + std::to_string(s.pid) + ")");
  }
  if (sig != SIGABRT || options_.postmortem_dir.empty()) return;
  const std::string dump =
      options_.postmortem_dir + "/" + obs::postmortem_file_name(s.pid);
  const std::string archived = options_.postmortem_dir +
                               "/archived-postmortem-slot" +
                               std::to_string(slot) + "-" +
                               std::to_string(s.pid) + ".json";
  if (std::rename(dump.c_str(), archived.c_str()) == 0) {
    journal.note("postmortem: slot " + std::to_string(slot) +
                 " dump archived as " + archived);
  } else {
    journal.violation("postmortem: slot " + std::to_string(slot) +
                      " left no dump at " + dump);
  }
}

void ProcessFleet::check_structure() {
  const std::size_t probe = probe_slot();
  const auto page =
      admin_.metrics(endpoint(probe), obs::ExportFormat::kPrometheus);
  if (!page || page->find("dat_daemon_uptime_us") == std::string::npos) {
    throw std::logic_error("scrape: slot " + std::to_string(probe) +
                           " metrics page missing dat_daemon_uptime_us");
  }
}

std::string ProcessFleet::await_converged(std::uint64_t budget_us) {
  // Every live daemon answers joined at the incarnation it was spawned
  // with, and the live set's successor pointers form one cycle.
  const auto failure = [this]() -> std::string {
    std::vector<StatusInfo> ring;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
      if (!slots_[slot].alive) continue;
      auto status = admin_.status(endpoint(slot));
      if (!status || !status->joined) {
        return "health: slot " + std::to_string(slot) +
               (status ? " not joined" : " not answering");
      }
      if (status->incarnation != slots_[slot].incarnation) {
        return "identity: slot " + std::to_string(slot) +
               " reports incarnation " + std::to_string(status->incarnation) +
               ", expected " + std::to_string(slots_[slot].incarnation);
      }
      ring.push_back(std::move(*status));
    }
    std::sort(ring.begin(), ring.end(),
              [](const StatusInfo& a, const StatusInfo& b) {
                return a.self.id < b.self.id;
              });
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const StatusInfo& next = ring[(i + 1) % ring.size()];
      if (ring[i].successors.empty() ||
          ring[i].successors.front().endpoint != next.self.endpoint) {
        return "ring: successor of id " + std::to_string(ring[i].self.id) +
               " is not the next live id";
      }
    }
    return {};
  };
  const std::uint64_t deadline = now_us() + budget_us;
  std::string last = failure();
  while (!last.empty() && now_us() < deadline && pending_signal() == 0) {
    run_for(kPollUs);
    last = failure();
  }
  return last;
}

std::vector<std::vector<chaos::RootAnswer>> ProcessFleet::probe_roots(
    const std::vector<Id>& keys) {
  // Every live daemon is asked directly: only a root (or a stale ex-root)
  // holds a global, and the campaign takes any exact one.
  std::vector<std::vector<chaos::RootAnswer>> answers(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
      if (!slots_[slot].alive) continue;
      if (const auto global = admin_.global_at(endpoint(slot), keys[k])) {
        answers[k].push_back({global->state.count, global->state.sum, true});
      }
    }
  }
  return answers;
}

std::optional<chaos::AlertReading> ProcessFleet::coverage_alert() {
  const auto fleet = admin_.fleet(endpoint(probe_slot()));
  if (!fleet) return std::nullopt;
  const bool firing = std::any_of(
      fleet->alerts.begin(), fleet->alerts.end(), [](const obs::Alert& alert) {
        return alert.rule == "coverage" && alert.firing;
      });
  return chaos::AlertReading{firing, slots_.size(), kSelfmonEpochMs * 1000};
}

chaos::RebalanceRound ProcessFleet::rebalance_round(
    const std::vector<Id>& /*keys*/, obs::MetricsRegistry& /*metrics*/) {
  std::uint64_t moved = 0;
  std::size_t daemons = 0;
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].alive) continue;
    moved += admin_.rebalance(endpoint(slot)).value_or(0);
    ++daemons;
  }
  return {"datd.rebalance on " + std::to_string(daemons) + " daemons: " +
              std::to_string(moved) + " children moved",
          0, 0};
}

}  // namespace dat::datd
