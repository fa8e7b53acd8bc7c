// Alerting + fault tolerance, the "system diagnostics" consumer the paper's
// introduction motivates: a 64-node Grid aggregates its load through THREE
// replicated balanced-DAT trees plus one plain tree; an SLO rule on node 0's
// obs::SelfMonitor watches the plain tree's root and raises an alert when a
// load storm pushes the global average over 85 %, and the replicated query
// keeps answering through a root crash.
//
// The rule `hot cpu-usage-avg avg < 85 fire 1 clear 2` fires on the first
// telemetry epoch over 85 % and clears only after two consecutive epochs
// back under it: one alert per excursion, and one noisy reading cannot
// flap it.
//
// Exits 1 unless it sees exactly two alert excursions (one per storm) and
// the replicated query answers after the root crash.
//
// Run: ./build/examples/alerting

#include <cstdio>
#include <memory>
#include <vector>

#include "dat/replicated.hpp"
#include "harness/sim_cluster.hpp"
#include "obs/selfmon.hpp"

int main() {
  using namespace dat;
  constexpr std::size_t kNodes = 64;
  constexpr std::uint64_t kEpochUs = 1'000'000;

  harness::ClusterOptions options;
  options.seed = 99;
  options.dat.epoch_us = 500'000;
  std::printf("bootstrapping %zu-node overlay...\n", kNodes);
  harness::SimCluster cluster(kNodes, std::move(options));
  if (!cluster.wait_converged(600'000'000)) {
    std::fprintf(stderr, "overlay failed to converge\n");
    return 1;
  }

  // Shared, controllable load signal (a real deployment reads /proc).
  double base_load = 40.0;
  std::vector<std::unique_ptr<core::ReplicatedAggregate>> replicas;
  for (std::size_t i = 0; i < kNodes; ++i) {
    replicas.push_back(std::make_unique<core::ReplicatedAggregate>(
        cluster.dat(i), "cpu-usage", /*replicas=*/3,
        core::AggregateKind::kAvg, chord::RoutingScheme::kBalanced));
    const double jitter = static_cast<double>(i % 7) - 3.0;
    replicas.back()->start([&base_load, jitter]() {
      return base_load + jitter;
    });
  }
  // Plain (single-tree) aggregate the alert rule watches.
  for (std::size_t i = 0; i < kNodes; ++i) {
    cluster.dat(i).start_aggregate("cpu-usage-avg", core::AggregateKind::kAvg,
                                   chord::RoutingScheme::kBalanced,
                                   [&base_load]() { return base_load; });
  }
  cluster.run_for(8'000'000);

  obs::SelfMonitorOptions monitor_options;
  monitor_options.epoch_us = kEpochUs;
  monitor_options.rules =
      obs::SloRuleset::parse("hot cpu-usage-avg avg < 85 fire 1 clear 2\n");
  auto monitor = std::make_unique<obs::SelfMonitor>(cluster.dat(0),
                                                    std::move(monitor_options));

  // Poll the rule once per telemetry epoch and report its transitions.
  bool firing = false;
  unsigned excursions = 0;
  const auto watch = [&](std::uint64_t duration_us) {
    for (std::uint64_t t = 0; t < duration_us; t += kEpochUs) {
      cluster.run_for(kEpochUs);
      if (monitor->alert_firing("hot") == firing) continue;
      firing = !firing;
      if (firing) ++excursions;
      std::printf("[t=%6.1fs]  %s: grid avg load %.1f%%\n",
                  cluster.engine().now() / 1e6, firing ? "ALERT" : "clear",
                  monitor->alerts().front().value);
    }
  };

  std::printf("\nphase 1: normal load (%.0f%%), no alerts expected\n",
              base_load);
  watch(10'000'000);

  std::printf("phase 2: load storm begins\n");
  base_load = 95.0;
  watch(10'000'000);

  std::printf("phase 3: storm eases to 80%% (under the threshold), the alert "
              "clears after two OK epochs\n");
  base_load = 80.0;
  watch(10'000'000);

  std::printf("phase 4: recovery to 50%%\n");
  base_load = 50.0;
  watch(10'000'000);

  std::printf("phase 5: second storm\n");
  base_load = 92.0;
  watch(10'000'000);
  std::printf("alert excursions: %u (expected 2: one per storm)\n\n",
              excursions);
  monitor.reset();

  // Fault tolerance: crash the root of replica tree 0, query immediately.
  const Id victim_root =
      cluster.ring_view().successor(replicas[0]->keys()[0]);
  std::size_t victim_slot = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (cluster.node(i).id() == victim_root) victim_slot = i;
  }
  std::printf("crashing the root of replica tree 0 (node %llu)...\n",
              static_cast<unsigned long long>(victim_root));
  replicas[victim_slot].reset();
  cluster.remove_node(victim_slot, /*graceful=*/false);
  cluster.refresh_d0_hints();

  const std::size_t reader = victim_slot == 0 ? 1 : 0;
  bool done = false;
  bool answered = false;
  replicas[reader]->query([&](core::ReplicatedAggregate::Result result) {
    done = true;
    if (!result.best) {
      std::printf("replicated query found no root!\n");
      return;
    }
    answered = true;
    std::printf("replicated query: %u/3 roots answered; best coverage %llu "
                "hosts, avg %.1f%%\n",
                result.roots_answered,
                static_cast<unsigned long long>(result.best->state.count),
                result.best->state.result(core::AggregateKind::kAvg));
  });
  const auto deadline = cluster.engine().now() + 30'000'000;
  while (!done && cluster.engine().now() < deadline) {
    cluster.engine().run_steps(256);
  }
  replicas.clear();
  return excursions == 2 && answered ? 0 : 1;
}
