// Grid resource monitoring, the paper's motivating application (Secs. 1-2):
// a simulated Grid of 128 hosts runs the full P-GMA stack — trace-driven
// CPU sensors feed producers, producers feed balanced-DAT aggregates and
// register descriptors in MAAN — while an operator console periodically
// reads the global CPU statistics from the aggregation trees and runs a
// discovery query for lightly loaded Linux hosts.
//
// Run: ./build/examples/grid_monitoring

#include <cstdio>
#include <memory>
#include <vector>

#include "gma/producer.hpp"
#include "harness/sim_cluster.hpp"
#include "trace/cpu_trace.hpp"

int main() {
  using namespace dat;
  constexpr std::size_t kHosts = 128;
  constexpr std::uint64_t kEpochUs = 1'000'000;

  harness::ClusterOptions options;
  options.seed = 2026;
  options.with_maan = true;
  options.dat.epoch_us = kEpochUs;
  std::printf("bootstrapping %zu-host Grid overlay...\n", kHosts);
  harness::SimCluster cluster(kHosts, std::move(options));
  if (!cluster.wait_converged(600'000'000)) {
    std::fprintf(stderr, "overlay failed to converge\n");
    return 1;
  }
  std::printf("overlay converged at t=%.1fs (virtual)\n\n",
              cluster.engine().now() / 1e6);

  // One shared synthetic trace, phase-shifted per host so that loads are
  // correlated but not identical.
  const trace::CpuTrace cpu =
      trace::CpuTrace::synthesize(trace::TraceConfig{}, 17);
  std::vector<std::unique_ptr<trace::TraceReplayer>> replayers;
  std::vector<std::unique_ptr<gma::Producer>> producers;
  sim::Engine& engine = cluster.engine();
  const std::uint64_t t0 = engine.now();

  for (std::size_t i = 0; i < kHosts; ++i) {
    replayers.push_back(std::make_unique<trace::TraceReplayer>(
        cpu, /*phase_s=*/static_cast<double>(i) * 37.0,
        /*gain=*/0.8 + 0.4 * static_cast<double>(i % 5) / 4.0));
    auto producer = std::make_unique<gma::Producer>(
        cluster.dat(i), cluster.maan(i), "host-" + std::to_string(i));
    const trace::TraceReplayer* replay = replayers.back().get();
    producer->add_sensor({.attribute = "cpu-usage",
                          .kind = core::AggregateKind::kAvg,
                          .sample = [replay, &engine, t0]() {
                            return replay->at((engine.now() - t0) / 1e6);
                          }});
    producer->add_sensor({.attribute = "memory-size",
                          .kind = core::AggregateKind::kSum,
                          .sample = [i]() {
                            return (8.0 + 8.0 * (i % 3)) * 1e9;
                          }});
    producer->add_static_attribute(
        "os", maan::AttrValue{std::string(i % 3 ? "linux" : "freebsd")});
    producer->add_static_attribute(
        "cpu-speed", maan::AttrValue{2.0e9 + 0.5e9 * (i % 4)});
    producer->start(chord::RoutingScheme::kBalanced,
                    /*refresh_us=*/30'000'000);
    producers.push_back(std::move(producer));
  }
  cluster.run_for(15 * kEpochUs);  // fill the aggregation pipeline

  gma::Consumer console(cluster.dat(0), cluster.maan(0));

  // An AVG tree's updates carry sum and count only (core::shape_of), so the
  // root answers the average and the host count; extrema need MIN and MAX
  // trees of their own.
  std::printf("%8s %14s %12s\n", "t(min)", "avg-cpu(%)", "hosts");
  for (int minute = 0; minute < 10; ++minute) {
    cluster.run_for(60'000'000);
    bool done = false;
    console.monitor_global(
        "cpu-usage",
        [&](net::RpcStatus status, std::optional<core::GlobalValue> g) {
          done = true;
          if (status != net::RpcStatus::kOk || !g) {
            std::printf("%8d  (query failed: %s)\n", minute,
                        net::to_string(status));
            return;
          }
          std::printf("%8d %14.1f %12llu\n", minute + 1,
                      g->state.result(core::AggregateKind::kAvg),
                      static_cast<unsigned long long>(g->state.count));
        });
    cluster.run_for(3'000'000);
    if (!done) std::printf("%8d  (query still pending)\n", minute + 1);
  }

  // Capacity planning: total memory across the Grid via on-demand snapshot.
  bool snap_done = false;
  console.snapshot_global("memory-size", [&](const core::AggState& state) {
    snap_done = true;
    std::printf("\ntotal memory across %llu hosts: %.0f GB\n",
                static_cast<unsigned long long>(state.count),
                state.sum / 1e9);
  });
  cluster.run_for(5'000'000);
  if (!snap_done) std::printf("\n(memory snapshot timed out)\n");

  // Scheduler-style discovery: idle Linux boxes with >= 2.5 GHz CPUs.
  std::vector<maan::RangePredicate> predicates;
  predicates.push_back({.attr = "cpu-usage", .lo = 0.0, .hi = 40.0, .exact = {}});
  predicates.push_back({.attr = "cpu-speed", .lo = 2.5e9, .hi = 10e9, .exact = {}});
  maan::RangePredicate os;
  os.attr = "os";
  os.exact = "linux";
  predicates.push_back(os);

  bool disc_done = false;
  console.discover(predicates, [&](maan::QueryResult result) {
    disc_done = true;
    std::printf(
        "\ndiscovery: %zu idle linux hosts (>=2.5GHz, cpu<=40%%), "
        "%u routing + %u sweep hops%s\n",
        result.resources.size(), result.routing_hops, result.sweep_hops,
        result.complete ? "" : " [partial]");
    for (std::size_t i = 0; i < result.resources.size() && i < 5; ++i) {
      const auto& r = result.resources[i];
      std::printf("  %-10s cpu=%.0f%%  speed=%.1fGHz\n", r.id.c_str(),
                  std::get<double>(*r.attribute("cpu-usage")),
                  std::get<double>(*r.attribute("cpu-speed")) / 1e9);
    }
    if (result.resources.size() > 5) {
      std::printf("  ... and %zu more\n", result.resources.size() - 5);
    }
  });
  cluster.run_for(10'000'000);
  if (!disc_done) std::printf("\n(discovery timed out)\n");

  producers.clear();
  return 0;
}
