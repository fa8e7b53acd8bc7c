// Reproduces the Sec. 5.1 methodology check: the RPC-based (real UDP
// sockets on loopback) and simulator-based setups share the same Chord and
// DAT layers and must yield consistent results for the topology metrics.
// We bring up the same-size overlay on both transports and compare the
// live balanced-DAT tree statistics.

#include <cstdio>

#include "harness/live_tree.hpp"
#include "harness/sim_cluster.hpp"
#include "harness/udp_cluster.hpp"

namespace {

using namespace dat;

harness::LiveTreeStats run_udp(std::size_t n, Id key) {
  harness::UdpClusterOptions options;
  options.seed = 1;
  options.with_dat = false;
  options.node.stabilize_interval_us = 50'000;
  options.node.fix_fingers_interval_us = 10'000;
  options.node.rpc.timeout_us = 200'000;
  harness::UdpCluster cluster(n, std::move(options));
  cluster.wait_converged(60'000'000);
  cluster.refresh_d0_hints();
  return harness::live_tree_stats(cluster, key,
                                  chord::RoutingScheme::kBalanced);
}

harness::LiveTreeStats run_sim(std::size_t n, Id key) {
  harness::ClusterOptions options;
  options.seed = 4242;
  harness::SimCluster cluster(n, std::move(options));
  cluster.wait_converged(300'000'000);
  return harness::live_tree_stats(cluster, key,
                                  chord::RoutingScheme::kBalanced);
}

void print_row(const char* label, const harness::LiveTreeStats& s) {
  std::printf("%-12s %8zu %8zu %10zu %12zu %10.2f %8u\n", label, s.nodes,
              s.roots, s.reaching_root, s.max_branching,
              s.avg_branching_internal, s.height);
}

}  // namespace

int main() {
  constexpr std::size_t kNodes = 24;
  const IdSpace space(32);
  const Id key = core::rendezvous_key("cpu-usage", space);

  std::printf("# Transport consistency: same Chord+DAT layers on simulator vs UDP\n");
  std::printf("%-12s %8s %8s %10s %12s %10s %8s\n", "transport", "nodes",
              "roots", "reaching", "max-branch", "avg-branch", "height");
  print_row("simulator", run_sim(kNodes, key));
  print_row("udp-rpc", run_udp(kNodes, key));
  std::printf("\n(both transports should report one root, full reachability,\n"
              " and closely matching branching/height statistics)\n");
  return 0;
}
