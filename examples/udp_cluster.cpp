// Real-socket deployment: the paper ran up to 64 DAT instances per machine
// over a UDP RPC layer (Sec. 5.1). This example hosts 16 live nodes on
// loopback sockets in one process — the same Chord/DAT code as the
// simulator examples, but over the kernel's UDP stack and wall-clock
// timers — and runs both a continuous aggregate and an on-demand snapshot.
//
// Run: ./build/examples/udp_cluster   (takes ~15 s of wall time)

#include <cstdio>
#include <memory>
#include <vector>

#include "chord/node.hpp"
#include "chord/ring_view.hpp"
#include "dat/dat_node.hpp"
#include "netio/netio_network.hpp"

int main() {
  using namespace dat;
  constexpr std::size_t kNodes = 16;
  const IdSpace space(32);

  netio::NetioNetwork network;
  chord::NodeOptions node_options;
  node_options.stabilize_interval_us = 50'000;
  node_options.fix_fingers_interval_us = 10'000;
  node_options.rpc.timeout_us = 200'000;

  core::DatOptions dat_options;
  dat_options.epoch_us = 300'000;

  std::printf("spawning %zu UDP nodes on loopback...\n", kNodes);
  std::vector<std::unique_ptr<chord::Node>> nodes;
  std::vector<std::unique_ptr<core::DatNode>> dats;

  auto& first = network.add_node();
  nodes.push_back(
      std::make_unique<chord::Node>(space, first, node_options, 1));
  nodes.front()->create();
  for (std::size_t i = 1; i < kNodes; ++i) {
    auto& transport = network.add_node();
    nodes.push_back(std::make_unique<chord::Node>(space, transport,
                                                  node_options, 100 + i));
    bool joined = false;
    nodes.back()->join(first.local(), [&](bool ok) { joined = ok; });
    if (!network.run_while([&] { return !joined; }, 5'000'000)) {
      std::fprintf(stderr, "node %zu failed to join\n", i);
      return 1;
    }
    std::printf("  node %2zu joined as %s (id %llu)\n", i,
                net::endpoint_to_string(nodes.back()->self().endpoint).c_str(),
                static_cast<unsigned long long>(nodes.back()->id()));
  }

  // Converge the finger tables against the ground-truth membership.
  std::vector<Id> ids;
  for (const auto& node : nodes) ids.push_back(node->id());
  const chord::RingView ring(space, ids);
  std::printf("stabilizing (gap ratio %.1f)...\n", ring.gap_ratio());
  const bool converged = network.run_while(
      [&] {
        for (const auto& node : nodes) {
          if (!node->converged_against(ring)) return true;
        }
        return false;
      },
      30'000'000);
  std::printf("converged=%s\n", converged ? "yes" : "timeout (continuing)");

  for (auto& node : nodes) node->set_d0_hint(space.size(), kNodes);
  Id key = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    dats.push_back(std::make_unique<core::DatNode>(*nodes[i], dat_options));
    const double mem_gb = 8.0 + 8.0 * static_cast<double>(i % 4);
    key = dats.back()->start_aggregate("memory-size",
                                       core::AggregateKind::kSum,
                                       chord::RoutingScheme::kBalanced,
                                       [mem_gb]() { return mem_gb; });
  }

  // Let the continuous mode run a dozen epochs of wall time.
  network.run_for(12 * dat_options.epoch_us);

  bool done = false;
  dats[5]->query_global(
      key, [&](net::RpcStatus status, std::optional<core::GlobalValue> g) {
        done = true;
        if (status != net::RpcStatus::kOk || !g) {
          std::printf("query failed: %s\n", net::to_string(status));
          return;
        }
        std::printf("continuous: total memory %.0f GB across %llu nodes "
                    "(epoch %llu)\n",
                    g->state.sum,
                    static_cast<unsigned long long>(g->state.count),
                    static_cast<unsigned long long>(g->epoch));
      });
  network.run_while([&] { return !done; }, 5'000'000);

  done = false;
  dats[11]->snapshot(key, [&](const core::AggState& state) {
    done = true;
    std::printf("snapshot:   total memory %.0f GB across %llu nodes\n",
                state.sum, static_cast<unsigned long long>(state.count));
  });
  network.run_while([&] { return !done; }, 5'000'000);

  // Graceful shutdown.
  dats.clear();
  for (auto& node : nodes) node->leave();
  network.run_for(200'000);
  std::printf("all nodes left the ring; done.\n");
  return 0;
}
