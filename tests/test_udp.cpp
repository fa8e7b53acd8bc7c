// UDP endpoint packing and a small real-socket Chord overlay on loopback.
// Wall-clock bounded: kept to a handful of nodes so the whole file runs in
// seconds.

#include <gtest/gtest.h>

#include <memory>

#include "chord/node.hpp"
#include "net/endpoint.hpp"
#include "netio/netio_network.hpp"

namespace {

using namespace dat;
using namespace dat::net;

TEST(UdpEndpoint, PackUnpack) {
  const Endpoint ep = make_udp_endpoint(0x7F000001, 8080);
  EXPECT_EQ(endpoint_ipv4(ep), 0x7F000001u);
  EXPECT_EQ(endpoint_port(ep), 8080u);
  EXPECT_EQ(endpoint_to_string(ep), "127.0.0.1:8080");
  EXPECT_NE(ep, kNullEndpoint);
}

TEST(UdpChord, SmallRingFormsOverLoopback) {
  constexpr std::size_t kNodes = 5;
  const IdSpace space(24);
  netio::NetioNetwork network;
  chord::NodeOptions options;
  options.stabilize_interval_us = 30'000;
  options.fix_fingers_interval_us = 10'000;
  options.rpc.timeout_us = 150'000;

  std::vector<std::unique_ptr<chord::Node>> nodes;
  auto& first = network.add_node();
  nodes.push_back(std::make_unique<chord::Node>(space, first, options, 1));
  nodes.front()->create();
  for (std::size_t i = 1; i < kNodes; ++i) {
    auto& transport = network.add_node();
    nodes.push_back(
        std::make_unique<chord::Node>(space, transport, options, 10 + i));
    bool joined = false;
    nodes.back()->join(first.local(), [&](bool ok) { joined = ok; });
    ASSERT_TRUE(network.run_while([&] { return !joined; }, 5'000'000))
        << "join " << i << " timed out";
  }
  // Wait for convergence against the ground-truth ring.
  std::vector<Id> ids;
  for (const auto& node : nodes) ids.push_back(node->id());
  const chord::RingView ring(space, ids);
  const bool converged = network.run_while(
      [&] {
        for (const auto& node : nodes) {
          if (!node->converged_against(ring)) return true;
        }
        return false;
      },
      20'000'000);
  EXPECT_TRUE(converged);

  // A lookup from each node lands on the ground-truth successor.
  const Id key = 0x123456;
  const Id expected = ring.successor(key);
  for (const auto& node : nodes) {
    chord::NodeRef found;
    bool done = false;
    node->find_successor(key, [&](RpcStatus s, chord::NodeRef n) {
      done = true;
      ASSERT_EQ(s, RpcStatus::kOk);
      found = n;
    });
    network.run_while([&] { return !done; }, 5'000'000);
    EXPECT_EQ(found.id, expected);
  }
  for (auto& node : nodes) node->leave();
}

}  // namespace
