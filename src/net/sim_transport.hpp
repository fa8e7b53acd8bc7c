#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "net/transport.hpp"
#include "sim/engine.hpp"

namespace dat::net {

class SimTransport;

/// In-process network fabric for the discrete-event simulator. Owns one
/// SimTransport per simulated node, delivers datagrams through the engine's
/// event queue with sampled latency, and can inject loss and partitions for
/// failure testing.
class SimNetwork {
 public:
  explicit SimNetwork(sim::Engine& engine) : engine_(engine) {}

  /// Creates a transport bound to a fresh endpoint. Endpoints are dense,
  /// starting at 1 (0 is kNullEndpoint).
  SimTransport& add_node();

  /// Disconnects and destroys the node's transport. In-flight messages to
  /// it are dropped on delivery, like datagrams to a crashed host.
  void remove_node(Endpoint ep);

  /// Fraction of datagrams dropped uniformly at random in [0, 1).
  void set_loss_rate(double p);
  [[nodiscard]] double loss_rate() const noexcept { return loss_rate_; }

  /// Scales every sampled delivery delay by `m` (>= 0) — a latency spike
  /// without swapping the LatencyModel. 1.0 restores nominal delays.
  void set_latency_multiplier(double m);
  [[nodiscard]] double latency_multiplier() const noexcept {
    return latency_multiplier_;
  }

  /// Timed latency spike: multiplier `m` for `duration_us` of virtual time,
  /// then automatically back to 1.0 via the engine's event queue.
  void latency_burst(double m, std::uint64_t duration_us);

  /// Timed loss burst: loss rate `p` for `duration_us` of virtual time, then
  /// automatically back to the rate in effect when the burst started.
  void loss_burst(double p, std::uint64_t duration_us);

  /// Marks a node unreachable (network partition) without destroying it.
  void set_partitioned(Endpoint ep, bool partitioned);

  [[nodiscard]] bool exists(Endpoint ep) const {
    return nodes_.contains(ep);
  }

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

  /// Total datagrams delivered (diagnostic).
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  /// Total datagrams dropped by loss, partition, or dead destination.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  friend class SimTransport;
  /// Copies the message: the network owns its bytes while it is in flight.
  void route(Endpoint from, Endpoint to, const Message& msg);

  sim::Engine& engine_;
  std::unordered_map<Endpoint, std::unique_ptr<SimTransport>> nodes_;
  std::unordered_set<Endpoint> partitioned_;
  Endpoint next_endpoint_ = 1;
  double loss_rate_ = 0.0;
  double latency_multiplier_ = 1.0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Transport implementation for one simulated node. Obtained from
/// SimNetwork::add_node(); lifetime is managed by the network.
class SimTransport final : public Transport {
 public:
  SimTransport(SimNetwork& net, Endpoint self) : net_(net), self_(self) {}

  [[nodiscard]] Endpoint local() const override { return self_; }

  void send(Endpoint to, const Message& msg) override;

  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }

  TimerId set_timer(std::uint64_t delay_us, std::function<void()> cb) override;
  void cancel_timer(TimerId id) override;

  [[nodiscard]] std::uint64_t now_us() const override {
    return net_.engine().now();
  }

 private:
  friend class SimNetwork;
  void deliver(Endpoint from, const Message& msg);

  SimNetwork& net_;
  Endpoint self_;
  ReceiveHandler handler_;
};

}  // namespace dat::net
