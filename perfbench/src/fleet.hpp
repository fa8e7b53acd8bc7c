#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "chord/node.hpp"
#include "chord/ring_view.hpp"
#include "dat/dat_node.hpp"
#include "net/sim_transport.hpp"
#include "netio/netio_network.hpp"
#include "obs/metrics.hpp"
#include "obs/selfmon.hpp"
#include "sim/engine.hpp"
#include "tracer.hpp"

namespace perfbench {

/// The network a fleet runs on, driven by one pump on the calling thread.
class Substrate {
 public:
  virtual ~Substrate() = default;
  virtual dat::net::Transport& add_transport() = 0;
  [[nodiscard]] virtual std::uint64_t now_us() const = 0;
  /// One pump call: netio runs one reactor iteration that blocks for at
  /// most `max_us`; the simulator advances virtual time by exactly `max_us`.
  virtual void pump(std::uint64_t max_us) = 0;
};

/// Real loopback UDP sockets on one inline netio reactor.
class NetioSubstrate final : public Substrate {
 public:
  NetioSubstrate();
  dat::net::Transport& add_transport() override { return network_.add_node(); }
  [[nodiscard]] std::uint64_t now_us() const override {
    return network_.now_us();
  }
  void pump(std::uint64_t max_us) override {
    network_.reactor().poll_once(max_us);
  }
  [[nodiscard]] dat::netio::ReactorCounters counters() const {
    return network_.reactor().counters();
  }

 private:
  // Declared before network_: the reactor unregisters its collector here.
  dat::obs::MetricsRegistry metrics_;
  dat::netio::NetioNetwork network_;
};

/// The discrete-event simulator: virtual time, no sockets.
class SimSubstrate final : public Substrate {
 public:
  explicit SimSubstrate(std::uint64_t seed);
  dat::net::Transport& add_transport() override { return network_.add_node(); }
  [[nodiscard]] std::uint64_t now_us() const override {
    return engine_.now();
  }
  void pump(std::uint64_t max_us) override {
    engine_.advance_until(engine_.now() + max_us);
  }
  [[nodiscard]] dat::sim::Engine& engine() noexcept { return engine_; }
  void pump_events(std::uint64_t max_events) { engine_.run_steps(max_events); }

 private:
  dat::sim::Engine engine_;
  dat::net::SimNetwork network_;
};

struct FleetOptions {
  std::size_t nodes = 64;
  std::uint64_t seed = 1;
  dat::chord::NodeOptions node{};
  dat::core::DatOptions dat{};
  bool selfmon = false;
  dat::obs::SelfMonitorOptions selfmon_options{};
  /// Substrate time each join is given to settle before the next one.
  std::uint64_t join_settle_us = 0;
  /// Give every node the exact d0 = 2^b / n hint.
  bool d0_hint = false;
  std::uint64_t converge_timeout_us = 60'000'000;
  /// Pump step while waiting for convergence.
  std::uint64_t converge_step_us = 1'000;
  /// Put a TracedTransport between each node and its transport.
  bool traced = false;
};

/// n nodes built the way datd builds one per process: a transport, then a
/// chord::Node, a core::DatNode and (optionally) an obs::SelfMonitor on it.
/// Nodes join one at a time through the first node.
class Fleet {
 public:
  Fleet(std::unique_ptr<Substrate> substrate, FleetOptions options,
        Tracer& tracer);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Creates the ring, joins every node, attaches DAT (and selfmon), then
  /// pumps until every node's tables match the converged ring. Returns
  /// false when a join or the convergence wait timed out.
  bool boot();

  /// One pump call, recorded as a span while the tracer is enabled.
  void pump(std::uint64_t max_us);
  /// Pumps until the substrate clock reaches now + us.
  void pump_for(std::uint64_t us);
  /// Pumps while `keep_going` holds, up to `max_us`; true when it stopped
  /// holding.
  bool pump_while(const std::function<bool()>& keep_going, std::uint64_t max_us);

  [[nodiscard]] bool converged() const;

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] Substrate& substrate() noexcept { return *substrate_; }
  [[nodiscard]] const dat::IdSpace& space() const noexcept { return space_; }
  [[nodiscard]] dat::chord::Node& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] dat::core::DatNode& dat(std::size_t i) { return *dats_[i]; }
  /// The node's own transport (below the tracing decorator, if any).
  [[nodiscard]] dat::net::Transport& transport(std::size_t i) {
    return *raw_[i];
  }
  [[nodiscard]] dat::chord::RingView ring_view() const;
  /// Slot of the node with identifier `id`.
  [[nodiscard]] std::size_t slot_of(dat::Id id) const;

 private:
  dat::net::Transport& make_transport();
  /// Pumps until a join completes (`pending` turns false) or times out.
  void wait_join(const std::function<bool()>& pending);

  FleetOptions options_;
  dat::IdSpace space_;
  Tracer& tracer_;
  std::unique_ptr<Substrate> substrate_;
  std::vector<dat::net::Transport*> raw_;
  std::vector<std::unique_ptr<TracedTransport>> wrappers_;
  std::vector<std::unique_ptr<dat::chord::Node>> nodes_;
  std::vector<std::unique_ptr<dat::core::DatNode>> dats_;
  std::vector<std::unique_ptr<dat::obs::SelfMonitor>> selfmons_;
};

}  // namespace perfbench
