#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "harness/fleet.hpp"
#include "maan/maan_node.hpp"
#include "net/sim_transport.hpp"
#include "obs/selfmon.hpp"
#include "sim/engine.hpp"

namespace dat::harness {

struct ClusterOptions : FleetOptions {
  std::uint64_t seed = 42;
  maan::MaanOptions maan{};
  bool with_maan = false;
  /// Virtual time allowed for each sequential join to settle.
  std::uint64_t join_settle_us = 400'000;
  /// Give every node the exact d0 = 2^b / n hint (the deployments in the
  /// paper know n; set false to exercise the successor-list estimator).
  bool inject_d0_hint = true;
  /// Attach an obs::SelfMonitor to every node: the cluster monitors itself
  /// through selfmon meta-trees, and each node evaluates the SLO ruleset.
  bool with_selfmon = false;
  /// Selfmon knobs; fleet_size 0 is auto-filled with the bootstrap size n.
  obs::SelfMonitorOptions selfmon{};
  std::unique_ptr<sim::LatencyModel> latency;  ///< default LAN if null
};

/// Test/bench/example harness: a whole simulated DAT deployment in one
/// object — engine, network fabric, n Chord nodes bootstrapped with probing
/// joins, and optional DAT/MAAN/selfmon layers per node. The slot table,
/// churn operations and convergence barriers come from Fleet. Mirrors the
/// paper's simulator-based setup (Sec. 5.1) at up to thousands of nodes.
class SimCluster final : public Fleet {
 public:
  SimCluster(std::size_t n, ClusterOptions options);
  ~SimCluster() override;

  [[nodiscard]] sim::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] net::SimNetwork& network() noexcept { return *network_; }
  [[nodiscard]] maan::Schema& schema() noexcept { return schema_; }

  [[nodiscard]] maan::MaanNode& maan(std::size_t slot);

  /// Runs the simulation for `us` of virtual time. The clock always advances
  /// by exactly `us`, even across stretches with no scheduled events, so
  /// fixed-step pump loops make progress regardless of timer density.
  void run_for(std::uint64_t us) override {
    engine_->advance_until(engine_->now() + us);
  }
  /// Checks `condition` every 500 ms of virtual time, up to `max_us`.
  bool run_until(const std::function<bool()>& condition,
                 std::uint64_t max_us) override;
  [[nodiscard]] std::uint64_t now_us() const override {
    return engine_->now();
  }

 private:
  net::Transport& open_transport() override { return network_->add_node(); }
  void close_transport(net::Endpoint ep) override {
    network_->remove_node(ep);
  }
  void await_join(const bool& joined, const bool& failed) override;
  void attach_layers(Slot& slot) override;

  ClusterOptions sim_options_;
  maan::Schema schema_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<net::SimNetwork> network_;
};

/// Registers the default Grid attribute schema used across examples and
/// tests: cpu-usage [0,100] %, cpu-speed [0, 10e9] Hz, memory-size
/// [0, 64e9] B, plus string attrs os and arch.
void install_default_schema(maan::Schema& schema);

}  // namespace dat::harness
