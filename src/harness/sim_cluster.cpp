#include "harness/sim_cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace dat::harness {

void install_default_schema(maan::Schema& schema) {
  schema.add({.name = "cpu-usage", .numeric = true, .lo = 0.0, .hi = 100.0});
  schema.add({.name = "cpu-speed", .numeric = true, .lo = 0.0, .hi = 10e9});
  schema.add({.name = "memory-size", .numeric = true, .lo = 0.0, .hi = 64e9});
  schema.add({.name = "disk-free", .numeric = true, .lo = 0.0, .hi = 100.0});
  schema.add({.name = "os", .numeric = false});
  schema.add({.name = "arch", .numeric = false});
}

SimCluster::SimCluster(std::size_t n, ClusterOptions options)
    : Fleet(options), sim_options_(std::move(options)) {
  if (sim_options_.with_selfmon && sim_options_.selfmon.fleet_size == 0) {
    sim_options_.selfmon.fleet_size = n;
  }
  auto_d0_hints_ = sim_options_.inject_d0_hint;
  install_default_schema(schema_);
  engine_ = std::make_unique<sim::Engine>(sim_options_.seed,
                                          std::move(sim_options_.latency));
  network_ = std::make_unique<net::SimNetwork>(*engine_);
  next_seed_ = sim_options_.seed * 1000003 + 1;
  bootstrap(n, next_seed_++);
}

SimCluster::~SimCluster() { release_slots(); }

void SimCluster::attach_layers(Slot& slot) {
  Fleet::attach_layers(slot);
  if (sim_options_.with_maan) {
    slot.maan = std::make_unique<maan::MaanNode>(*slot.node, schema_,
                                                 sim_options_.maan);
  }
  if (sim_options_.with_selfmon && slot.dat) {
    slot.selfmon =
        std::make_unique<obs::SelfMonitor>(*slot.dat, sim_options_.selfmon);
  }
}

maan::MaanNode& SimCluster::maan(std::size_t slot) {
  if (!is_live(slot) || !slots_[slot].maan) {
    throw std::out_of_range("SimCluster::maan: dead slot or MAAN disabled");
  }
  return *slots_[slot].maan;
}

bool SimCluster::run_until(const std::function<bool()>& condition,
                           std::uint64_t max_us) {
  const std::uint64_t deadline = engine_->now() + max_us;
  while (engine_->now() < deadline) {
    if (condition()) return true;
    engine_->advance_until(
        std::min<sim::SimTime>(deadline, engine_->now() + 500'000));
  }
  return false;
}

void SimCluster::await_join(const bool& joined, const bool& failed) {
  const std::uint64_t deadline = engine_->now() + 30'000'000;
  while (!joined && !failed && engine_->now() < deadline &&
         !engine_->idle()) {
    engine_->run_steps(256);
  }
  if (joined) engine_->run_until(engine_->now() + sim_options_.join_settle_us);
}

}  // namespace dat::harness
