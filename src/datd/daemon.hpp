#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "chord/node.hpp"
#include "common/id_space.hpp"
#include "dat/dat_node.hpp"
#include "dat/replicated.hpp"
#include "datd/config.hpp"
#include "datd/status.hpp"
#include "netio/netio_network.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime.hpp"
#include "obs/selfmon.hpp"

namespace dat::datd {

/// One deployable DAT/Chord node: the object behind the `datd` binary. Owns
/// a netio socket host, one chord node with its DAT layer and a
/// ReplicatedAggregate workload, the admin RPC surface (`datd.status` /
/// `datd.metrics` / `datd.leave` / `datd.rebalance` / `datd.fleet`, whose
/// fleet view carries the SLO alert rows), the periodic metrics dump, the
/// self-monitoring meta-trees and the crash postmortem hook.
///
/// Lifecycle: construct → bootstrap() (create a ring or join one with
/// capped decorrelated-jitter retry across the seed list) → run() until a
/// signal or a remote leave request, then graceful degradation: drain the
/// DAT trees (handoffs + retracts), leave the ring cleanly, and exit 0 —
/// or exit 1 if the drain deadline expires first.
class Daemon {
 public:
  explicit Daemon(Config config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the socket, creates/joins the ring, starts the workload. False
  /// when every join attempt failed (the process should exit non-zero).
  [[nodiscard]] bool bootstrap();

  /// Pumps the event loop until SIGTERM/SIGINT or a `datd.leave` request,
  /// then drains. Returns the process exit code: 0 for a drain that beat
  /// the deadline, 1 when the hard deadline forced an abrupt exit.
  int run();

  /// The SIGTERM path, callable directly (tests): drain trees, retract,
  /// leave the ring, flush metrics — all under the configured hard
  /// deadline. Returns true if everything completed in time.
  bool drain();

  [[nodiscard]] StatusInfo status() const;
  [[nodiscard]] obs::MetricsSnapshot telemetry_snapshot() const;
  void dump_metrics() const;

  [[nodiscard]] chord::Node& node() { return *node_; }
  [[nodiscard]] core::DatNode& dat() { return *dat_; }
  /// Null when --selfmon=false or before bootstrap().
  [[nodiscard]] obs::SelfMonitor* selfmon() { return selfmon_.get(); }
  [[nodiscard]] netio::NetioNetwork& network() { return network_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] net::Endpoint local() const { return transport_->local(); }

 private:
  void register_admin_handlers();
  [[nodiscard]] bool join_with_retry();

  Config config_;
  IdSpace space_;
  /// Daemon-scope instruments (reactor I/O, process runtime); merged with
  /// the node registry in telemetry_snapshot(). Declared before network_:
  /// the reactor holds a collector in it and unregisters on destruction.
  obs::MetricsRegistry metrics_;
  netio::NetioNetwork network_;
  net::Transport* transport_ = nullptr;
  std::unique_ptr<chord::Node> node_;
  std::unique_ptr<core::DatNode> dat_;
  std::unique_ptr<core::ReplicatedAggregate> aggregate_;
  /// Declared after dat_ so in-flight meta-tree callbacks die first.
  std::unique_ptr<obs::SelfMonitor> selfmon_;
  std::unique_ptr<obs::ProcessRuntime> runtime_;
  bool serving_ = true;
  bool leave_requested_ = false;
  bool postmortem_installed_ = false;
  mutable std::uint64_t last_dump_us_ = 0;
  /// datd.metrics page cache: one rendered snapshot served across the
  /// chunked continuation requests of a single scrape generation.
  std::uint64_t metrics_gen_ = 0;
  std::string metrics_page_;
};

}  // namespace dat::datd
