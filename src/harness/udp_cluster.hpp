#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "harness/fleet.hpp"
#include "netio/netio_network.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace dat::harness {

struct UdpClusterOptions : FleetOptions {
  std::uint64_t seed = 1;
  /// Periodic telemetry dump: while the cluster pumps (run_for/run_until/
  /// wait_converged), the full cluster snapshot is written to this path
  /// (overwritten in place) every `metrics_dump_period_us`. Empty disables.
  std::string metrics_dump_path;
  std::uint64_t metrics_dump_period_us = 1'000'000;
  obs::ExportFormat metrics_dump_format = obs::ExportFormat::kJson;
};

/// Real-socket sibling of SimCluster: hosts n live Chord(+DAT) nodes on
/// loopback UDP in one process — the paper's testbed mode (64 instances per
/// machine over UDP RPC). The slot table, churn and barriers come from
/// Fleet; all time is wall-clock, so keep n modest in tests.
class UdpCluster final : public Fleet {
 public:
  /// Wall-clock budget for each join to complete.
  static constexpr std::uint64_t kJoinTimeoutUs = 5'000'000;

  UdpCluster(std::size_t n, UdpClusterOptions options);
  ~UdpCluster() override;

  [[nodiscard]] netio::NetioNetwork& network() noexcept { return network_; }

  /// Pumps for the given wall-clock duration.
  void run_for(std::uint64_t us) override {
    network_.run_for(us);
    maybe_dump_metrics();
  }
  bool run_until(const std::function<bool()>& condition,
                 std::uint64_t max_us) override;
  [[nodiscard]] std::uint64_t now_us() const override {
    return network_.now_us();
  }

  /// Fleet::telemetry_snapshot() plus the shared infrastructure registry
  /// (node="cluster").
  [[nodiscard]] obs::MetricsSnapshot telemetry_snapshot() const override;

  /// Writes the current telemetry snapshot to `path` in `format`.
  void dump_metrics(const std::string& path, obs::ExportFormat format) const;

  /// Gracefully departs every node (also run by the destructor).
  void shutdown();

 private:
  net::Transport& open_transport() override { return network_.add_node(); }
  void close_transport(net::Endpoint ep) override { network_.remove_node(ep); }
  void await_join(const bool& joined, const bool& failed) override;
  void maybe_dump_metrics();

  UdpClusterOptions udp_options_;
  // Declared before network_: the netio reactor holds a collector in this
  // registry and unregisters it on destruction.
  obs::MetricsRegistry cluster_metrics_;
  netio::NetioNetwork network_;
  bool shut_down_ = false;
  std::uint64_t last_dump_us_ = 0;
};

}  // namespace dat::harness
