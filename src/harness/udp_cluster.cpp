#include "harness/udp_cluster.hpp"

#include <fstream>
#include <stdexcept>

namespace dat::harness {

UdpCluster::UdpCluster(std::size_t n, UdpClusterOptions options)
    : Fleet(options),
      udp_options_(std::move(options)),
      network_(netio::ReactorOptions{.metrics = &cluster_metrics_}) {
  next_seed_ = udp_options_.seed + 101;
  bootstrap(n, udp_options_.seed);
}

UdpCluster::~UdpCluster() {
  try {
    shutdown();
  } catch (...) {
    // Destructors must not throw. A failed graceful departure only means
    // peers will learn about it through their failure detectors instead.
  }
  release_slots();
}

void UdpCluster::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (Slot& slot : slots_) slot.dat.reset();
  for (Slot& slot : slots_) {
    if (!slot.live) continue;
    slot.node->leave();
    slot.live = false;
  }
  network_.run_for(100'000);  // let the leaving notices drain
}

void UdpCluster::await_join(const bool& joined, const bool& failed) {
  network_.run_while([&] { return !joined && !failed; }, kJoinTimeoutUs);
}

bool UdpCluster::run_until(const std::function<bool()>& condition,
                           std::uint64_t max_us) {
  const bool met = network_.run_while([&] { return !condition(); }, max_us);
  maybe_dump_metrics();
  return met;
}

obs::MetricsSnapshot UdpCluster::telemetry_snapshot() const {
  obs::MetricsSnapshot all = Fleet::telemetry_snapshot();
  all.merge(cluster_metrics_.snapshot().with_label("node", "cluster"));
  return all;
}

void UdpCluster::dump_metrics(const std::string& path,
                              obs::ExportFormat format) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("UdpCluster::dump_metrics: cannot open " + path);
  }
  out << obs::render(telemetry_snapshot(), format);
}

void UdpCluster::maybe_dump_metrics() {
  if (udp_options_.metrics_dump_path.empty()) return;
  const std::uint64_t now = network_.now_us();
  if (last_dump_us_ != 0 &&
      now - last_dump_us_ < udp_options_.metrics_dump_period_us) {
    return;
  }
  last_dump_us_ = now;
  dump_metrics(udp_options_.metrics_dump_path,
               udp_options_.metrics_dump_format);
}

}  // namespace dat::harness
