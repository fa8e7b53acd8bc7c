#include "harness/udp_cluster.hpp"

#include <fstream>
#include <stdexcept>

#include "harness/invariants.hpp"

#if DAT_CHECK_INVARIANTS
#define DAT_HARNESS_CHECK_LOCAL() assert_local_invariants()
#define DAT_HARNESS_CHECK_CONVERGED() assert_converged_invariants()
#else
#define DAT_HARNESS_CHECK_LOCAL() (void)0
#define DAT_HARNESS_CHECK_CONVERGED() (void)0
#endif

namespace dat::harness {

UdpCluster::UdpCluster(std::size_t n, UdpClusterOptions options)
    : options_(options),
      space_(options.bits),
      network_(netio::ReactorOptions{.metrics = &cluster_metrics_}) {
  if (n == 0) throw std::invalid_argument("UdpCluster: n == 0");

  auto& first_transport = network_.add_node();
  nodes_.push_back(std::make_unique<chord::Node>(
      space_, first_transport, options_.node, options_.seed));
  nodes_.front()->create();

  for (std::size_t i = 1; i < n; ++i) {
    auto& transport = network_.add_node();
    nodes_.push_back(std::make_unique<chord::Node>(
        space_, transport, options_.node, options_.seed + 100 + i));
    bool joined = false;
    bool failed = false;
    nodes_.back()->join(first_transport.local(), [&](bool ok) {
      joined = ok;
      failed = !ok;
    });
    network_.run_while([&] { return !joined && !failed; },
                      options_.join_timeout_us);
    if (!joined) {
      throw std::runtime_error("UdpCluster: join failed for node " +
                               std::to_string(i));
    }
  }
  if (options_.with_dat) {
    for (auto& node : nodes_) {
      dats_.push_back(std::make_unique<core::DatNode>(*node, options_.dat));
    }
  }
  next_seed_ = options_.seed + 100 + n;
  DAT_HARNESS_CHECK_LOCAL();
}

UdpCluster::~UdpCluster() {
  try {
    shutdown();
  } catch (...) {
    // Destructors must not throw. A failed graceful departure only means
    // peers will learn about it through their failure detectors instead.
  }
}

void UdpCluster::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  dats_.clear();
  for (auto& node : nodes_) {
    if (node && node->alive()) node->leave();
  }
  network_.run_for(100'000);  // let the leaving notices drain
}

void UdpCluster::crash(std::size_t i) {
  if (!is_live(i)) {
    throw std::logic_error("UdpCluster::crash: slot not live");
  }
  nodes_[i]->fail();
  const net::Endpoint ep = nodes_[i]->self().endpoint;
  // Layered teardown before the socket goes away, like a killed process:
  // no departure notice is sent, peers must detect the failure.
  if (i < dats_.size()) dats_[i].reset();
  nodes_[i].reset();
  network_.remove_node(ep);
}

std::size_t UdpCluster::lowest_live_slot() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] && nodes_[i]->alive()) return i;
  }
  throw std::logic_error("UdpCluster: no live nodes");
}

bool UdpCluster::restart(std::size_t i) {
  if (i >= nodes_.size()) {
    throw std::out_of_range("UdpCluster::restart: unknown slot");
  }
  if (nodes_[i]) {
    throw std::logic_error("UdpCluster::restart: slot is live");
  }
  return boot_slot(i, std::nullopt);
}

bool UdpCluster::boot_slot(std::size_t i, std::optional<Id> forced_id) {
  const net::Endpoint bootstrap =
      nodes_[lowest_live_slot()]->self().endpoint;
  // A crash lost all state; the restarted instance is a brand-new node on a
  // fresh socket that happens to reuse the slot index.
  auto& transport = network_.add_node();
  nodes_[i] = std::make_unique<chord::Node>(space_, transport, options_.node,
                                            next_seed_++);
  bool joined = false;
  bool failed = false;
  nodes_[i]->join(
      bootstrap,
      [&](bool ok) {
        joined = ok;
        failed = !ok;
      },
      forced_id);
  network_.run_while([&] { return !joined && !failed; },
                    options_.join_timeout_us);
  if (!joined) {
    const net::Endpoint ep = transport.local();
    nodes_[i].reset();
    network_.remove_node(ep);
    return false;
  }
  if (options_.with_dat && i < dats_.size()) {
    dats_[i] = std::make_unique<core::DatNode>(*nodes_[i], options_.dat);
    register_cluster_aggregates(i);
  }
  DAT_HARNESS_CHECK_LOCAL();
  return true;
}

bool UdpCluster::migrate(std::size_t i, Id new_id) {
  if (!is_live(i)) {
    throw std::logic_error("UdpCluster::migrate: slot not live");
  }
  // Graceful departure and layered teardown, then rejoin at the forced id.
  nodes_[i]->leave();
  const net::Endpoint ep = nodes_[i]->self().endpoint;
  if (i < dats_.size()) dats_[i].reset();
  nodes_[i].reset();
  network_.remove_node(ep);
  network_.run_for(50'000);  // let the departure notices drain
  return boot_slot(i, new_id & space_.mask());
}

void UdpCluster::register_cluster_aggregates(std::size_t i) {
  if (i >= dats_.size() || !dats_[i]) return;
  for (const AggregateSpec& spec : cluster_aggregates_) {
    dats_[i]->start_aggregate(spec.name, spec.kind, spec.scheme,
                              spec.local_for
                                  ? spec.local_for(i)
                                  : core::DatNode::LocalValueFn{},
                              spec.epoch_us);
  }
}

Id UdpCluster::start_aggregate_everywhere(std::string_view name,
                                          core::AggregateKind kind,
                                          chord::RoutingScheme scheme,
                                          LocalValueFactory local_for,
                                          std::uint64_t epoch_us) {
  if (!options_.with_dat) {
    throw std::logic_error(
        "UdpCluster::start_aggregate_everywhere: DAT layer disabled");
  }
  cluster_aggregates_.push_back(
      {std::string(name), kind, scheme, std::move(local_for), epoch_us});
  const AggregateSpec& spec = cluster_aggregates_.back();
  Id key = 0;
  for (std::size_t i = 0; i < dats_.size(); ++i) {
    if (!dats_[i]) continue;
    key = dats_[i]->start_aggregate(
        spec.name, spec.kind, spec.scheme,
        spec.local_for ? spec.local_for(i) : core::DatNode::LocalValueFn{},
        spec.epoch_us);
  }
  return key;
}

chord::RingView UdpCluster::ring_view() const {
  std::vector<Id> ids;
  ids.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    if (node && node->alive()) ids.push_back(node->id());
  }
  return {space_, std::move(ids)};
}

bool UdpCluster::wait_converged() {
  const chord::RingView ring = ring_view();
  const bool converged = network_.run_while(
      [&] {
        for (const auto& node : nodes_) {
          if (node && node->alive() && !node->converged_against(ring)) {
            return true;
          }
        }
        return false;
      },
      options_.converge_timeout_us);
  maybe_dump_metrics();
  if (converged) DAT_HARNESS_CHECK_CONVERGED();
  return converged;
}

bool UdpCluster::run_until(const std::function<bool()>& condition,
                           std::uint64_t max_us) {
  const bool met = network_.run_while([&] { return !condition(); }, max_us);
  maybe_dump_metrics();
  return met;
}

obs::MetricsSnapshot UdpCluster::telemetry_snapshot() const {
  obs::MetricsSnapshot all;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i] || !nodes_[i]->alive()) continue;
    all.merge(nodes_[i]->telemetry().registry.snapshot().with_label(
        "node", std::to_string(i)));
  }
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
  if (options_.metrics_dump_path.empty()) return;
  const std::uint64_t now = network_.now_us();
  if (last_dump_us_ != 0 &&
      now - last_dump_us_ < options_.metrics_dump_period_us) {
    return;
  }
  last_dump_us_ = now;
  dump_metrics(options_.metrics_dump_path, options_.metrics_dump_format);
}

void UdpCluster::assert_local_invariants() const {
  InvariantReport report;
  for (const auto& node : nodes_) {
    if (node && node->alive()) check_node_structure(*node, report);
  }
  require_ok(report, "UdpCluster local invariants");
}

void UdpCluster::assert_converged_invariants() const {
  InvariantReport report;
  const chord::RingView ring = ring_view();
  check_ring_structure(ring, report);
  for (const auto& node : nodes_) {
    if (!node || !node->alive()) continue;
    check_node_structure(*node, report);
    check_converged_node(*node, ring, report);
  }
  const Id step = space_.size() / 4 ? space_.size() / 4 : 1;
  for (Id key = 0; key < space_.mask(); key += step) {
    check_dat_tree(ring, key, chord::RoutingScheme::kBalanced, report);
    check_dat_tree(ring, key, chord::RoutingScheme::kGreedy, report);
  }
  require_ok(report, "UdpCluster converged invariants");
}

void UdpCluster::inject_d0_hints() {
  std::size_t live = 0;
  for (const auto& node : nodes_) {
    if (node && node->alive()) ++live;
  }
  for (auto& node : nodes_) {
    if (node && node->alive()) node->set_d0_hint(space_.size(), live);
  }
}

}  // namespace dat::harness
