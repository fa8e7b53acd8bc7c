#include "harness/fleet.hpp"

#include <stdexcept>

#include "harness/invariants.hpp"

// Invariant checking at protocol step boundaries is compiled in only for
// DAT_CHECK_INVARIANTS builds (e.g. the asan-ubsan preset); release builds
// pay nothing. The assert_* methods themselves are always available.
#if DAT_CHECK_INVARIANTS
#define DAT_HARNESS_CHECK_LOCAL() assert_local_invariants()
#define DAT_HARNESS_CHECK_CONVERGED() assert_converged_invariants()
#else
#define DAT_HARNESS_CHECK_LOCAL() (void)0
#define DAT_HARNESS_CHECK_CONVERGED() (void)0
#endif

namespace dat::harness {

Fleet::Fleet(const FleetOptions& options)
    : options_(options), space_(options.bits) {}

void Fleet::bootstrap(std::size_t n, std::uint64_t first_seed) {
  if (n == 0) throw std::invalid_argument("Fleet: n == 0");
  try {
    slots_.reserve(n);
    // First node creates the ring.
    Slot& first = slots_.emplace_back();
    first.transport = &open_transport();
    first.node = std::make_unique<chord::Node>(space_, *first.transport,
                                               options_.node, first_seed);
    first.node->create();
    first.live = true;
    attach_layers(first);
    // The rest join sequentially with some settle time, as a real
    // deployment rolls out.
    for (std::size_t i = 1; i < n; ++i) {
      if (!add_node()) {
        throw std::runtime_error("Fleet: bootstrap join failed at node " +
                                 std::to_string(i));
      }
    }
  } catch (...) {
    // The subclass destructor never runs for a throwing constructor; drop
    // the protocol objects while the transports they use still exist.
    release_slots();
    throw;
  }
  if (auto_d0_hints_) refresh_d0_hints();
  DAT_HARNESS_CHECK_LOCAL();
}

void Fleet::release_slots() noexcept {
  // Layered teardown: protocol objects before their transports.
  for (Slot& slot : slots_) {
    slot.selfmon.reset();
    slot.maan.reset();
    slot.dat.reset();
    slot.node.reset();
  }
}

void Fleet::attach_layers(Slot& slot) {
  if (options_.with_dat) {
    slot.dat = std::make_unique<core::DatNode>(*slot.node, options_.dat);
  }
}

void Fleet::register_cluster_aggregates(std::size_t slot_idx) {
  core::DatNode* dat = slots_[slot_idx].dat.get();
  if (dat == nullptr) return;
  for (const AggregateSpec& spec : cluster_aggregates_) {
    dat->start_aggregate(spec.name, spec.kind, spec.scheme,
                         spec.local_for ? spec.local_for(slot_idx)
                                        : core::DatNode::LocalValueFn{},
                         spec.epoch_us);
  }
}

Id Fleet::start_aggregate_everywhere(std::string_view name,
                                     core::AggregateKind kind,
                                     chord::RoutingScheme scheme,
                                     LocalValueFactory local_for,
                                     std::uint64_t epoch_us) {
  if (!options_.with_dat) {
    throw std::logic_error(
        "Fleet::start_aggregate_everywhere: DAT layer disabled");
  }
  cluster_aggregates_.push_back(
      {std::string(name), kind, scheme, std::move(local_for), epoch_us});
  const AggregateSpec& spec = cluster_aggregates_.back();
  Id key = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!slot.live || !slot.dat) continue;
    key = slot.dat->start_aggregate(
        spec.name, spec.kind, spec.scheme,
        spec.local_for ? spec.local_for(i) : core::DatNode::LocalValueFn{},
        spec.epoch_us);
  }
  return key;
}

std::size_t Fleet::live_count() const {
  std::size_t count = 0;
  for (const Slot& slot : slots_) {
    if (slot.live) ++count;
  }
  return count;
}

bool Fleet::is_live(std::size_t slot) const {
  return slot < slots_.size() && slots_[slot].live;
}

chord::Node& Fleet::node(std::size_t slot) {
  if (!is_live(slot)) throw std::out_of_range("Fleet::node: dead slot");
  return *slots_[slot].node;
}

core::DatNode& Fleet::dat(std::size_t slot) {
  if (!is_live(slot) || !slots_[slot].dat) {
    throw std::out_of_range("Fleet::dat: dead slot or DAT disabled");
  }
  return *slots_[slot].dat;
}

obs::SelfMonitor* Fleet::selfmon(std::size_t slot) {
  if (!is_live(slot)) return nullptr;
  return slots_[slot].selfmon.get();
}

chord::RingView Fleet::ring_view() const {
  std::vector<Id> ids;
  ids.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    if (slot.live) ids.push_back(slot.node->id());
  }
  return {space_, std::move(ids)};
}

bool Fleet::wait_converged(std::uint64_t max_us) {
  const bool converged = run_until(
      [this] {
        const chord::RingView ring = ring_view();
        for (const Slot& slot : slots_) {
          if (slot.live && !slot.node->converged_against(ring)) return false;
        }
        return true;
      },
      max_us);
  if (converged) DAT_HARNESS_CHECK_CONVERGED();
  return converged;
}

std::size_t Fleet::lowest_live_slot() const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].live) return i;
  }
  throw std::logic_error("Fleet: no live nodes");
}

bool Fleet::boot_slot(std::size_t slot_idx, std::optional<Id> forced_id) {
  const net::Endpoint bootstrap =
      slots_[lowest_live_slot()].transport->local();
  Slot& slot = slots_[slot_idx];
  slot.transport = &open_transport();
  slot.node = std::make_unique<chord::Node>(space_, *slot.transport,
                                            options_.node, next_seed_++);
  bool joined = false;
  bool failed = false;
  slot.node->join(
      bootstrap,
      [&](bool ok) {
        joined = ok;
        failed = !ok;
      },
      forced_id);
  await_join(joined, failed);
  if (!joined) {
    // Destroy the node (which still references the transport) before the
    // transport itself.
    const net::Endpoint ep = slot.transport->local();
    slot.node.reset();
    slot.transport = nullptr;
    close_transport(ep);
    return false;
  }
  slot.live = true;
  attach_layers(slot);
  register_cluster_aggregates(slot_idx);
  return true;
}

bool Fleet::rejoin(std::size_t slot_idx, std::optional<Id> forced_id) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (boot_slot(slot_idx, forced_id)) {
      DAT_HARNESS_CHECK_LOCAL();
      return true;
    }
  }
  return false;
}

std::optional<std::size_t> Fleet::add_node() {
  slots_.emplace_back();
  if (!rejoin(slots_.size() - 1, std::nullopt)) {
    slots_.pop_back();
    return std::nullopt;
  }
  return slots_.size() - 1;
}

bool Fleet::restart_node(std::size_t slot_idx) {
  if (slot_idx >= slots_.size()) {
    throw std::out_of_range("Fleet::restart_node: unknown slot");
  }
  if (slots_[slot_idx].live) {
    throw std::logic_error("Fleet::restart_node: slot is live");
  }
  // A crash loses all protocol state; the restarted instance is a brand-new
  // node on a fresh transport that happens to reuse the slot index.
  if (!rejoin(slot_idx, std::nullopt)) return false;
  if (auto_d0_hints_) refresh_d0_hints();
  return true;
}

bool Fleet::migrate_node(std::size_t slot_idx, Id new_id) {
  if (!is_live(slot_idx)) {
    throw std::logic_error("Fleet::migrate_node: slot not live");
  }
  if (live_count() < 2) {
    throw std::logic_error("Fleet::migrate_node: last live node");
  }
  remove_node(slot_idx, /*graceful=*/true);
  if (!rejoin(slot_idx, new_id & space_.mask())) return false;
  if (auto_d0_hints_) refresh_d0_hints();
  return true;
}

void Fleet::remove_node(std::size_t slot_idx, bool graceful) {
  if (slot_idx >= slots_.size()) {
    throw std::out_of_range("Fleet::remove_node: unknown slot");
  }
  Slot& slot = slots_[slot_idx];
  if (!slot.live) return;
  if (graceful) {
    slot.node->leave();
  } else {
    slot.node->fail();
  }
  slot.live = false;
  const net::Endpoint ep = slot.transport->local();
  slot.selfmon.reset();
  slot.maan.reset();
  slot.dat.reset();
  slot.node.reset();
  close_transport(ep);
  slot.transport = nullptr;
  DAT_HARNESS_CHECK_LOCAL();
}

void Fleet::refresh_d0_hints() {
  const std::size_t n = live_count();
  for (Slot& slot : slots_) {
    if (slot.live) slot.node->set_d0_hint(space_.size(), n);
  }
}

std::uint64_t Fleet::total_maintenance_rpcs() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot.live) total += slot.node->maintenance_rpcs();
  }
  return total;
}

obs::MetricsSnapshot Fleet::telemetry_snapshot() const {
  obs::MetricsSnapshot all;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].live) continue;
    all.merge(slots_[i].node->telemetry().registry.snapshot().with_label(
        "node", std::to_string(i)));
  }
  return all;
}

void Fleet::assert_local_invariants() const {
  InvariantReport report;
  for (const Slot& slot : slots_) {
    if (slot.live) check_node_structure(*slot.node, report);
  }
  require_ok(report, "Fleet local invariants");
}

void Fleet::assert_converged_invariants() const {
  InvariantReport report;
  const chord::RingView ring = ring_view();
  check_ring_structure(ring, report);
  for (const Slot& slot : slots_) {
    if (!slot.live) continue;
    check_node_structure(*slot.node, report);
    check_converged_node(*slot.node, ring, report);
  }
  // Sample rendezvous keys across the circle (including the wrap point)
  // under both routing schemes.
  const Id step = space_.size() / 4 ? space_.size() / 4 : 1;
  for (Id key = 0; key < space_.mask(); key += step) {
    check_dat_tree(ring, key, chord::RoutingScheme::kBalanced, report);
    check_dat_tree(ring, key, chord::RoutingScheme::kGreedy, report);
  }
  require_ok(report, "Fleet converged invariants");
}

}  // namespace dat::harness
