#include "fleet.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {
constexpr unsigned kIdBits = 32;
/// Substrate time one join may take.
constexpr std::uint64_t kJoinTimeoutUs = 5'000'000;

dat::netio::ReactorOptions reactor_options(dat::obs::MetricsRegistry& metrics) {
  dat::netio::ReactorOptions options;
  options.metrics = &metrics;
  return options;
}
}  // namespace

NetioSubstrate::NetioSubstrate() : network_(reactor_options(metrics_)) {}

SimSubstrate::SimSubstrate(std::uint64_t seed)
    : engine_(seed), network_(engine_) {}

Fleet::Fleet(std::unique_ptr<Substrate> substrate, FleetOptions options,
             Tracer& tracer)
    : options_(std::move(options)),
      space_(kIdBits),
      tracer_(tracer),
      substrate_(std::move(substrate)) {
  if (options_.nodes < 2) throw std::invalid_argument("Fleet: need 2+ nodes");
  if (options_.selfmon && options_.selfmon_options.fleet_size == 0) {
    options_.selfmon_options.fleet_size = options_.nodes;
  }
}

Fleet::~Fleet() {
  // Layered teardown, top down, before the transports go away with the
  // substrate: selfmon, then DAT, then Chord, then the decorators.
  selfmons_.clear();
  dats_.clear();
  nodes_.clear();
  wrappers_.clear();
}

dat::net::Transport& Fleet::make_transport() {
  dat::net::Transport& raw = substrate_->add_transport();
  raw_.push_back(&raw);
  if (!options_.traced) return raw;
  wrappers_.push_back(std::make_unique<TracedTransport>(raw, tracer_));
  return *wrappers_.back();
}

bool Fleet::boot() {
  const std::uint64_t seed_base = options_.seed * 1'000'003 + 1;
  nodes_.push_back(std::make_unique<dat::chord::Node>(
      space_, make_transport(), options_.node, seed_base));
  nodes_.front()->create();
  const dat::net::Endpoint bootstrap = raw_.front()->local();

  for (std::size_t i = 1; i < options_.nodes; ++i) {
    nodes_.push_back(std::make_unique<dat::chord::Node>(
        space_, make_transport(), options_.node, seed_base + i));
    bool joined = false;
    bool failed = false;
    nodes_.back()->join(bootstrap, [&](bool ok) {
      joined = ok;
      failed = !ok;
    });
    wait_join([&] { return !joined && !failed; });
    if (!joined) return false;
    if (options_.join_settle_us > 0) pump_for(options_.join_settle_us);
  }
  if (options_.d0_hint) {
    for (auto& node : nodes_) node->set_d0_hint(space_.size(), nodes_.size());
  }
  for (auto& node : nodes_) {
    dats_.push_back(std::make_unique<dat::core::DatNode>(*node, options_.dat));
    if (options_.selfmon) {
      selfmons_.push_back(std::make_unique<dat::obs::SelfMonitor>(
          *dats_.back(), options_.selfmon_options));
    }
  }
  const std::uint64_t deadline =
      substrate_->now_us() + options_.converge_timeout_us;
  while (!converged()) {
    if (substrate_->now_us() >= deadline) return false;
    pump_for(options_.converge_step_us);
  }
  return true;
}

void Fleet::wait_join(const std::function<bool()>& pending) {
  auto* sim = dynamic_cast<SimSubstrate*>(substrate_.get());
  if (sim == nullptr) {
    pump_while(pending, kJoinTimeoutUs);
    return;
  }
  // SimCluster's bootstrap pacing: whole batches of 256 events per check.
  // Early joins then get far more settle time than join_settle_us alone;
  // with 1 ms checks instead, a 1024-node ring did not converge within
  // 1200 virtual seconds.
  const std::uint64_t deadline = substrate_->now_us() + kJoinTimeoutUs;
  while (pending() && substrate_->now_us() < deadline &&
         !sim->engine().idle()) {
    sim->pump_events(256);
  }
}

void Fleet::pump(std::uint64_t max_us) {
  if (!tracer_.enabled()) {
    substrate_->pump(max_us);
    return;
  }
  tracer_.enter();
  substrate_->pump(max_us);
  tracer_.leave(Layer::kPump);
}

void Fleet::pump_for(std::uint64_t us) {
  const std::uint64_t deadline = substrate_->now_us() + us;
  for (std::uint64_t now = substrate_->now_us(); now < deadline;
       now = substrate_->now_us()) {
    pump(deadline - now);
  }
}

bool Fleet::pump_while(const std::function<bool()>& keep_going,
                       std::uint64_t max_us) {
  const std::uint64_t deadline = substrate_->now_us() + max_us;
  while (keep_going()) {
    const std::uint64_t now = substrate_->now_us();
    if (now >= deadline) return false;
    pump(std::min<std::uint64_t>(deadline - now, 1'000));
  }
  return true;
}

dat::chord::RingView Fleet::ring_view() const {
  std::vector<dat::Id> ids;
  ids.reserve(nodes_.size());
  for (const auto& node : nodes_) ids.push_back(node->id());
  return {space_, std::move(ids)};
}

bool Fleet::converged() const {
  const dat::chord::RingView ring = ring_view();
  return std::all_of(nodes_.begin(), nodes_.end(), [&](const auto& node) {
    return node->converged_against(ring);
  });
}

std::size_t Fleet::slot_of(dat::Id id) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->id() == id) return i;
  }
  throw std::out_of_range("Fleet::slot_of: unknown id");
}

}  // namespace perfbench
