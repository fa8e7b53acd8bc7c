#include "dat/dat_node.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/logging.hpp"
#include "common/sha1.hpp"
#include "dat/wire.hpp"

namespace dat::core {

namespace {
constexpr const char* kUpdate = "dat.update";
constexpr const char* kGetGlobal = "dat.get_global";
constexpr const char* kGetHistory = "dat.get_history";
constexpr const char* kSnapReq = "dat.snap_req";
constexpr const char* kSnapResp = "dat.snap_resp";
constexpr const char* kCollectStart = "dat.collect_start";
constexpr const char* kCollectReq = "dat.collect_req";
constexpr const char* kHandoff = "dat.handoff";
constexpr const char* kRetract = "dat.retract";
constexpr net::MethodId kUpdateId = net::method_id(kUpdate);

/// Head sampling of aggregation-wave traces: a leaf starts a traced wave on
/// one epoch in this many (Dapper-style), so tracing costs 16 frame bytes
/// on one update in 16 instead of on every one.
constexpr std::uint64_t kWaveSampleEvery = 16;

/// The sampling draw: a deterministic hash of (key, epoch, node id), so a
/// simulated run traces the same waves every time and leaves of one tree
/// start their waves on different epochs.
bool wave_sampled(Id key, std::uint64_t epoch, Id self) noexcept {
  std::uint64_t z = key * 0x9E3779B97F4A7C15ull ^ epoch * 0xC2B2AE3D27D4EB4Full ^
                    self * 0x165667B19E3779F9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z % kWaveSampleEvery == 0;
}

std::string key_label(Id key) {
  char buf[19];  // "0x" + 16 hex digits + NUL
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}
}  // namespace

Id rendezvous_key(std::string_view aggregate_name, const IdSpace& space) {
  return Sha1::hash_to_id(std::string("agg:") + std::string(aggregate_name),
                          space);
}

DatNode::DatNode(chord::Node& chord, DatOptions options)
    : chord_(chord), options_(options) {
  obs::MetricsRegistry& reg = chord_.telemetry().registry;
  m_epochs_ = &reg.counter("dat_tree_epochs_total");
  m_updates_in_ = &reg.counter("dat_tree_updates_received_total");
  m_updates_out_ = &reg.counter("dat_tree_updates_sent_total");
  m_parent_switches_ = &reg.counter("dat_tree_parent_switches_total");
  m_relay_entries_ = &reg.counter("dat_tree_relay_entries_total");
  m_handoffs_out_ = &reg.counter("dat_tree_handoff_children_total");
  m_handoffs_in_ = &reg.counter("dat_tree_handoffs_accepted_total");
  m_retracts_out_ = &reg.counter("dat_tree_retracts_sent_total");
  m_retracts_in_ = &reg.counter("dat_tree_retracts_received_total");
  m_child_staleness_ = &reg.histogram("dat_tree_child_staleness_us");
  // Per-key aggregation-table state as a registry view: sampled at snapshot
  // time, zero cost on the push path. Runs on the node's thread like every
  // other access to table_.
  collector_id_ = reg.add_collector([this](obs::MetricsSnapshot& out) {
    for (const auto& [key, entry] : table_) {
      const obs::Labels labels{{"key", key_label(key)}};
      const auto add = [&out, &labels](const char* name, double value) {
        obs::Sample s;
        s.name = name;
        s.type = obs::MetricType::kGauge;
        s.labels = labels;
        s.value = value;
        out.samples.push_back(std::move(s));
      };
      add("dat_tree_children", static_cast<double>(entry.children.size()));
      add("dat_tree_is_root", entry.global.has_value() ? 1.0 : 0.0);
      // Pushes by rule (their sum is the entry's epoch count): the share of
      // deadline pushes is how often a wave waited on a silent child.
      add("dat_tree_pushes_early", static_cast<double>(entry.pushes.early));
      add("dat_tree_pushes_deadline",
          static_cast<double>(entry.pushes.deadline));
      // Per-key cumulative update counts and the effective push period: the
      // lb load collector turns these into update rates per tree.
      add("dat_tree_updates_in", static_cast<double>(entry.updates_received));
      add("dat_tree_updates_out", static_cast<double>(entry.updates_sent));
      add("dat_tree_period_us", static_cast<double>(period_of(entry)));
      add("dat_tree_override_active",
          entry.parent_override.valid() ? 1.0 : 0.0);
    }
  });
  register_handlers();
}

DatNode::~DatNode() {
  alive_ = false;
  // The chord node (and its transport) can outlive this layer — e.g. a
  // harness tearing down DAT state before the graceful leaves drain. Every
  // handler captured `this`, so they must go before the memory does.
  net::RpcManager& rpc = chord_.rpc();
  rpc.unregister_one_way(kUpdate);
  rpc.unregister_method(kGetGlobal);
  rpc.unregister_method(kGetHistory);
  rpc.unregister_one_way(kSnapReq);
  rpc.unregister_one_way(kSnapResp);
  rpc.unregister_one_way(kCollectStart);
  rpc.unregister_one_way(kCollectReq);
  rpc.unregister_one_way(kHandoff);
  rpc.unregister_one_way(kRetract);
  chord_.telemetry().registry.remove_collector(collector_id_);
  for (auto& [key, entry] : table_) {
    if (entry.timer != 0) chord_.rpc().transport().cancel_timer(entry.timer);
  }
  for (auto& [seq, snap] : snapshots_) {
    if (snap.timer != 0) chord_.rpc().transport().cancel_timer(snap.timer);
  }
}

void DatNode::register_handlers() {
  chord_.rpc().register_one_way(
      kUpdate,
      [this](net::Endpoint from, net::Reader& msg) { handle_update(from, msg); });
  chord_.rpc().register_method(
      kGetGlobal, [this](net::Endpoint from, net::Reader& req,
                         net::Writer& reply) {
        handle_get_global(from, req, reply);
      });
  chord_.rpc().register_method(
      kGetHistory, [this](net::Endpoint from, net::Reader& req,
                          net::Writer& reply) {
        handle_get_history(from, req, reply);
      });
  chord_.rpc().register_one_way(
      kSnapReq, [this](net::Endpoint from, net::Reader& msg) {
        handle_snap_req(from, msg);
      });
  chord_.rpc().register_one_way(
      kSnapResp, [this](net::Endpoint from, net::Reader& msg) {
        handle_snap_resp(from, msg);
      });
  for (const char* method : {kCollectStart, kCollectReq}) {
    chord_.rpc().register_one_way(
        method, [this](net::Endpoint from, net::Reader& msg) {
          handle_collect(from, msg);
        });
  }
  chord_.rpc().register_one_way(
      kHandoff, [this](net::Endpoint from, net::Reader& msg) {
        handle_handoff(from, msg);
      });
  chord_.rpc().register_one_way(
      kRetract, [this](net::Endpoint from, net::Reader& msg) {
        handle_retract(from, msg);
      });
}

// -- on-demand collection ----------------------------------------------------

template <typename FanOut>
std::uint64_t DatNode::open_collection(PendingSnapshot pending,
                                       std::uint64_t timeout_us,
                                       FanOut fan_out) {
  const std::uint64_t seq = next_seq_++;
  snapshots_.emplace(seq, std::move(pending));
  const unsigned issued = fan_out(seq);
  auto& slot = snapshots_.at(seq);
  slot.outstanding = issued;
  if (issued == 0) {
    finish_snapshot(seq);
    return seq;
  }
  slot.timer = chord_.rpc().transport().set_timer(timeout_us, [this, seq]() {
    if (!alive_) return;
    finish_snapshot(seq);  // return what we have; stragglers are dropped
  });
  return seq;
}

DatNode::PendingSnapshot DatNode::seeded(Id key, SnapshotHandler handler,
                                         net::Endpoint reply_to,
                                         std::uint64_t reply_seq) const {
  PendingSnapshot pending;
  const auto it = table_.find(key);
  pending.acc = it != table_.end() ? local_contribution(it->second)
                                   : AggState::identity();
  pending.handler = std::move(handler);
  pending.reply_to = reply_to;
  pending.reply_seq = reply_seq;
  return pending;
}

void DatNode::collect_tree(Id key, SnapshotHandler handler) {
  key &= chord_.space().mask();
  if (chord_.owns(key)) {
    run_collect(key, net::kNullEndpoint, 0, 2 * chord_.space().bits(),
                std::move(handler));
    return;
  }
  // Route the request to the root; the root collects and answers us on the
  // snapshot-response channel.
  PendingSnapshot pending;
  pending.handler = std::move(handler);
  const std::uint64_t seq =
      open_collection(std::move(pending), 2 * options_.snapshot_timeout_us,
                      [](std::uint64_t) { return 1u; });
  chord_.find_successor(key, [this, key, seq](net::RpcStatus status,
                                              chord::NodeRef root) {
    if (!alive_) return;
    if (status != net::RpcStatus::kOk || !root.valid()) {
      finish_snapshot(seq);
      return;
    }
    net::Writer w;
    w.u64(seq);
    w.u64(key);
    w.u8(static_cast<std::uint8_t>(2 * chord_.space().bits()));
    chord_.rpc().send_one_way(root.endpoint, kCollectStart, w);
  });
}

void DatNode::handle_collect(net::Endpoint from, net::Reader& msg) {
  const std::uint64_t reply_seq = msg.u64();
  const Id key = msg.u64();
  const std::uint8_t depth = msg.u8();
  run_collect(key, from, reply_seq, depth, nullptr);
}

void DatNode::run_collect(Id key, net::Endpoint reply_to,
                          std::uint64_t reply_seq, unsigned depth,
                          SnapshotHandler handler) {
  // Scale the timeout with the remaining depth budget so that deeper
  // levels give up strictly before their parents do — otherwise a dead
  // branch at the bottom would exhaust every ancestor's identical timeout
  // simultaneously and the root would return only its own value.
  const unsigned max_depth = 2 * chord_.space().bits();
  const std::uint64_t level_timeout = std::max<std::uint64_t>(
      options_.snapshot_timeout_us * std::min(depth, max_depth) / max_depth,
      options_.snapshot_timeout_us / 8);
  const auto it = table_.find(key);
  open_collection(
      seeded(key, std::move(handler), reply_to, reply_seq), level_timeout,
      [&](std::uint64_t seq) {
        // Pull from every fresh soft-state child (unless the depth budget
        // is spent, which indicates a transient cycle in stale child
        // records).
        unsigned issued = 0;
        if (it == table_.end() || depth == 0) return issued;
        const std::uint64_t now = chord_.rpc().transport().now_us();
        for (const auto& [child_ep, record] : it->second.children) {
          if (!fresh(it->second, record, now)) continue;
          net::Writer w;
          w.u64(seq);
          w.u64(key);
          w.u8(static_cast<std::uint8_t>(depth - 1));
          chord_.rpc().send_one_way(child_ep, kCollectReq, w);
          ++issued;
        }
        return issued;
      });
}

void DatNode::start_aggregate(Id key, AggregateKind kind,
                              chord::RoutingScheme scheme, LocalValueFn local,
                              std::uint64_t epoch_us) {
  LocalStateFn state;
  if (local) {
    state = [local = std::move(local)] { return AggState::of(local()); };
  }
  start_aggregate_state(key, kind, scheme, std::move(state), epoch_us);
}

Id DatNode::start_aggregate(std::string_view name, AggregateKind kind,
                            chord::RoutingScheme scheme, LocalValueFn local,
                            std::uint64_t epoch_us) {
  const Id key = rendezvous_key(name, chord_.space());
  start_aggregate(key, kind, scheme, std::move(local), epoch_us);
  return key;
}

void DatNode::start_aggregate_state(Id key, AggregateKind kind,
                                    chord::RoutingScheme scheme,
                                    LocalStateFn local,
                                    std::uint64_t epoch_us) {
  key &= chord_.space().mask();
  auto [it, inserted] = table_.try_emplace(key);
  Entry& entry = it->second;
  const std::uint64_t armed_period = inserted ? 0 : period_of(entry);
  entry.key = key;
  entry.kind = kind;
  entry.scheme = scheme;
  entry.local = std::move(local);
  if (epoch_us != 0) entry.epoch_us = epoch_us;
  if (period_of(entry) != armed_period) {
    // The first arm lands on the grid; a relay entry that now learns its
    // period moves onto that period's grid.
    net::Transport& transport = chord_.rpc().transport();
    const std::uint64_t now = transport.now_us();
    if (entry.timer != 0) transport.cancel_timer(entry.timer);
    entry.pushed_at_us = now;
    arm_epoch(entry, period_of(entry) - now % period_of(entry));
  }
}

Id DatNode::start_aggregate_state(std::string_view name, AggregateKind kind,
                                  chord::RoutingScheme scheme,
                                  LocalStateFn local, std::uint64_t epoch_us) {
  const Id key = rendezvous_key(name, chord_.space());
  start_aggregate_state(key, kind, scheme, std::move(local), epoch_us);
  return key;
}

void DatNode::stop_aggregate(Id key) {
  const auto it = table_.find(key & chord_.space().mask());
  if (it == table_.end()) return;
  if (it->second.timer != 0) {
    chord_.rpc().transport().cancel_timer(it->second.timer);
  }
  table_.erase(it);
}

std::optional<GlobalValue> DatNode::latest(Id key) const {
  const auto it = table_.find(key & chord_.space().mask());
  if (it == table_.end()) return std::nullopt;
  return it->second.global;
}

void DatNode::arm_epoch(Entry& entry, std::uint64_t delay_us) {
  // Table entries never move, and every path that erases one (stop_aggregate,
  // the destructor) cancels its timer first.
  entry.timer = chord_.rpc().transport().set_timer(
      delay_us, [this, &entry]() {
        if (alive_) on_grid(entry);
      });
}

void DatNode::on_grid(Entry& entry) {
  const std::uint64_t now = chord_.rpc().transport().now_us();
  const std::uint64_t period = period_of(entry);
  // Re-armed with exactly the period, so the transport keeps the timer on
  // its grid however late this firing ran. Armed before the push: the leaf
  // hook runs inside it and may stop this aggregate.
  arm_epoch(entry, period);
  // A childless node is complete at once and pushes its sample on the grid;
  // a node with children normally pushes from handle_update. If the wave
  // before this one never completed, a child stayed silent through
  // it: push what we have (the deadline).
  const std::uint64_t opened = wave_opened(entry, now);
  if (entry.pushed_at_us >= opened) return;
  if (complete(entry, opened)) {
    run_epoch(entry, now, false);
  } else if (entry.pushed_at_us + period < opened) {
    run_epoch(entry, now, true);
  }
}

std::uint64_t DatNode::wave_opened(const Entry& entry,
                                   std::uint64_t t) const {
  const std::uint64_t period = period_of(entry);
  const std::uint64_t since = (t + period / 4) % period;
  return t > since ? t - since : 0;
}

bool DatNode::fresh(const Entry& entry, const ChildRecord& child,
                    std::uint64_t now) const {
  // Soft-state membership: the TTL scales with the entry's push period.
  return now - child.received_at_us <=
         static_cast<std::uint64_t>(options_.child_ttl_epochs) *
             period_of(entry);
}

void DatNode::expire_children(Entry& entry, std::uint64_t now) {
  std::erase_if(entry.children, [&](const auto& child) {
    return !fresh(entry, child.second, now);
  });
}

AggState DatNode::collect(Entry& entry, std::uint64_t now) {
  AggState state = local_contribution(entry);
  expire_children(entry, now);  // departed children leave the aggregate
  for (const auto& [child_ep, record] : entry.children) {
    m_child_staleness_->observe(now - record.received_at_us);
    state.merge(record.state);
  }
  return state;
}

std::uint64_t DatNode::record_wave_span(const char* name,
                                        std::uint64_t trace_id,
                                        std::uint64_t parent_span,
                                        const Entry& entry,
                                        std::uint64_t at_us,
                                        net::Endpoint peer) {
  obs::FlightRecorder& recorder = chord_.telemetry().recorder;
  obs::Span span;
  span.trace_id = trace_id;
  span.span_id = recorder.new_span_id();
  span.parent_span_id = parent_span;
  span.name = name;
  span.start_us = at_us;
  span.end_us = at_us;
  span.key = entry.key;
  span.epoch = entry.epoch;
  span.peer = peer;
  recorder.record(span);
  return span.span_id;
}

void DatNode::send_handoff(net::Endpoint to, Id key,
                           const chord::NodeRef& relay,
                           std::uint64_t ttl_us) {
  net::Writer w;
  write_handoff(w, HandoffBody{key, relay, ttl_us});
  chord_.rpc().send_one_way(to, kHandoff, w);
}

void DatNode::run_epoch(Entry& entry, std::uint64_t now, bool at_deadline) {
  if (!chord_.alive()) return;
  const Id key = entry.key;
  // A drained entry must not push again: its record upstream was retracted,
  // and a fresh update would resurrect it — double-counting the subtree it
  // just handed off.
  if (entry.draining) return;
  ++entry.epoch;
  // A deadline push closes the wave that ended; the current wave still owes
  // its own push.
  if (!at_deadline) entry.pushed_at_us = now;
  ++(at_deadline ? entry.pushes.deadline : entry.pushes.early);
  m_epochs_->inc();
  const AggState state = collect(entry, now);

  obs::NodeTelemetry& tel = chord_.telemetry();
  const auto parent = chord_.dat_parent(key, entry.scheme);
  if (!parent) {
    // This node is the root: the collected state is the global aggregate.
    entry.global = GlobalValue{state, entry.epoch, now};
    entry.history.push_back(*entry.global);
    while (entry.history.size() > options_.history_size) {
      entry.history.pop_front();
    }
    // Close the causal wave: the aggregate span is the chain's last link,
    // parented on the most recent traced child update folded in.
    if (entry.wave_trace_id != 0) {
      record_wave_span("dat.aggregate", entry.wave_trace_id,
                       entry.wave_parent_span, entry, now);
      entry.wave_trace_id = 0;
      entry.wave_parent_span = 0;
    }
    return;
  }
  entry.global.reset();  // no longer (or not) the root
  // Load-balancing handoff: while a fresh parent override is installed the
  // push goes to the designated relay instead of the geometric parent. An
  // expired (or self-pointing) override falls back silently — soft state.
  chord::NodeRef push_to = *parent;
  if (override_live(entry, now)) {
    push_to = entry.parent_override;
  } else {
    entry.parent_override = {};
    entry.override_until_us = 0;
  }
  if (entry.last_parent != net::kNullEndpoint &&
      entry.last_parent != push_to.endpoint) {
    m_parent_switches_->inc();
  }
  entry.last_parent = push_to.endpoint;

  // Causal wave, head-sampled: an interior node continues the wave of a
  // traced child (stored by handle_update), chaining its send span onto the
  // child's; a leaf starts a fresh wave on one epoch in kWaveSampleEvery;
  // anything else sends untraced.
  std::uint64_t trace_id = entry.wave_trace_id;
  const std::uint64_t parent_span = entry.wave_parent_span;
  entry.wave_trace_id = 0;
  entry.wave_parent_span = 0;
  if (trace_id == 0 && entry.children.empty() &&
      wave_sampled(key, entry.epoch, chord_.id())) {
    trace_id = tel.recorder.new_trace_id();
  }

  // Encoded into the retained buffer and handed to the transport as a view:
  // a steady-state push allocates nothing here.
  send_buf_.clear();
  net::Writer w(send_buf_);
  write_update(w, UpdateBody{key, entry.kind,
                             static_cast<std::uint8_t>(entry.scheme),
                             chord_.id(), state});
  std::optional<obs::TraceContext::Scope> scope;
  if (trace_id != 0) {
    // Scoped so RpcManager stamps {trace, send span} onto the wire frame.
    scope.emplace(tel.trace, trace_id,
                  record_wave_span("dat.update.send", trace_id, parent_span,
                                   entry, now, push_to.endpoint));
  }
  chord_.rpc().send_one_way(push_to.endpoint, kUpdateId, send_buf_);
  ++entry.updates_sent;
  m_updates_out_->inc();
}

void DatNode::handle_update(net::Endpoint from, net::Reader& msg) {
  const UpdateBody update = read_update(msg);
  const Id key = update.key;

  auto it = table_.find(key);
  if (it == table_.end()) {
    // A draining node must not adopt new trees on the way out: it would
    // never forward them. The sender re-parents via Chord stabilization
    // once this node leaves the ring.
    if (draining_) return;
    // First sighting of this tree: create a passive (relay-only) entry so
    // the aggregate flows through us — the paper's "adds a new entry in the
    // aggregation table" on first contact with an aggregate.
    const auto scheme = update.scheme <= 1
                            ? static_cast<chord::RoutingScheme>(update.scheme)
                            : chord::RoutingScheme::kBalanced;
    start_aggregate(key, update.kind, scheme, nullptr);
    it = table_.find(key);
    m_relay_entries_->inc();
  }
  Entry& entry = it->second;
  ++entry.updates_received;
  m_updates_in_->inc();
  if (entry.draining) {
    // Straggler that missed the drain handoff (in flight, or a child whose
    // dat_parent still points here): repeat the redirect instead of
    // re-adopting a record we already retracted upstream. Never redirect
    // the relay at itself.
    if (entry.drain_relay.valid() && from != entry.drain_relay.endpoint) {
      send_handoff(from, key, entry.drain_relay, entry.drain_ttl_us);
    }
    return;
  }
  ChildRecord& rec = entry.children[from];
  const std::uint64_t now = chord_.rpc().transport().now_us();
  const std::uint64_t opened = wave_opened(entry, now);
  if (entry.counted_wave != opened) {
    entry.counted_wave = opened;
    entry.reported = 0;
  }
  if (rec.received_at_us < opened) ++entry.reported;  // first in this wave
  rec.ref = chord::NodeRef{update.sender, from};
  rec.state = update.state;
  rec.received_at_us = now;

  // Cycle breaker for load-balancing handoffs: if our designated relay is
  // pushing TO us, following the override would close a two-node loop and
  // orphan both subtrees from the root. Drop the override; the geometric
  // dat_parent takes over again next epoch.
  if (entry.parent_override.valid() &&
      entry.parent_override.endpoint == from) {
    entry.parent_override = {};
    entry.override_until_us = 0;
  }

  // Causal wave: RpcManager scoped the dispatch to the sender's wire trace,
  // so the ambient context carries the child's send span. Record the
  // receive link and adopt the wave — the next run_epoch's own send (or the
  // root's aggregate span) continues this chain.
  obs::NodeTelemetry& tel = chord_.telemetry();
  if (tel.trace.active()) {
    entry.wave_trace_id = tel.trace.trace_id();
    entry.wave_parent_span =
        record_wave_span("dat.update.recv", tel.trace.trace_id(),
                         tel.trace.span_id(), entry, rec.received_at_us, from);
  }
  // Push on complete: the last child of this wave has reported.
  if (entry.pushed_at_us < opened && complete(entry, opened)) {
    run_epoch(entry, now, false);
  }
}

void DatNode::handle_get_global(net::Endpoint /*from*/, net::Reader& req,
                                net::Writer& reply) {
  const Id key = req.u64();
  const auto it = table_.find(key);
  const bool found = it != table_.end() && it->second.global.has_value();
  reply.boolean(found);
  if (found) write_global_value(reply, *it->second.global);
}

void DatNode::handle_get_history(net::Endpoint /*from*/, net::Reader& req,
                                 net::Writer& reply) {
  const Id key = req.u64();
  const auto max_points = static_cast<std::size_t>(req.u32());
  const auto it = table_.find(key);
  if (it == table_.end()) {
    reply.u32(0);
    return;
  }
  const auto& hist = it->second.history;
  const std::size_t count = std::min(max_points, hist.size());
  reply.u32(static_cast<std::uint32_t>(count));
  for (std::size_t i = hist.size() - count; i < hist.size(); ++i) {
    write_global_value(reply, hist[i]);
  }
}

template <typename OnReply>
void DatNode::query_root(Id key, const char* method,
                         std::optional<std::uint32_t> max_points,
                         OnReply on_reply) {
  key &= chord_.space().mask();
  chord_.find_successor(
      key, [this, key, method, max_points, on_reply = std::move(on_reply)](
               net::RpcStatus status, chord::NodeRef root) {
        if (!alive_) return;
        if (status != net::RpcStatus::kOk || !root.valid()) {
          on_reply(status, nullptr);
          return;
        }
        net::Writer w;
        w.u64(key);
        if (max_points) w.u32(*max_points);
        chord_.rpc().call(
            root.endpoint, method, w,
            [this, on_reply](net::RpcStatus st, net::Reader& r) {
              if (!alive_) return;
              on_reply(st, &r);
            },
            options_.rpc);
      });
}

void DatNode::query_global(Id key, QueryHandler handler) {
  // A null reader means the lookup itself failed.
  query_root(key, kGetGlobal, std::nullopt,
             [handler = std::move(handler)](net::RpcStatus st,
                                            net::Reader* r) {
               if (st != net::RpcStatus::kOk || r == nullptr ||
                   !r->boolean()) {
                 handler(st, std::nullopt);
                 return;
               }
               handler(st, read_global_value(*r));
             });
}

void DatNode::query_history(Id key, std::size_t max_points,
                            HistoryHandler handler) {
  query_root(key, kGetHistory, static_cast<std::uint32_t>(max_points),
             [handler = std::move(handler)](net::RpcStatus st,
                                            net::Reader* r) {
               std::vector<GlobalValue> points;
               if (st == net::RpcStatus::kOk && r != nullptr) {
                 const auto count = r->u32();
                 points.reserve(count);
                 for (std::uint32_t i = 0; i < count; ++i) {
                   points.push_back(read_global_value(*r));
                 }
               }
               handler(st, std::move(points));
             });
}

std::vector<GlobalValue> DatNode::history(Id key) const {
  const auto it = table_.find(key & chord_.space().mask());
  if (it == table_.end()) return {};
  return {it->second.history.begin(), it->second.history.end()};
}

// -- on-demand snapshots ------------------------------------------------------

void DatNode::snapshot(Id key, SnapshotHandler handler) {
  // Cover the whole circle (self, self] via the fingers.
  run_snapshot(key & chord_.space().mask(), chord_.id(), std::move(handler),
               net::kNullEndpoint, 0);
}

void DatNode::handle_snap_req(net::Endpoint from, net::Reader& msg) {
  const std::uint64_t origin_seq = msg.u64();
  const Id key = msg.u64();
  const Id limit = msg.u64();
  run_snapshot(key, limit, nullptr, from, origin_seq);
}

void DatNode::run_snapshot(Id key, Id limit, SnapshotHandler handler,
                           net::Endpoint reply_to, std::uint64_t reply_seq) {
  open_collection(
      seeded(key, std::move(handler), reply_to, reply_seq),
      options_.snapshot_timeout_us, [&](std::uint64_t seq) {
        const auto delegations = chord_.segment_delegations(limit);
        for (const chord::Node::Delegation& d : delegations) {
          net::Writer w;
          w.u64(seq);
          w.u64(key);
          w.u64(d.boundary);
          chord_.rpc().send_one_way(d.finger.endpoint, kSnapReq, w);
        }
        return static_cast<unsigned>(delegations.size());
      });
}

void DatNode::handle_snap_resp(net::Endpoint /*from*/, net::Reader& msg) {
  const std::uint64_t seq = msg.u64();
  const AggState state = read_agg_state(msg);
  const auto it = snapshots_.find(seq);
  if (it == snapshots_.end() || it->second.done) return;
  it->second.acc.merge(state);
  if (it->second.outstanding > 0) --it->second.outstanding;
  if (it->second.outstanding == 0) {
    finish_snapshot(seq);
  }
}

void DatNode::finish_snapshot(std::uint64_t seq) {
  const auto it = snapshots_.find(seq);
  if (it == snapshots_.end() || it->second.done) return;
  PendingSnapshot& snap = it->second;
  snap.done = true;
  if (snap.timer != 0) chord_.rpc().transport().cancel_timer(snap.timer);

  if (snap.handler) {
    SnapshotHandler handler = std::move(snap.handler);
    const AggState acc = snap.acc;
    snapshots_.erase(it);
    handler(acc);
    return;
  }
  net::Writer w;
  w.u64(snap.reply_seq);
  write_agg_state(w, snap.acc);
  chord_.rpc().send_one_way(snap.reply_to, kSnapResp, w);
  snapshots_.erase(it);
}

// -- load balancing -----------------------------------------------------------

std::size_t DatNode::shed_children(Id key, std::size_t keep,
                                   std::uint64_t ttl_us) {
  const auto it = table_.find(key & chord_.space().mask());
  if (it == table_.end() || keep == 0) return 0;
  Entry& entry = it->second;

  // Work from fresh children only.
  expire_children(entry, chord_.rpc().transport().now_us());
  if (entry.children.size() <= keep) return 0;

  // The relay is the kept child with the lowest endpoint — deterministic
  // for a given child set, so same-seed runs shed identically.
  const chord::NodeRef relay = entry.children.begin()->second.ref;
  std::size_t moved = 0;
  auto c = std::next(entry.children.begin(),
                     static_cast<std::ptrdiff_t>(keep));
  while (c != entry.children.end()) {
    send_handoff(c->first, key, relay, ttl_us);
    // Drop the record now: the child's next push lands at the relay, and a
    // lingering record here would double-count the subtree once the relay
    // starts reporting it.
    c = entry.children.erase(c);
    ++moved;
  }
  m_handoffs_out_->inc(moved);
  return moved;
}

void DatNode::set_parent_override(Id key, chord::NodeRef relay,
                                  std::uint64_t ttl_us) {
  const auto it = table_.find(key & chord_.space().mask());
  if (it == table_.end()) return;
  if (!relay.valid() || relay.endpoint == chord_.rpc().local()) return;
  it->second.parent_override = relay;
  it->second.override_until_us = chord_.rpc().transport().now_us() + ttl_us;
  m_handoffs_in_->inc();
}

bool DatNode::has_parent_override(Id key) const {
  const auto it = table_.find(key & chord_.space().mask());
  return it != table_.end() &&
         override_live(it->second, chord_.rpc().transport().now_us());
}

bool DatNode::override_live(const Entry& entry, std::uint64_t now) const {
  return entry.parent_override.valid() && now < entry.override_until_us &&
         entry.parent_override.endpoint != chord_.rpc().local();
}

void DatNode::handle_handoff(net::Endpoint /*from*/, net::Reader& msg) {
  const HandoffBody handoff = read_handoff(msg);
  set_parent_override(handoff.key, handoff.relay, handoff.ttl_us);
}

// -- graceful drain -----------------------------------------------------------

std::vector<Id> DatNode::active_keys() const {
  std::vector<Id> keys;
  keys.reserve(table_.size());
  for (const auto& [key, entry] : table_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

chord::NodeRef DatNode::drain_relay_for(const Entry& entry) const {
  if (override_live(entry, chord_.rpc().transport().now_us())) {
    return entry.parent_override;
  }
  if (const auto parent = chord_.dat_parent(entry.key, entry.scheme)) {
    return *parent;
  }
  // This node is the root: its successor inherits the key range once the
  // clean leave completes, so that is where the orphaned children belong.
  const chord::NodeRef succ = chord_.successor();
  if (succ.valid() && succ.endpoint != chord_.rpc().local()) return succ;
  return {};
}

std::size_t DatNode::drain_children(Id key, std::uint64_t ttl_us) {
  const auto it = table_.find(key & chord_.space().mask());
  if (it == table_.end()) return 0;
  Entry& entry = it->second;

  // Prune stale records first so departed children are not counted as
  // "moved".
  expire_children(entry, chord_.rpc().transport().now_us());

  const chord::NodeRef relay = drain_relay_for(entry);
  entry.draining = true;
  entry.drain_relay = relay;
  entry.drain_ttl_us = ttl_us;
  if (!relay.valid()) {
    // Singleton ring: nobody to hand the subtree to, and nobody left to
    // count it either.
    entry.children.clear();
    return 0;
  }
  std::size_t moved = 0;
  for (const auto& [child_ep, record] : entry.children) {
    // The relay itself may be one of our children (root drain: the
    // successor often is). set_parent_override ignores self-relays, so a
    // redirect would be a no-op; it re-parents via stabilization instead.
    if (child_ep == relay.endpoint) continue;
    send_handoff(child_ep, key, relay, ttl_us);
    ++moved;
  }
  // Drop every record now: the subtree reports through the relay from its
  // next push, and we will never push (or be counted) again.
  entry.children.clear();
  m_handoffs_out_->inc(moved);
  return moved;
}

DatNode::DrainReport DatNode::drain(std::uint64_t ttl_us) {
  DrainReport report;
  draining_ = true;
  for (auto& [key, entry] : table_) {
    if (entry.draining) continue;  // idempotent: drained on an earlier call
    ++report.keys;
    report.children_moved += drain_children(key, ttl_us);
    if (entry.timer != 0) {
      chord_.rpc().transport().cancel_timer(entry.timer);
      entry.timer = 0;
    }
    // Erase our soft-state record at the parent immediately. Without this
    // the handed-off children double-count against the stale record until
    // TTL expiry — drain would briefly inflate the aggregate instead of
    // conserving it.
    if (entry.last_parent != net::kNullEndpoint &&
        entry.last_parent != chord_.rpc().local()) {
      net::Writer w;
      write_retract(w, key);
      chord_.rpc().send_one_way(entry.last_parent, kRetract, w);
      ++report.retracts_sent;
      m_retracts_out_->inc();
    }
  }
  return report;
}

void DatNode::handle_retract(net::Endpoint from, net::Reader& msg) {
  const Id key = read_retract(msg);
  const auto it = table_.find(key);
  if (it == table_.end()) return;
  if (it->second.children.erase(from) > 0) {
    m_retracts_in_->inc();
  }
}

// -- instrumentation ----------------------------------------------------------

std::uint64_t DatNode::updates_received(Id key) const {
  const auto it = table_.find(key & chord_.space().mask());
  return it == table_.end() ? 0 : it->second.updates_received;
}

std::uint64_t DatNode::updates_sent(Id key) const {
  const auto it = table_.find(key & chord_.space().mask());
  return it == table_.end() ? 0 : it->second.updates_sent;
}

DatNode::PushCounts DatNode::pushes(Id key) const {
  const auto it = table_.find(key & chord_.space().mask());
  return it == table_.end() ? PushCounts{} : it->second.pushes;
}

std::size_t DatNode::child_count(Id key) const {
  const auto it = table_.find(key & chord_.space().mask());
  return it == table_.end() ? 0 : it->second.children.size();
}

}  // namespace dat::core
