#include "chord/node.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"
#include "common/sha1.hpp"

namespace dat::chord {

namespace {

constexpr const char* kLookupStep = "chord.lookup_step";
constexpr const char* kGetNeighbors = "chord.get_neighbors";
constexpr const char* kNotify = "chord.notify";
constexpr const char* kPing = "chord.ping";
constexpr const char* kSplitInterval = "chord.split_interval";
constexpr const char* kLeaving = "chord.leaving";
constexpr const char* kRoute = "chord.route";
constexpr const char* kBroadcast = "chord.bcast";
constexpr const char* kRecursiveFind = "chord.rfind";
constexpr const char* kRecursiveFindDone = "chord.rfind_done";

Id endpoint_hash_id(net::Endpoint ep, const IdSpace& space) {
  return Sha1::hash_to_id("node:" + std::to_string(ep), space);
}

}  // namespace

Node::Node(const IdSpace& space, net::Transport& transport,
           NodeOptions options, std::uint64_t seed)
    : space_(space),
      transport_(transport),
      options_(options),
      rng_(seed),
      telemetry_(std::make_unique<obs::NodeTelemetry>(
          (seed * 0x9e3779b97f4a7c15ULL) ^ transport.local())),
      rpc_(std::make_unique<net::RpcManager>(transport)),
      fingers_(space.bits()),
      finger_pred_(space.bits()) {
  self_.endpoint = transport.local();
  self_.id = endpoint_hash_id(self_.endpoint, space_);
  rpc_->set_telemetry(telemetry_.get());
  obs::MetricsRegistry& reg = telemetry_->registry;
  m_lookups_ = &reg.counter("dat_chord_lookups_total");
  m_lookup_failures_ = &reg.counter("dat_chord_lookup_failures_total");
  m_lookup_hops_ = &reg.histogram("dat_chord_lookup_hops");
  m_stabilize_rounds_ = &reg.counter("dat_chord_stabilize_rounds_total");
  m_finger_fixes_ = &reg.counter("dat_chord_finger_fixes_total");
  m_join_probes_ = &reg.counter("dat_chord_join_probes_total");
  m_purges_ = &reg.counter("dat_chord_purges_total");
  // Protocol-state view: sampled at snapshot time, no hot-path cost. The
  // collector lives in the registry, which this node owns, so `this` cannot
  // dangle.
  reg.add_collector([this](obs::MetricsSnapshot& out) {
    const auto add = [&out](const char* name, obs::MetricType type,
                            double value) {
      obs::Sample s;
      s.name = name;
      s.type = type;
      s.value = value;
      out.samples.push_back(std::move(s));
    };
    std::uint64_t valid_fingers = 0;
    for (const NodeRef& f : fingers_) {
      if (f.valid()) ++valid_fingers;
    }
    using enum obs::MetricType;
    add("dat_chord_maintenance_rpcs_total", kCounter,
        static_cast<double>(maintenance_rpcs_));
    add("dat_chord_fingers_valid", kGauge,
        static_cast<double>(valid_fingers));
    add("dat_chord_successor_list_len", kGauge,
        static_cast<double>(successor_list_.size()));
    add("dat_chord_joined", kGauge, joined_ ? 1.0 : 0.0);
  });
  register_handlers();
}

Node::~Node() { stop_timers(); }

void Node::register_handlers() {
  rpc_->register_method(kLookupStep,
                        [this](net::Endpoint from, net::Reader& req,
                               net::Writer& reply) {
                          handle_lookup_step(from, req, reply);
                        });
  rpc_->register_method(kGetNeighbors,
                        [this](net::Endpoint from, net::Reader& req,
                               net::Writer& reply) {
                          handle_get_neighbors(from, req, reply);
                        });
  rpc_->register_method(
      kNotify, [this](net::Endpoint from, net::Reader& req,
                      net::Writer& reply) { handle_notify(from, req, reply); });
  rpc_->register_method(
      kPing, [this](net::Endpoint from, net::Reader& req, net::Writer& reply) {
        handle_ping(from, req, reply);
      });
  rpc_->register_method(kSplitInterval,
                        [this](net::Endpoint from, net::Reader& req,
                               net::Writer& reply) {
                          handle_split_interval(from, req, reply);
                        });
  rpc_->register_one_way(kLeaving,
                         [this](net::Endpoint from, net::Reader& msg) {
                           handle_leaving(from, msg);
                         });
  rpc_->register_one_way(kRoute,
                         [this](net::Endpoint from, net::Reader& msg) {
                           handle_route(from, msg);
                         });
  rpc_->register_one_way(kBroadcast,
                         [this](net::Endpoint from, net::Reader& msg) {
                           handle_broadcast(from, msg);
                         });
  rpc_->register_one_way(kRecursiveFind,
                         [this](net::Endpoint from, net::Reader& msg) {
                           handle_rfind(from, msg);
                         });
  rpc_->register_one_way(kRecursiveFindDone,
                         [this](net::Endpoint from, net::Reader& msg) {
                           handle_rfind_done(from, msg);
                         });
}

// -- recursive lookup ---------------------------------------------------------

void Node::find_successor_recursive(
    Id key, std::function<void(net::RpcStatus, NodeRef, unsigned)> h) {
  key &= space_.mask();
  m_lookups_->inc();
  const std::uint64_t qid = next_rlookup_id_++;
  PendingRecursiveLookup pending;
  pending.key = key;
  pending.attempts_left = 1;  // one full retry on timeout
  pending.handler = [this, h = std::move(h)](net::RpcStatus st, NodeRef node,
                                             unsigned hops) {
    m_lookup_hops_->observe(hops);
    if (st != net::RpcStatus::kOk) m_lookup_failures_->inc();
    h(st, node, hops);
  };
  rlookups_.emplace(qid, std::move(pending));
  send_rfind(qid, key);
}

Node::Hop Node::next_hop(Id key) const {
  // Resolve locally when possible (singleton, or the key is between us and
  // our successor); otherwise forward to the closest preceding finger.
  const NodeRef succ = successor();
  if (!succ.valid() || succ.endpoint == self_.endpoint) return {self_, true};
  if (space_.in_open_closed(self_.id, key, succ.id)) return {succ, true};
  const NodeRef next = closest_preceding(key);
  if (next.endpoint == self_.endpoint) return {succ, true};
  return {next, false};
}

void Node::send_rfind(std::uint64_t qid, Id key) {
  auto it = rlookups_.find(qid);
  if (it == rlookups_.end()) return;

  const Hop hop = next_hop(key);
  if (hop.resolved) {
    auto handler = std::move(it->second.handler);
    rlookups_.erase(it);
    handler(net::RpcStatus::kOk, hop.node, 0);
    return;
  }

  net::Writer w;
  w.u64(qid);
  w.u64(key);
  w.u64(self_.endpoint);  // reply-to
  w.u8(static_cast<std::uint8_t>(2 * space_.bits() + 8));  // TTL
  w.u8(1);                // hops so far
  rpc_->send_one_way(hop.node.endpoint, kRecursiveFind, w);

  // End-to-end timeout: recursive forwarding has no per-hop acks.
  const std::uint64_t budget =
      options_.rpc.timeout_us * (space_.bits() / 4 + 2);
  it->second.timer = transport_.set_timer(
      budget, [this, qid]() { fail_or_retry_rfind(qid); });
}

void Node::fail_or_retry_rfind(std::uint64_t qid) {
  auto it = rlookups_.find(qid);
  if (it == rlookups_.end()) return;
  it->second.timer = 0;
  if (it->second.attempts_left > 0) {
    --it->second.attempts_left;
    send_rfind(qid, it->second.key);
    return;
  }
  auto handler = std::move(it->second.handler);
  rlookups_.erase(it);
  handler(net::RpcStatus::kTimeout, NodeRef{}, 0);
}

void Node::handle_rfind(net::Endpoint /*from*/, net::Reader& msg) {
  const std::uint64_t qid = msg.u64();
  const Id key = msg.u64();
  const net::Endpoint reply_to = msg.u64();
  const std::uint8_t ttl = msg.u8();
  const std::uint8_t hops = msg.u8();

  const auto answer = [&](const NodeRef& result) {
    net::Writer w;
    w.u64(qid);
    write_node_ref(w, result);
    w.u8(hops);
    rpc_->send_one_way(reply_to, kRecursiveFindDone, w);
  };

  const Hop hop = joined_ ? next_hop(key) : Hop{self_, true};
  if (hop.resolved || ttl == 0) {
    answer(hop.resolved ? hop.node : successor());
    return;
  }
  net::Writer w;
  w.u64(qid);
  w.u64(key);
  w.u64(reply_to);
  w.u8(static_cast<std::uint8_t>(ttl - 1));
  // hops saturates instead of wrapping: a forged hop counter near 255 must
  // not reset the accounting to zero.
  w.u8(hops == UINT8_MAX ? UINT8_MAX
                         : static_cast<std::uint8_t>(hops + 1));
  rpc_->send_one_way(hop.node.endpoint, kRecursiveFind, w);
}

void Node::handle_rfind_done(net::Endpoint /*from*/, net::Reader& msg) {
  const std::uint64_t qid = msg.u64();
  const NodeRef result = read_node_ref(msg);
  const std::uint8_t hops = msg.u8();
  auto it = rlookups_.find(qid);
  if (it == rlookups_.end()) return;  // stale answer after retry resolution
  if (it->second.timer != 0) transport_.cancel_timer(it->second.timer);
  auto handler = std::move(it->second.handler);
  rlookups_.erase(it);
  handler(net::RpcStatus::kOk, result, hops);
}

// -- route / broadcast / upcall ---------------------------------------------

void Node::set_upcall(std::string topic, UpcallHandler handler) {
  if (handler) {
    upcalls_[std::move(topic)] = std::move(handler);
  } else {
    upcalls_.erase(topic);
  }
}

void Node::deliver_upcall(const std::string& topic, Id key,
                          std::span<const std::uint8_t> payload) {
  const auto it = upcalls_.find(topic);
  if (it == upcalls_.end()) {
    // Per-delivery drop path; gate computed in-branch so registered-topic
    // deliveries pay nothing.
    const bool log_debug = Logger::instance().enabled(LogLevel::kDebug);
    if (log_debug) {
      DAT_LOG_DEBUG("chord", "no upcall registered for topic " << topic);
    }
    return;
  }
  net::Reader reader(payload);
  try {
    it->second(key, reader);
  } catch (const std::exception& e) {
    const bool log_warn = Logger::instance().enabled(LogLevel::kWarn);
    if (log_warn) {
      DAT_LOG_WARN("chord", "upcall " << topic << " threw: " << e.what());
    }
  }
}

void Node::route(Id key, const std::string& topic,
                 const net::Writer& payload) {
  // route_step forwards with ttl - 1, so the first hop carries 2b + 8.
  route_step(topic, key & space_.mask(),
             static_cast<std::uint8_t>(2 * space_.bits() + 9), payload.data());
}

void Node::handle_route(net::Endpoint /*from*/, net::Reader& msg) {
  const std::string topic = msg.str();
  const Id key = msg.u64();
  const std::uint8_t ttl = msg.u8();
  const std::vector<std::uint8_t> payload = msg.bytes();
  route_step(topic, key, ttl, payload);
}

void Node::route_step(const std::string& topic, Id key, std::uint8_t ttl,
                      std::span<const std::uint8_t> payload) {
  // Deliver here when this node owns the key or the hop budget is spent;
  // otherwise forward one greedy finger hop.
  const auto target = owns(key) || ttl == 0
                          ? std::nullopt
                          : dat_parent(key, RoutingScheme::kGreedy);
  if (!target || target->endpoint == self_.endpoint) {
    deliver_upcall(topic, key, payload);
    return;
  }
  net::Writer w;
  w.str(topic);
  w.u64(key);
  w.u8(static_cast<std::uint8_t>(ttl - 1));
  w.bytes(payload);
  rpc_->send_one_way(target->endpoint, kRoute, w);
}

std::vector<Node::Delegation> Node::segment_delegations(Id limit) const {
  const auto in_segment = [&](Id x) {
    if (x == self_.id) return false;
    if (limit == self_.id) return true;  // full circle minus self
    return space_.in_open_open(self_.id, x, limit);
  };
  std::vector<Delegation> out;
  for (unsigned j = space_.bits(); j-- > 0;) {
    const NodeRef& f = j == 0 ? successor() : fingers_[j];
    if (!f.valid() || f.endpoint == self_.endpoint) continue;
    if (!in_segment(f.id)) continue;
    if (std::any_of(out.begin(), out.end(), [&](const Delegation& d) {
          return d.finger.id == f.id;
        })) {
      continue;
    }
    out.push_back({f, 0});
  }
  std::sort(out.begin(), out.end(),
            [&](const Delegation& a, const Delegation& b) {
              return space_.clockwise(self_.id, a.finger.id) >
                     space_.clockwise(self_.id, b.finger.id);
            });
  Id boundary = limit;
  for (Delegation& d : out) {
    d.boundary = boundary;
    boundary = d.finger.id;
  }
  return out;
}

void Node::broadcast_segment(const std::string& topic, Id limit,
                             std::span<const std::uint8_t> payload) {
  deliver_upcall(topic, Sha1::hash_to_id("topic:" + topic, space_), payload);
  for (const Delegation& d : segment_delegations(limit)) {
    net::Writer w;
    w.str(topic);
    w.u64(d.boundary);
    w.bytes(payload);
    rpc_->send_one_way(d.finger.endpoint, kBroadcast, w);
  }
}

void Node::broadcast(const std::string& topic, const net::Writer& payload) {
  broadcast_segment(topic, self_.id, payload.data());
}

void Node::handle_broadcast(net::Endpoint /*from*/, net::Reader& msg) {
  const std::string topic = msg.str();
  const Id limit = msg.u64();
  broadcast_segment(topic, limit, msg.bytes());
}

void Node::create(std::optional<Id> id) {
  if (alive_) throw std::logic_error("Node::create on a live node");
  if (id) self_.id = *id & space_.mask();
  predecessor_ = std::nullopt;
  successor_list_.assign(1, self_);
  alive_ = true;
  joined_ = true;
  start_timers();
}

void Node::join(net::Endpoint bootstrap, std::function<void(bool)> done,
                std::optional<Id> forced_id) {
  if (alive_) throw std::logic_error("Node::join on a live node");
  alive_ = true;

  // Step 1: learn the bootstrap node's identifier.
  rpc_->call(
      bootstrap, kPing, net::Writer{},
      [this, bootstrap, done = std::move(done),
       forced_id](net::RpcStatus status, net::Reader& r) mutable {
        if (!alive_) return;
        if (status != net::RpcStatus::kOk) {
          alive_ = false;
          if (done) done(false);
          return;
        }
        NodeRef well_known;
        well_known.endpoint = bootstrap;
        well_known.id = r.u64();

        auto finish_join = [this, done = std::move(done)](Id chosen_id,
                                                          NodeRef start) mutable {
          complete_join(chosen_id, start, /*attempts_left=*/5,
                        std::move(done));
        };

        if (forced_id) {
          finish_join(*forced_id, well_known);
          return;
        }
        if (!options_.probing_join) {
          finish_join(self_.id, well_known);
          return;
        }

        // Step 2 (probing join, paper Sec. 4): route to the successor of a
        // random point and ask it to designate an identifier splitting the
        // largest interval it knows about.
        const Id z = rng_.next_id(space_);
        auto state = std::make_shared<LookupState>();
        state->key = z;
        state->current = well_known;
        state->max_hops = 2 * space_.bits() + 8;
        state->handler = [this, well_known, finish_join = std::move(finish_join)](
                             net::RpcStatus st, NodeRef succ,
                             unsigned /*hops*/) mutable {
          if (!alive_) return;
          if (st != net::RpcStatus::kOk || !succ.valid()) {
            alive_ = false;
            return;
          }
          m_join_probes_->inc();
          rpc_->call(
              succ.endpoint, kSplitInterval, net::Writer{},
              [this, well_known, finish_join = std::move(finish_join)](
                  net::RpcStatus st2, net::Reader& r2) mutable {
                if (!alive_) return;
                if (st2 != net::RpcStatus::kOk) {
                  // Fall back to plain join with the hash id.
                  finish_join(self_.id, well_known);
                  return;
                }
                if (r2.boolean()) {
                  finish_join(r2.u64(), well_known);
                  return;
                }
                // Delegated: the largest interval belongs to another node;
                // ask its owner, which serializes splits of that interval.
                const net::Endpoint owner = r2.u64();
                net::Writer own_only;
                own_only.boolean(true);
                m_join_probes_->inc();
                rpc_->call(owner, kSplitInterval, own_only,
                           [this, well_known,
                            finish_join = std::move(finish_join)](
                               net::RpcStatus st3, net::Reader& r3) mutable {
                             if (!alive_) return;
                             if (st3 != net::RpcStatus::kOk || !r3.boolean()) {
                               finish_join(self_.id, well_known);
                               return;
                             }
                             finish_join(r3.u64(), well_known);
                           },
                           options_.rpc);
              },
              options_.rpc);
        };
        lookup_step(std::move(state));
      },
      options_.rpc);
}

void Node::complete_join(Id chosen_id, NodeRef start, unsigned attempts_left,
                         std::function<void(bool)> done) {
  self_.id = chosen_id & space_.mask();
  // Find our successor and splice in; stabilization integrates us fully
  // afterwards. An identifier collision (successor already holds our id)
  // triggers a bounded retry with a perturbed id.
  auto state = std::make_shared<LookupState>();
  state->key = self_.id;
  state->current = start;
  state->max_hops = 2 * space_.bits() + 8;
  state->handler = [this, start, attempts_left, done = std::move(done)](
                       net::RpcStatus st, NodeRef succ,
                       unsigned /*hops*/) mutable {
    if (!alive_) return;
    if (st != net::RpcStatus::kOk || !succ.valid()) {
      alive_ = false;
      if (done) done(false);
      return;
    }
    if (succ.endpoint == self_.endpoint) {
      // The lookup collapsed onto our own (still empty) tables — a timeout
      // mid-route restarted it from self before we ever joined. We cannot
      // be our own successor when joining through a bootstrap; retry from
      // the bootstrap, by which time its ring has purged the stale hop.
      if (attempts_left == 0) {
        alive_ = false;
        if (done) done(false);
        return;
      }
      complete_join(self_.id, start, attempts_left - 1, std::move(done));
      return;
    }
    if (succ.id == self_.id) {
      if (attempts_left == 0) {
        alive_ = false;
        if (done) done(false);
        return;
      }
      // Fall back to a fresh uniform identifier: a tiny offset would leave
      // a microscopic gap next to the collided node.
      complete_join(rng_.next_id(space_), start, attempts_left - 1,
                    std::move(done));
      return;
    }
    successor_list_.assign(1, succ);
    predecessor_ = std::nullopt;
    joined_ = true;
    start_timers();
    if (done) done(true);
  };
  lookup_step(std::move(state));
}

void Node::leave() {
  if (!alive_ || !joined_) {
    fail();
    return;
  }
  const NodeRef succ = successor();
  // Tell the successor to adopt our predecessor…
  if (succ.valid() && succ.endpoint != self_.endpoint) {
    net::Writer w;
    w.u8(0);  // 0: predecessor update (to our successor)
    w.boolean(predecessor_.has_value());
    write_node_ref(w, predecessor_.value_or(NodeRef{}));
    rpc_->send_one_way(succ.endpoint, kLeaving, w);
  }
  // …and the predecessor to adopt our successor list.
  if (predecessor_ && predecessor_->valid() &&
      predecessor_->endpoint != self_.endpoint) {
    net::Writer w;
    w.u8(1);  // 1: successor update (to our predecessor)
    w.u32(static_cast<std::uint32_t>(successor_list_.size()));
    for (const NodeRef& s : successor_list_) write_node_ref(w, s);
    rpc_->send_one_way(predecessor_->endpoint, kLeaving, w);
  }
  fail();
}

void Node::fail() {
  alive_ = false;
  joined_ = false;
  stop_timers();
}

NodeRef Node::successor() const {
  return successor_list_.empty() ? self_ : successor_list_.front();
}

std::vector<Id> Node::finger_ids() const {
  std::array<Id, 64> buf;
  const std::span<const Id> ids = finger_ids(buf);
  return {ids.begin(), ids.end()};
}

std::span<const Id> Node::finger_ids(std::array<Id, 64>& buf) const {
  for (unsigned j = 0; j < space_.bits(); ++j) {
    buf[j] = fingers_[j].valid() ? fingers_[j].id : self_.id;
  }
  // Finger 0 is by definition the successor; keep it authoritative.
  if (!successor_list_.empty()) buf[0] = successor_list_.front().id;
  return {buf.data(), space_.bits()};
}

bool Node::owns(Id key) const {
  if (!alive_) return false;
  if (!predecessor_) {
    // Singleton ring owns everything; otherwise unknown yet.
    return successor().id == self_.id;
  }
  return space_.in_open_closed(predecessor_->id, key, self_.id);
}

std::optional<NodeRef> Node::dat_parent(Id key, RoutingScheme scheme) const {
  const bool is_root = owns(key);
  std::array<Id, 64> buf;
  const std::span<const Id> ids = finger_ids(buf);
  std::optional<Id> next;
  switch (scheme) {
    case RoutingScheme::kGreedy:
      next = next_hop_greedy(space_, self_.id, key, ids, is_root);
      break;
    case RoutingScheme::kBalanced: {
      const auto [num, den] = estimate_d0();
      next = next_hop_balanced(space_, self_.id, key, ids, is_root, num, den);
      break;
    }
  }
  if (!next) return std::nullopt;
  // Map the chosen identifier back to an endpoint.
  if (!successor_list_.empty() && successor_list_.front().id == *next) {
    return successor_list_.front();
  }
  for (unsigned j = 0; j < space_.bits(); ++j) {
    if (fingers_[j].valid() && fingers_[j].id == *next) return fingers_[j];
  }
  for (const NodeRef& s : successor_list_) {
    if (s.id == *next) return s;
  }
  return std::nullopt;  // table churned between selection and mapping
}

std::pair<std::uint64_t, std::uint64_t> Node::estimate_d0() const {
  if (d0_hint_) return *d0_hint_;
  // Estimate from successor-list spacing: the clockwise span covered by the
  // list divided by the number of gaps in it.
  if (successor_list_.size() >= 2 &&
      successor_list_.back().id != self_.id) {
    const Id span = space_.clockwise(self_.id, successor_list_.back().id);
    const std::uint64_t gaps = successor_list_.size();
    if (span > 0) return {span, gaps};
  }
  return {space_.size(), 1};  // singleton: the whole circle
}

bool Node::converged_against(const RingView& ring) const {
  if (!alive_ || !ring.contains(self_.id)) return false;
  const std::size_t idx = ring.index_of(self_.id);
  const Id true_succ = ring.id((idx + 1) % ring.size());
  const Id true_pred = ring.id((idx + ring.size() - 1) % ring.size());
  if (successor().id != true_succ) return false;
  if (ring.size() > 1 && (!predecessor_ || predecessor_->id != true_pred)) {
    return false;
  }
  for (unsigned j = 0; j < space_.bits(); ++j) {
    const Id expect = ring.finger(self_.id, j);
    const Id have = fingers_[j].valid() ? fingers_[j].id
                                        : (j == 0 ? successor().id : self_.id);
    if (have != expect) return false;
  }
  return true;
}

std::string Node::describe() const {
  std::string out;
  out += "node " + to_string(self_) + (alive_ ? "" : " [dead]") +
         (joined_ ? "" : " [not joined]") + "\n";
  out += "  predecessor: " +
         (predecessor_ ? to_string(*predecessor_) : std::string("(none)")) +
         "\n";
  out += "  successors:  ";
  for (const NodeRef& s : successor_list_) out += to_string(s) + " ";
  out += "\n  fingers:\n";
  // Collapse runs of identical finger entries, as real tables are sparse.
  for (unsigned j = 0; j < space_.bits();) {
    unsigned k = j;
    while (k + 1 < space_.bits() &&
           fingers_[k + 1].endpoint == fingers_[j].endpoint) {
      ++k;
    }
    out += "    [" + std::to_string(j) +
           (k != j ? ".." + std::to_string(k) : "") + "] ";
    out += fingers_[j].valid() ? to_string(fingers_[j])
                               : std::string("(unset)");
    if (finger_pred_[j]) {
      out += " pred-gap " +
             std::to_string(space_.clockwise(*finger_pred_[j],
                                             fingers_[j].id));
    }
    out += "\n";
    j = k + 1;
  }
  return out;
}

// -- timers -------------------------------------------------------------

void Node::start_timers() {
  arm_stabilize();
  arm_fix_fingers();
  arm_check_predecessor();
}

void Node::stop_timers() {
  if (stabilize_timer_ != 0) transport_.cancel_timer(stabilize_timer_);
  if (fix_fingers_timer_ != 0) transport_.cancel_timer(fix_fingers_timer_);
  if (check_pred_timer_ != 0) transport_.cancel_timer(check_pred_timer_);
  stabilize_timer_ = fix_fingers_timer_ = check_pred_timer_ = 0;
  for (auto& [qid, pending] : rlookups_) {
    if (pending.timer != 0) transport_.cancel_timer(pending.timer);
  }
  rlookups_.clear();
}

void Node::arm_stabilize() {
  const std::uint64_t jitter = rng_.next_below(options_.start_jitter_us + 1);
  stabilize_timer_ = transport_.set_timer(
      options_.stabilize_interval_us + jitter, [this]() {
        if (!alive_) return;
        do_stabilize();
        arm_stabilize();
      });
}

void Node::arm_fix_fingers() {
  const std::uint64_t jitter = rng_.next_below(options_.start_jitter_us + 1);
  fix_fingers_timer_ = transport_.set_timer(
      options_.fix_fingers_interval_us + jitter, [this]() {
        if (!alive_) return;
        do_fix_fingers();
        arm_fix_fingers();
      });
}

void Node::arm_check_predecessor() {
  const std::uint64_t jitter = rng_.next_below(options_.start_jitter_us + 1);
  check_pred_timer_ = transport_.set_timer(
      options_.check_predecessor_interval_us + jitter, [this]() {
        if (!alive_) return;
        do_check_predecessor();
        arm_check_predecessor();
      });
}

// -- periodic protocols ---------------------------------------------------

void Node::do_stabilize() {
  const NodeRef succ = successor();
  if (!succ.valid() || succ.endpoint == self_.endpoint) {
    // Singleton: if someone notified us, close the two-node ring.
    if (predecessor_ && predecessor_->id != self_.id) {
      successor_list_.assign(1, *predecessor_);
    }
    return;
  }
  ++maintenance_rpcs_;
  m_stabilize_rounds_->inc();
  rpc_->call(
      succ.endpoint, kGetNeighbors, net::Writer{},
      [this, succ](net::RpcStatus status, net::Reader& r) {
        if (!alive_) return;
        if (status != net::RpcStatus::kOk) {
          promote_next_successor();
          return;
        }
        const bool has_pred = r.boolean();
        const NodeRef pred = read_node_ref(r);
        const auto count = r.u32();
        std::vector<NodeRef> their_list;
        // count is wire-controlled: cap the reservation by what the buffer
        // can actually hold (16 bytes per NodeRef) so a forged count cannot
        // demand a huge allocation; the read loop below throws on truncation.
        their_list.reserve(std::min<std::size_t>(count, r.remaining() / 16));
        for (std::uint32_t i = 0; i < count; ++i) {
          their_list.push_back(read_node_ref(r));
        }

        NodeRef new_succ = succ;
        if (has_pred && pred.valid() &&
            space_.in_open_open(self_.id, pred.id, succ.id)) {
          new_succ = pred;
        }
        // Rebuild the successor list: [new_succ] + its list, minus self,
        // truncated.
        std::vector<NodeRef> list{new_succ};
        if (new_succ.id == succ.id) {
          for (const NodeRef& s : their_list) {
            if (s.endpoint == self_.endpoint) continue;
            if (std::any_of(list.begin(), list.end(), [&](const NodeRef& x) {
                  return x.endpoint == s.endpoint;
                })) {
              continue;
            }
            list.push_back(s);
            if (list.size() >= options_.successor_list_size) break;
          }
        }
        successor_list_ = std::move(list);

        net::Writer w;
        write_node_ref(w, self_);
        ++maintenance_rpcs_;
        // Notify is advisory (the next stabilize repeats it): two fixed
        // attempts, no backoff.
        rpc_->call(successor().endpoint, kNotify, w,
                   [](net::RpcStatus, net::Reader&) {},
                   options_.rpc.fixed(2));
      },
      // Explicit maintenance budget: fixed timeout, full attempts. Backing
      // off here would only postpone promote_next_successor past the next
      // stabilize tick.
      options_.rpc.fixed(options_.rpc.attempts));
}

void Node::promote_next_successor() {
  if (successor_list_.size() > 1) {
    successor_list_.erase(successor_list_.begin());
    return;
  }
  // Last resort: fall back to the best finger, else become a singleton.
  for (unsigned j = 0; j < space_.bits(); ++j) {
    if (fingers_[j].valid() && fingers_[j].endpoint != self_.endpoint &&
        fingers_[j].endpoint != successor().endpoint) {
      successor_list_.assign(1, fingers_[j]);
      return;
    }
  }
  successor_list_.assign(1, self_);
}

void Node::do_fix_fingers() {
  m_finger_fixes_->inc();
  const unsigned j = next_finger_to_fix_;
  next_finger_to_fix_ = (next_finger_to_fix_ + 1) % space_.bits();
  const Id target = space_.finger_target(self_.id, j);
  ++maintenance_rpcs_;
  find_successor(target, [this, j](net::RpcStatus status, NodeRef node) {
    if (!alive_ || status != net::RpcStatus::kOk || !node.valid()) return;
    fingers_[j] = node;
    if (j == 0 && !successor_list_.empty() &&
        node.endpoint != successor_list_.front().endpoint &&
        space_.in_open_open(self_.id, node.id, successor_list_.front().id)) {
      successor_list_.insert(successor_list_.begin(), node);
      if (successor_list_.size() > options_.successor_list_size) {
        successor_list_.pop_back();
      }
    }
    if (node.endpoint != self_.endpoint) {
      // Refresh the finger's predecessor gap (FOF metadata, paper Sec. 4)
      // on every fix so split_interval answers for probing joins reflect
      // intervals that recent joiners have already subdivided.
      ++maintenance_rpcs_;
      // Metadata-only refresh, repeated every fix_fingers cycle: a tight
      // two-attempt fixed budget instead of the data-plane default.
      rpc_->call(node.endpoint, kGetNeighbors, net::Writer{},
                 [this, j, node](net::RpcStatus st, net::Reader& r) {
                   if (!alive_ || st != net::RpcStatus::kOk) return;
                   const bool has_pred = r.boolean();
                   const NodeRef pred = read_node_ref(r);
                   if (fingers_[j] == node && has_pred) {
                     finger_pred_[j] = pred.id;
                   }
                 },
                 options_.rpc.fixed(2));
    } else {
      finger_pred_[j] = std::nullopt;
    }
  });
}

void Node::do_check_predecessor() {
  if (!predecessor_ || predecessor_->endpoint == self_.endpoint) return;
  const NodeRef pred = *predecessor_;
  ++maintenance_rpcs_;
  // Failure-detector ping: fixed budget with full attempts — a false
  // positive drops the predecessor (flapping tree roots), so keep the
  // redundancy but never the backoff, which would blur the detection window.
  rpc_->call(pred.endpoint, kPing, net::Writer{},
             [this, pred](net::RpcStatus status, net::Reader&) {
               if (!alive_) return;
               if (status != net::RpcStatus::kOk && predecessor_ &&
                   predecessor_->endpoint == pred.endpoint) {
                 predecessor_ = std::nullopt;
               }
             },
             options_.rpc.fixed(options_.rpc.attempts));
}

// -- lookup ---------------------------------------------------------------

NodeRef Node::closest_preceding(Id key) const {
  // Largest finger (or successor-list entry) strictly inside (self, key).
  NodeRef best = self_;
  Id best_progress = 0;
  auto consider = [&](const NodeRef& cand) {
    if (!cand.valid() || cand.endpoint == self_.endpoint) return;
    const Id progress = space_.clockwise(self_.id, cand.id);
    if (progress == 0) return;
    if (progress < space_.clockwise(self_.id, key) && progress > best_progress) {
      best_progress = progress;
      best = cand;
    }
  };
  for (unsigned j = 0; j < space_.bits(); ++j) consider(fingers_[j]);
  for (const NodeRef& s : successor_list_) consider(s);
  return best;
}

void Node::find_successor(Id key, LookupHandler handler) {
  find_successor_traced(
      key, [handler = std::move(handler)](net::RpcStatus st, NodeRef node,
                                          unsigned /*hops*/) {
        handler(st, node);
      });
}

void Node::find_successor_traced(
    Id key, std::function<void(net::RpcStatus, NodeRef, unsigned)> h) {
  m_lookups_->inc();
  auto state = std::make_shared<LookupState>();
  state->key = key & space_.mask();
  state->current = self_;
  state->max_hops = 2 * space_.bits() + 8;
  state->handler = [this, h = std::move(h)](net::RpcStatus st, NodeRef node,
                                            unsigned hops) {
    m_lookup_hops_->observe(hops);
    if (st != net::RpcStatus::kOk) m_lookup_failures_->inc();
    h(st, node, hops);
  };
  lookup_step(std::move(state));
}

void Node::lookup_step(std::shared_ptr<LookupState> state) {
  if (!alive_) return;
  if (state->hops > state->max_hops) {
    state->handler(net::RpcStatus::kTimeout, NodeRef{}, state->hops);
    return;
  }

  if (state->current.endpoint == self_.endpoint) {
    // Local step: no RPC needed.
    const Hop hop = next_hop(state->key);
    if (hop.resolved) {
      state->handler(net::RpcStatus::kOk, hop.node, state->hops);
      return;
    }
    state->current = hop.node;
    // fall through to the remote step below
  }

  net::Writer w;
  w.u64(state->key);
  ++state->hops;
  rpc_->call(state->current.endpoint, kLookupStep, w,
             [this, state](net::RpcStatus status, net::Reader& r) {
               if (!alive_) return;
               if (status == net::RpcStatus::kTimeout) {
                 // The hop is unresponsive — most likely crashed. Evict it
                 // from our own tables (otherwise a stale finger could keep
                 // winning closest_preceding and wedge every future lookup
                 // through the same dead node) and reroute from scratch.
                 purge_endpoint(state->current.endpoint);
                 if (state->restarts_left > 0) {
                   --state->restarts_left;
                   state->current = self_;
                   lookup_step(state);
                   return;
                 }
               }
               if (status != net::RpcStatus::kOk) {
                 state->handler(status, NodeRef{}, state->hops);
                 return;
               }
               const bool done = r.boolean();
               const NodeRef node = read_node_ref(r);
               if (done) {
                 state->handler(net::RpcStatus::kOk, node, state->hops);
                 return;
               }
               if (node.endpoint == state->current.endpoint ||
                   !node.valid()) {
                 // No progress: treat the reporting node's successor info as
                 // final to avoid a livelock during convergence.
                 state->handler(net::RpcStatus::kOk, node.valid() ? node
                                                                  : state->current,
                                state->hops);
                 return;
               }
               state->current = node;
               lookup_step(state);
             },
             options_.rpc);
}

// -- RPC server handlers ----------------------------------------------------

void Node::handle_lookup_step(net::Endpoint /*from*/, net::Reader& req,
                              net::Writer& reply) {
  const Id key = req.u64() & space_.mask();
  const Hop hop = joined_ ? next_hop(key) : Hop{self_, true};
  reply.boolean(hop.resolved);
  write_node_ref(reply, hop.node);
}

void Node::handle_get_neighbors(net::Endpoint /*from*/, net::Reader& /*req*/,
                                net::Writer& reply) {
  reply.boolean(predecessor_.has_value());
  write_node_ref(reply, predecessor_.value_or(NodeRef{}));
  reply.u32(static_cast<std::uint32_t>(successor_list_.size()));
  for (const NodeRef& s : successor_list_) write_node_ref(reply, s);
}

void Node::handle_notify(net::Endpoint /*from*/, net::Reader& req,
                         net::Writer& /*reply*/) {
  const NodeRef candidate = read_node_ref(req);
  if (!candidate.valid()) return;
  if (!predecessor_ ||
      space_.in_open_open(predecessor_->id, candidate.id, self_.id) ||
      predecessor_->endpoint == self_.endpoint) {
    predecessor_ = candidate;
    // Designations at or behind the new predecessor are now real members
    // (or moot); stop treating them as split boundaries.
    std::erase_if(pending_splits_, [this](Id d) {
      return !space_.in_open_open(predecessor_->id, d, self_.id);
    });
  }
  // A notify also doubles as a hint for a lone node to close the ring.
  if (successor().endpoint == self_.endpoint &&
      candidate.endpoint != self_.endpoint) {
    successor_list_.assign(1, candidate);
  }
}

void Node::handle_ping(net::Endpoint /*from*/, net::Reader& /*req*/,
                       net::Writer& reply) {
  reply.u64(self_.id);
}

void Node::handle_split_interval(net::Endpoint /*from*/, net::Reader& req,
                                 net::Writer& reply) {
  // Two-step designation protocol. A plain request surveys the largest
  // interval we know about — our own predecessor interval plus every
  // finger's predecessor interval (the FOF metadata refreshed during
  // fix_fingers). If the largest interval belongs to a finger we DELEGATE:
  // the reply names that finger and the joiner asks it directly with
  // own_only set. Only the interval's owner designates identifiers inside
  // it, which serializes concurrent splits and prevents two designators
  // with equally stale metadata from issuing the same midpoint (duplicate
  // node identifiers).
  const bool own_only = req.remaining() > 0 && req.boolean();

  // Survey candidate intervals: (gap, owner-finger-index or -1 for self).
  std::vector<std::pair<Id, int>> candidates;
  Id best_gap = 0;
  const Id own_pred = predecessor_ ? predecessor_->id : self_.id;
  if (own_pred != self_.id) {
    best_gap = space_.clockwise(own_pred, self_.id);
    candidates.emplace_back(best_gap, -1);
  }
  if (!own_only) {
    std::vector<net::Endpoint> seen;
    for (unsigned j = 0; j < space_.bits(); ++j) {
      if (!fingers_[j].valid() || !finger_pred_[j]) continue;
      if (fingers_[j].endpoint == self_.endpoint) continue;
      if (std::find(seen.begin(), seen.end(), fingers_[j].endpoint) !=
          seen.end()) {
        continue;
      }
      seen.push_back(fingers_[j].endpoint);
      const Id gap = space_.clockwise(*finger_pred_[j], fingers_[j].id);
      candidates.emplace_back(gap, static_cast<int>(j));
      best_gap = std::max(best_gap, gap);
    }
  }
  // Pick uniformly among near-maximal intervals (within 2x of the largest):
  // the survey data is stale by up to a fix_fingers cycle, so insisting on
  // the strict maximum would funnel a burst of joiners into one interval
  // and geometrically cluster their identifiers.
  int chosen_finger = -1;
  if (!candidates.empty() && best_gap > 0) {
    std::vector<int> near_max;
    for (const auto& [gap, j] : candidates) {
      if (gap >= best_gap / 2 && gap >= 2) near_max.push_back(j);
    }
    if (!near_max.empty()) {
      chosen_finger = near_max[rng_.next_below(near_max.size())];
    }
  }
  if (chosen_finger >= 0) {
    // Delegate to the interval's owner.
    reply.boolean(false);
    reply.u64(fingers_[static_cast<unsigned>(chosen_finger)].endpoint);
    return;
  }
  // From here on we designate from our own interval (own_pred, self]. When
  // we have not even learned a predecessor yet (a freshly bootstrapped node
  // hit by back-to-back joiners), fall back to the span toward our
  // successor, or the full circle for a singleton.
  Id interval_start = own_pred;
  Id interval_end = self_.id;
  if (own_pred == self_.id) {
    interval_start = self_.id;
    interval_end = successor().endpoint != self_.endpoint ? successor().id
                                                          : self_.id;
  }
  const bool full_circle = interval_start == interval_end;

  // Boundary points: interval start, every pending (not-yet-materialized)
  // designation inside it, and the interval end. Designate the midpoint of
  // the largest sub-interval, so a burst of joiners lands evenly spread
  // instead of geometrically clustered.
  std::erase_if(pending_splits_, [&](Id d) {
    if (full_circle) return d == interval_start;
    return !space_.in_open_open(interval_start, d, interval_end);
  });
  std::vector<Id> boundaries{interval_start};
  boundaries.insert(boundaries.end(), pending_splits_.begin(),
                    pending_splits_.end());
  boundaries.push_back(interval_end);
  std::sort(boundaries.begin() + 1, boundaries.end() - 1,
            [&](Id a, Id b) {
              return space_.clockwise(interval_start, a) <
                     space_.clockwise(interval_start, b);
            });

  Id widest_lo = interval_start;
  Id widest_gap = full_circle && boundaries.size() == 2 ? space_.mask() : 0;
  for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
    Id gap;
    if (boundaries[i] == boundaries[i + 1]) {
      // Only possible in the full-circle case where start == end: the arc
      // between the last pending split and the start wraps the whole way.
      gap = i == 0 ? space_.mask() : space_.clockwise(boundaries[i],
                                                      boundaries[i + 1]);
    } else {
      gap = space_.clockwise(boundaries[i], boundaries[i + 1]);
    }
    if (gap > widest_gap) {
      widest_gap = gap;
      widest_lo = boundaries[i];
    }
  }
  const Id designated = space_.add(widest_lo, std::max<Id>(widest_gap / 2, 1));
  if (designated != self_.id) {
    pending_splits_.push_back(designated);
    if (pending_splits_.size() > 64) {
      pending_splits_.erase(pending_splits_.begin());
    }
  }
  reply.boolean(true);
  reply.u64(designated);
}

void Node::purge_endpoint(net::Endpoint ep) {
  if (ep == net::kNullEndpoint || ep == self_.endpoint) return;
  m_purges_->inc();
  for (unsigned j = 0; j < space_.bits(); ++j) {
    if (fingers_[j].endpoint == ep) {
      fingers_[j] = NodeRef{};
      finger_pred_[j] = std::nullopt;
    }
  }
  const bool had_successors = !successor_list_.empty();
  std::erase_if(successor_list_,
                [ep](const NodeRef& s) { return s.endpoint == ep; });
  // Only a list this purge actually emptied warrants promotion. A node that
  // is still joining has no successors yet; fabricating a self-successor
  // here would turn its in-flight join lookup into a singleton ring.
  if (had_successors && successor_list_.empty()) {
    promote_next_successor();  // falls back to a live finger or singleton
  }
  if (predecessor_ && predecessor_->endpoint == ep) {
    predecessor_ = std::nullopt;
  }
}

void Node::handle_leaving(net::Endpoint /*from*/, net::Reader& msg) {
  const std::uint8_t kind = msg.u8();
  if (kind == 0) {
    // Our predecessor is leaving; adopt its predecessor.
    const bool has_pred = msg.boolean();
    const NodeRef pred = read_node_ref(msg);
    predecessor_ = has_pred && pred.valid() ? std::optional<NodeRef>(pred)
                                            : std::nullopt;
  } else {
    // Our successor is leaving; adopt its successor list.
    const auto count = msg.u32();
    std::vector<NodeRef> list;
    // Wire-controlled count: bound the reservation by the bytes present.
    list.reserve(std::min<std::size_t>(count, msg.remaining() / 16));
    for (std::uint32_t i = 0; i < count; ++i) {
      const NodeRef s = read_node_ref(msg);
      if (s.valid() && s.endpoint != self_.endpoint) list.push_back(s);
    }
    if (!list.empty()) {
      successor_list_ = std::move(list);
    } else {
      successor_list_.assign(1, self_);
    }
  }
}

}  // namespace dat::chord
