#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "chord/node.hpp"
#include "maan/attribute.hpp"

namespace dat::maan {

struct MaanOptions {
  /// Budget of query RPCs (point lookups): adaptive backoff under loss.
  /// Stores derive a tight fixed budget from it — registrations are soft
  /// state that producers refresh periodically, so the refresh is the retry.
  net::RpcManager::Options rpc = net::RpcOptions::adaptive();
  /// Registrations are soft state: entries older than this are dropped
  /// unless re-registered (producers refresh periodically). 0 disables
  /// expiry.
  std::uint64_t registration_ttl_us = 0;
};

/// Result of a resolved query, with the hop accounting the paper analyzes:
/// `routing_hops` to reach successor(H(l)) (O(log n)) plus `sweep_hops`
/// along the successor chain (k).
struct QueryResult {
  std::vector<Resource> resources;
  unsigned routing_hops = 0;
  unsigned sweep_hops = 0;
  bool complete = false;  ///< false if the sweep timed out midway
};

/// The MAAN indexing layer of one node (paper Sec. 2.2): resources are
/// stored on successor(H_a(v)) for every attribute value, numeric values
/// use a locality-preserving hash, and range queries sweep the successor
/// chain between successor(H(l)) and successor(H(u)). Multi-attribute
/// queries are resolved with the single-attribute-dominated approach: only
/// the sub-query with minimal selectivity is iterated, every other
/// predicate is filtered locally against the stored full descriptors.
class MaanNode {
 public:
  MaanNode(chord::Node& chord, const Schema& schema, MaanOptions options);
  ~MaanNode();

  MaanNode(const MaanNode&) = delete;
  MaanNode& operator=(const MaanNode&) = delete;

  /// Registers (or refreshes) `resource` under every attribute it carries.
  /// `done(ok, total_routing_hops)` fires after all per-attribute stores
  /// complete; hops is the sum over attributes (the paper's O(m log n)).
  void register_resource(const Resource& resource,
                         std::function<void(bool, unsigned)> done);

  /// Removes a resource previously registered by id.
  void unregister_resource(const std::string& resource_id,
                           std::function<void(bool)> done);

  /// Single-attribute numeric range query: attr in [lo, hi].
  using QueryHandler = std::function<void(QueryResult)>;
  void range_query(const std::string& attr, double lo, double hi,
                   QueryHandler handler);

  /// Multi-attribute range query (all predicates must hold). Numeric
  /// predicates must reference schema attributes; the minimum-selectivity
  /// numeric predicate is chosen as the dominated iteration axis.
  void multi_query(const std::vector<RangePredicate>& predicates,
                   QueryHandler handler);

  /// String equality query: attr == value (single successor lookup).
  void exact_query(const std::string& attr, const std::string& value,
                   QueryHandler handler);

  /// Local store introspection (tests / diagnostics). Counts live
  /// (non-expired) entries only.
  [[nodiscard]] std::size_t local_entries() const;

  /// Drops every expired local registration now (expiry is otherwise lazy,
  /// applied when an entry is touched by a query).
  std::size_t prune_expired();

  [[nodiscard]] chord::Node& chord() noexcept { return chord_; }
  [[nodiscard]] const Schema& schema() const noexcept { return schema_; }

 private:
  struct PendingQuery {
    QueryHandler handler;
    unsigned routing_hops = 0;
    net::TimerId timer = 0;
  };

  void register_handlers();
  void handle_store(net::Endpoint from, net::Reader& req, net::Writer& reply);
  void handle_remove(net::Endpoint from, net::Reader& req, net::Writer& reply);
  void handle_sweep(net::Endpoint from, net::Reader& msg);
  void handle_sweep_result(net::Endpoint from, net::Reader& msg);

  /// Collects local matches for the dominated predicate + filters, then
  /// forwards the sweep or replies to the originator. `start_key` is the
  /// hashed lower bound, `start_ep` the first node of the sweep (null on
  /// the first hop) — together they make the degenerate full-circle sweep
  /// terminate exactly once around.
  void process_sweep(const std::string& attr, Id start_key, Id end_key,
                     const std::vector<RangePredicate>& predicates,
                     std::uint64_t qid, net::Endpoint origin,
                     net::Endpoint start_ep, std::vector<Resource> acc,
                     std::uint32_t hops);

  void start_sweep(const std::string& attr, double lo, double hi,
                   std::vector<RangePredicate> predicates,
                   QueryHandler handler);

  chord::Node& chord_;
  const Schema& schema_;
  MaanOptions options_;

  struct StoredResource {
    Resource resource;
    std::uint64_t registered_at_us = 0;
  };
  [[nodiscard]] bool expired(const StoredResource& entry) const;

  /// Local index: attribute -> (value-id on the circle -> resources).
  /// Ordered by hashed value so the locality-preserving layout is explicit.
  std::map<std::string, std::multimap<Id, StoredResource>> store_;

  std::unordered_map<std::uint64_t, PendingQuery> pending_;
  std::uint64_t next_qid_ = 1;
  bool alive_ = true;
};

}  // namespace dat::maan
