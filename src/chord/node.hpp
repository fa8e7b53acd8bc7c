#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "chord/ring_view.hpp"
#include "chord/routing.hpp"
#include "chord/types.hpp"
#include "common/id_space.hpp"
#include "common/rng.hpp"
#include "net/rpc.hpp"
#include "obs/trace.hpp"

namespace dat::chord {

/// Tunables of the live protocol. Defaults target the simulator's LAN
/// latency model; the UDP examples use the same values.
struct NodeOptions {
  std::size_t successor_list_size = 4;
  std::uint64_t stabilize_interval_us = 200'000;
  std::uint64_t fix_fingers_interval_us = 50'000;  ///< one finger per tick
  std::uint64_t check_predecessor_interval_us = 400'000;
  /// Base budget of data-plane RPCs (lookups, join probing): adaptive —
  /// exponential per-attempt timeouts with decorrelated-jitter backoff, so
  /// retry volume stays bounded under loss. Maintenance RPCs (stabilize,
  /// notify, ping, finger-metadata refresh) derive explicit fixed budgets
  /// from this instead of inheriting it: their periodic timers are the
  /// retry mechanism, so backing off inside one tick only delays failure
  /// detection.
  net::RpcManager::Options rpc = net::RpcOptions::adaptive();
  bool probing_join = true;         ///< identifier probing (Sec. 3.5 / 4)
  std::uint64_t start_jitter_us = 50'000;  ///< staggers periodic timers
};

/// Result of an asynchronous lookup.
using LookupHandler = std::function<void(net::RpcStatus, NodeRef)>;

/// A live Chord node (paper Sec. 3.1/4): ring membership, finger table,
/// periodic stabilization, iterative key lookup, and the identifier-probing
/// join extension. Runs unmodified over the simulator or UDP transports.
///
/// Lifecycle: construct, then either create() (first node of a ring) or
/// join() (any later node). leave() departs gracefully; destruction without
/// leave() models a crash. All callbacks fire on the transport's event
/// loop; the class is not thread-safe (single-threaded event model).
class Node {
 public:
  Node(const IdSpace& space, net::Transport& transport, NodeOptions options,
       std::uint64_t seed);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Bootstraps a one-node ring with the given identifier (or a hash of the
  /// endpoint when omitted). Starts the periodic protocols.
  void create(std::optional<Id> id = std::nullopt);

  /// Joins the ring via any existing member. With probing_join the node
  /// first routes to the successor of a random point and asks it to
  /// designate an identifier splitting its largest known interval; without
  /// it the identifier is the endpoint hash (plain Chord). `done` fires
  /// once the node has a live successor (stabilization still continues to
  /// refine fingers afterwards).
  void join(net::Endpoint bootstrap, std::function<void(bool ok)> done,
            std::optional<Id> forced_id = std::nullopt);

  /// Graceful departure: hands predecessor/successor to the neighbors and
  /// stops all timers. The node can not rejoin.
  void leave();

  /// Crash: stop processing without telling anyone (failure injection).
  void fail();

  [[nodiscard]] bool alive() const noexcept { return alive_; }
  [[nodiscard]] bool joined() const noexcept { return joined_; }

  /// Iterative find_successor(key) (paper Sec. 3.1's finger routing,
  /// executed as a sequence of lookup_step RPCs). Counts one "routing hop"
  /// per remote step; the hop count is delivered via hops() of the last
  /// lookup or the instrumented variant below.
  void find_successor(Id key, LookupHandler handler);

  /// As find_successor but also reports the number of remote hops taken.
  void find_successor_traced(
      Id key, std::function<void(net::RpcStatus, NodeRef, unsigned hops)> h);

  /// Recursive lookup: the query is forwarded hop-by-hop through the
  /// overlay (one one-way message per hop) and the key's owner answers the
  /// origin directly — half the messages of the iterative mode, at the cost
  /// of in-network state-lessness (a lost hop can only be detected by the
  /// origin's timeout; one full retry is attempted). The iterative mode
  /// remains the default because its failure handling (purge + reroute) is
  /// strictly stronger.
  void find_successor_recursive(
      Id key, std::function<void(net::RpcStatus, NodeRef, unsigned hops)> h);

  // -- local state accessors ------------------------------------------------
  [[nodiscard]] NodeRef self() const noexcept { return self_; }
  [[nodiscard]] Id id() const noexcept { return self_.id; }
  [[nodiscard]] NodeRef successor() const;
  [[nodiscard]] std::optional<NodeRef> predecessor() const noexcept {
    return predecessor_;
  }
  [[nodiscard]] const std::vector<NodeRef>& successor_list() const noexcept {
    return successor_list_;
  }
  /// Finger table entry j (successor(self + 2^j)), invalid if not yet fixed.
  [[nodiscard]] const NodeRef& finger(unsigned j) const {
    return fingers_.at(j);
  }
  /// Identifiers of all fingers (invalid entries collapse to self's id so
  /// that routing skips them). Index j -> FINGER(self, j).
  [[nodiscard]] std::vector<Id> finger_ids() const;
  /// The same, written into `buf` without allocating (the per-push form
  /// dat_parent uses); identifier spaces have at most 64 bits.
  [[nodiscard]] std::span<const Id> finger_ids(std::array<Id, 64>& buf) const;

  /// True iff `key` is owned by this node: key in (predecessor, self].
  /// Unknowable (false) until a predecessor is learned.
  [[nodiscard]] bool owns(Id key) const;

  /// Parent selection for DAT (Algorithm 1, executed locally from the live
  /// finger table): next hop toward `key` under `scheme`. Returns nullopt
  /// when this node owns the key (it is the root). d0 is estimated from the
  /// successor-list spacing unless an exact value was injected via
  /// set_d0_hint.
  [[nodiscard]] std::optional<NodeRef> dat_parent(Id key,
                                                  RoutingScheme scheme) const;

  /// Injects the exact average gap (2^b, n) when the deployment knows n.
  void set_d0_hint(std::uint64_t num, std::uint64_t den) {
    d0_hint_ = {num, den};
  }

  /// Estimated average inter-node gap as a rational (num/den), from the
  /// hint or from successor-list spacing.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> estimate_d0() const;

  // -- application upcalls (the paper Fig. 6's route/broadcast/upcall) ------

  /// Payload delivery callback. `key` is the routed key (or the broadcast
  /// topic hash for broadcasts); `payload` is the sender's bytes.
  using UpcallHandler = std::function<void(Id key, net::Reader& payload)>;

  /// Registers the upcall for a topic. Replaces any previous handler.
  void set_upcall(std::string topic, UpcallHandler handler);

  /// Routes `payload` toward successor(key) along greedy finger routing and
  /// delivers the topic's upcall there. Fire-and-forget, O(log n) hops.
  void route(Id key, const std::string& topic, const net::Writer& payload);

  /// Delivers the topic's upcall on every node of the ring exactly once
  /// (assuming converged fingers): segmented DHT broadcast, n-1 messages,
  /// O(log n) depth. Also delivers locally, synchronously.
  void broadcast(const std::string& topic, const net::Writer& payload);

  /// One level of the segmented DHT broadcast (paper Fig. 6): the distinct
  /// fingers in (self, limit), highest first, each with the boundary of its
  /// sub-segment (the next higher finger, or `limit`; limit == id() is the
  /// whole circle). broadcast() and DAT snapshots both fan out along it.
  struct Delegation {
    NodeRef finger;
    Id boundary = 0;
  };
  [[nodiscard]] std::vector<Delegation> segment_delegations(Id limit) const;

  /// Compares local tables against converged ground truth (tests).
  [[nodiscard]] bool converged_against(const RingView& ring) const;

  /// Multi-line human-readable dump of this node's protocol state
  /// (identifier, predecessor, successor list, distinct fingers) for
  /// operator tooling and debugging.
  [[nodiscard]] std::string describe() const;

  [[nodiscard]] const IdSpace& space() const noexcept { return space_; }
  [[nodiscard]] net::RpcManager& rpc() noexcept { return *rpc_; }
  [[nodiscard]] const NodeOptions& options() const noexcept { return options_; }

  /// This node's telemetry bundle: metrics registry (chord, rpc and
  /// transport series), flight-recorder span ring and ambient trace
  /// context. Lives as long as the node.
  [[nodiscard]] obs::NodeTelemetry& telemetry() noexcept { return *telemetry_; }
  [[nodiscard]] const obs::NodeTelemetry& telemetry() const noexcept {
    return *telemetry_;
  }

  /// Messages of Chord maintenance traffic sent since the counter reset —
  /// used by the churn-overhead experiment.
  [[nodiscard]] std::uint64_t maintenance_rpcs() const noexcept {
    return maintenance_rpcs_;
  }

 private:
  struct LookupState {
    Id key = 0;
    NodeRef current;
    unsigned hops = 0;
    unsigned max_hops = 0;
    unsigned restarts_left = 3;  ///< retries after purging a dead hop
    std::function<void(net::RpcStatus, NodeRef, unsigned)> handler;
  };

  void register_handlers();
  void complete_join(Id chosen_id, NodeRef start, unsigned attempts_left,
                     std::function<void(bool)> done);
  void start_timers();
  void stop_timers();
  void arm_stabilize();
  void arm_fix_fingers();
  void arm_check_predecessor();

  void do_stabilize();
  void do_fix_fingers();
  void do_check_predecessor();

  void lookup_step(std::shared_ptr<LookupState> state);
  [[nodiscard]] NodeRef closest_preceding(Id key) const;
  /// One lookup step from this node, shared by the iterative and recursive
  /// modes: the key's owner when it resolves here, else the next hop.
  struct Hop {
    NodeRef node;
    bool resolved = false;
  };
  [[nodiscard]] Hop next_hop(Id key) const;
  /// Drops a failed endpoint from the finger table, successor list and
  /// predecessor so routing immediately stops selecting it (it may be
  /// re-learned if it was merely slow).
  void purge_endpoint(net::Endpoint ep);
  void promote_next_successor();

  // RPC server handlers
  void handle_lookup_step(net::Endpoint from, net::Reader& req,
                          net::Writer& reply);
  void handle_get_neighbors(net::Endpoint from, net::Reader& req,
                            net::Writer& reply);
  void handle_notify(net::Endpoint from, net::Reader& req, net::Writer& reply);
  void handle_ping(net::Endpoint from, net::Reader& req, net::Writer& reply);
  void handle_split_interval(net::Endpoint from, net::Reader& req,
                             net::Writer& reply);
  void handle_leaving(net::Endpoint from, net::Reader& msg);
  void handle_route(net::Endpoint from, net::Reader& msg);
  /// One greedy routing step of route(): deliver here or forward with
  /// `ttl` - 1.
  void route_step(const std::string& topic, Id key, std::uint8_t ttl,
                  std::span<const std::uint8_t> payload);
  void handle_broadcast(net::Endpoint from, net::Reader& msg);
  void handle_rfind(net::Endpoint from, net::Reader& msg);
  void handle_rfind_done(net::Endpoint from, net::Reader& msg);
  void deliver_upcall(const std::string& topic, Id key,
                      std::span<const std::uint8_t> payload);
  /// Delivers the topic's upcall here, then delegates (self, limit).
  void broadcast_segment(const std::string& topic, Id limit,
                         std::span<const std::uint8_t> payload);

  IdSpace space_;
  net::Transport& transport_;
  NodeOptions options_;
  Rng rng_;
  /// Declared before rpc_: the RPC manager unregisters its metrics
  /// collector on destruction, so the registry must still be alive then.
  std::unique_ptr<obs::NodeTelemetry> telemetry_;
  std::unique_ptr<net::RpcManager> rpc_;

  NodeRef self_;
  std::optional<NodeRef> predecessor_;
  std::vector<NodeRef> successor_list_;  // [0] is the immediate successor
  std::vector<NodeRef> fingers_;         // index j; invalid until fixed
  // Predecessor-gap metadata per finger, learned during fix_fingers; powers
  // the split_interval answer for probing joins (the paper's FOF extension).
  std::vector<std::optional<Id>> finger_pred_;

  bool alive_ = false;
  bool joined_ = false;
  unsigned next_finger_to_fix_ = 0;
  net::TimerId stabilize_timer_ = 0;
  net::TimerId fix_fingers_timer_ = 0;
  net::TimerId check_pred_timer_ = 0;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> d0_hint_;
  std::uint64_t maintenance_rpcs_ = 0;

  // Borrowed instrument pointers into telemetry_->registry; the deque-backed
  // registry guarantees they stay valid for the node's lifetime.
  obs::Counter* m_lookups_ = nullptr;
  obs::Counter* m_lookup_failures_ = nullptr;
  obs::Histogram* m_lookup_hops_ = nullptr;
  obs::Counter* m_stabilize_rounds_ = nullptr;
  obs::Counter* m_finger_fixes_ = nullptr;
  obs::Counter* m_join_probes_ = nullptr;
  obs::Counter* m_purges_ = nullptr;
  std::unordered_map<std::string, UpcallHandler> upcalls_;

  struct PendingRecursiveLookup {
    Id key = 0;
    unsigned attempts_left = 1;
    net::TimerId timer = 0;
    std::function<void(net::RpcStatus, NodeRef, unsigned)> handler;
  };
  std::unordered_map<std::uint64_t, PendingRecursiveLookup> rlookups_;
  std::uint64_t next_rlookup_id_ = 1;
  void send_rfind(std::uint64_t qid, Id key);
  void fail_or_retry_rfind(std::uint64_t qid);

  /// Identifiers designated from our own predecessor interval whose owners
  /// have not yet shown up as our predecessor. They partition the interval
  /// we offer to back-to-back joiners: each new designation bisects the
  /// largest remaining sub-interval, keeping a join burst evenly spread.
  /// Pruned whenever the real predecessor advances past them.
  std::vector<Id> pending_splits_;
};

}  // namespace dat::chord
