#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "chord/node.hpp"
#include "dat/aggregate.hpp"
#include "obs/trace.hpp"

namespace dat::core {

/// Derives the rendezvous key of a named aggregate: the SHA-1 hash of the
/// attribute name on the identifier circle (paper Sec. 2.3 — "the
/// rendezvous key is the SHA1 hash value of the attribute name").
[[nodiscard]] Id rendezvous_key(std::string_view aggregate_name,
                                const IdSpace& space);

struct DatOptions {
  /// Continuous-mode push period (the paper's "time slot").
  std::uint64_t epoch_us = 500'000;
  /// Number of recent global values the root retains per aggregate — the
  /// time series consumers chart (Fig. 9(a)-style monitoring).
  std::size_t history_size = 256;
  /// A child whose last update is older than this many epochs is presumed
  /// departed and dropped from the aggregation (soft-state membership).
  unsigned child_ttl_epochs = 3;
  /// Timeout for collecting one level of snapshot (on-demand) responses.
  std::uint64_t snapshot_timeout_us = 2'000'000;
  /// Budget of root-query RPCs (get_global / get_history): adaptive so
  /// retries back off under loss. Snapshot/collect fan-out uses one-way
  /// messages bounded by snapshot_timeout_us instead of this budget.
  net::RpcManager::Options rpc = net::RpcOptions::adaptive();
};

/// The DAT layer of one node (paper Sec. 4, Fig. 6): an aggregation table
/// of active trees, the continuous bottom-up push protocol along
/// implicitly-constructed tree edges, an on-demand snapshot mode via
/// segmented broadcast with echo aggregation, and a routed query for the
/// root's latest global value.
///
/// Pushes travel in aligned waves (DESIGN.md §9). Every node derives the
/// same grid, the multiples of the period, from its clock; at each grid
/// point a node without children samples and pushes, and a node with
/// children pushes as soon as each of them has reported in the current
/// wave. A node whose child stayed silent for a whole wave pushes at the
/// next grid point instead (the deadline). One wave thus climbs the tree in
/// about one network delay per level, at one update per node, per tree, per
/// period.
///
/// Parent selection is purely local (chord::Node::dat_parent — Algorithm 1
/// evaluated against the live finger table), so the tree needs no
/// membership maintenance: churn is absorbed by Chord stabilization, and a
/// node's children are known only as soft state refreshed by their updates.
class DatNode {
 public:
  using LocalValueFn = std::function<double()>;
  /// Full partial-aggregate leaf contribution — the hook histogram trees
  /// use: the leaf supplies a pre-built AggState (bucket counts and all)
  /// instead of one scalar sample.
  using LocalStateFn = std::function<AggState()>;

  DatNode(chord::Node& chord, DatOptions options);
  ~DatNode();

  DatNode(const DatNode&) = delete;
  DatNode& operator=(const DatNode&) = delete;

  /// Registers an aggregate in the local aggregation table and starts the
  /// continuous push loop. `local` supplies this node's x_i(t) each epoch;
  /// pass nullptr for a node that only relays (contributes no value).
  /// `epoch_us` overrides DatOptions::epoch_us for this key alone (0 keeps
  /// the default) — hot aggregates can push faster than the base period,
  /// which is how skewed per-key workloads are produced. The soft-state
  /// child TTL scales with the per-key period.
  void start_aggregate(Id key, AggregateKind kind,
                       chord::RoutingScheme scheme, LocalValueFn local,
                       std::uint64_t epoch_us = 0);

  /// Convenience: aggregate named by attribute (e.g. "cpu-usage").
  Id start_aggregate(std::string_view name, AggregateKind kind,
                     chord::RoutingScheme scheme, LocalValueFn local,
                     std::uint64_t epoch_us = 0);

  /// Like start_aggregate, but the leaf contributes a full AggState each
  /// epoch (mergeable histogram payloads, pre-merged sub-aggregates)
  /// instead of a single scalar. Both replace the key's leaf hook; the
  /// scalar forms wrap their sample as AggState::of.
  void start_aggregate_state(Id key, AggregateKind kind,
                             chord::RoutingScheme scheme, LocalStateFn local,
                             std::uint64_t epoch_us = 0);
  Id start_aggregate_state(std::string_view name, AggregateKind kind,
                           chord::RoutingScheme scheme, LocalStateFn local,
                           std::uint64_t epoch_us = 0);

  void stop_aggregate(Id key);
  [[nodiscard]] bool has_aggregate(Id key) const {
    return table_.contains(key);
  }

  /// Root-side: the latest global value for `key`, if this node is the
  /// root and has completed at least one epoch.
  [[nodiscard]] std::optional<GlobalValue> latest(Id key) const;

  /// Root-side: recent global values, oldest first (bounded by
  /// DatOptions::history_size). Empty unless this node is the root.
  [[nodiscard]] std::vector<GlobalValue> history(Id key) const;

  /// Routes to the root and fetches up to `max_points` of its recent
  /// history, oldest first. Usable from any node.
  using HistoryHandler =
      std::function<void(net::RpcStatus, std::vector<GlobalValue>)>;
  void query_history(Id key, std::size_t max_points, HistoryHandler handler);

  /// Routes to the root of `key`'s tree and fetches its latest global
  /// value. Usable from any node.
  using QueryHandler =
      std::function<void(net::RpcStatus, std::optional<GlobalValue>)>;
  void query_global(Id key, QueryHandler handler);

  /// On-demand aggregation (paper Sec. 4's on-demand mode): a segmented
  /// broadcast over the ring with echo aggregation on the way back. Every
  /// live node's registered local value for `key` is merged exactly once.
  /// Completes after at most `snapshot_timeout_us` per level even if nodes
  /// fail mid-collection (partial state is then returned).
  using SnapshotHandler = std::function<void(const AggState&)>;
  void snapshot(Id key, SnapshotHandler handler);

  /// On-demand collection down the DAT tree itself: the request is routed
  /// to the root, which recursively pulls fresh values from its soft-state
  /// children (the nodes whose continuous updates it has seen) — the
  /// paper's "computes its child nodes based on the information in the
  /// [aggregation] table". Coverage equals the continuous tree's coverage;
  /// unlike snapshot() it touches only tree edges, not the whole ring.
  void collect_tree(Id key, SnapshotHandler handler);

  // -- load balancing --------------------------------------------------------
  /// Hands off excess children of `key` to one of them: prunes stale child
  /// records, keeps the first `keep` children (endpoint order, so the pick
  /// is deterministic), and redirects the rest to the kept child with the
  /// lowest endpoint (the relay) via one-way dat.handoff messages carrying
  /// a parent override valid for `ttl_us`. Moved records are dropped here
  /// immediately — the relay reports the subtree from its next push, so
  /// keeping them would double-count. Returns the number of children moved.
  std::size_t shed_children(Id key, std::size_t keep, std::uint64_t ttl_us);

  /// Redirects this node's continuous push for `key` to `relay` instead of
  /// the geometric dat_parent, for `ttl_us`. Ignored when the relay is this
  /// node itself; while this node is the root the override is dormant. An
  /// update arriving FROM the relay clears the override (cycle breaker: the
  /// relay considers us its parent, so following it would orphan the
  /// subtree). Handoffs are soft state like everything else in the tree —
  /// the rebalancer re-issues them each round to sustain a shape.
  void set_parent_override(Id key, chord::NodeRef relay, std::uint64_t ttl_us);

  /// True while an unexpired parent override is installed for `key`.
  [[nodiscard]] bool has_parent_override(Id key) const;

  // -- graceful drain --------------------------------------------------------
  /// Keys currently present in the aggregation table (active and relay
  /// entries alike), sorted ascending.
  [[nodiscard]] std::vector<Id> active_keys() const;

  /// Outcome of one DatNode::drain() call.
  struct DrainReport {
    std::size_t keys = 0;            ///< aggregation-table entries drained
    std::size_t children_moved = 0;  ///< handoffs issued across all keys
    std::size_t retracts_sent = 0;   ///< parent-side records retracted
  };

  /// Hands off EVERY fresh child of `key` to this node's own upstream (the
  /// fresh parent override, else the geometric dat_parent, else — when this
  /// node is the root — its successor, which inherits the key range on
  /// leave). The subtree then bypasses this node entirely: the first step of
  /// a graceful exit. Marks the entry as draining, so stragglers that still
  /// push here are re-issued the redirect instead of being re-adopted.
  /// Returns the number of children moved.
  std::size_t drain_children(Id key, std::uint64_t ttl_us);

  /// Graceful exit of the whole DAT layer, run before a clean Chord leave:
  /// for every key, drain_children() re-parents the subtree upstream, a
  /// one-way dat.retract erases this node's soft-state record at its parent
  /// (so the handed-off children are not double-counted against the stale
  /// record until TTL expiry), and the push timer stops. The node's own
  /// local value leaves the aggregate exactly once — conservation is what
  /// the process-chaos SLO asserts. Idempotent.
  DrainReport drain(std::uint64_t ttl_us);

  /// True once drain() has run.
  [[nodiscard]] bool draining() const noexcept { return draining_; }

  // -- instrumentation -------------------------------------------------------
  /// Continuous-mode child updates received per key (the per-node
  /// "aggregation messages" metric of Fig. 8).
  [[nodiscard]] std::uint64_t updates_received(Id key) const;
  [[nodiscard]] std::uint64_t updates_sent(Id key) const;
  /// Pushes (root emissions included) by the rule that triggered them:
  /// `early` once every child had reported (a childless node at its
  /// grid point), `deadline` at a grid point with a child still silent.
  struct PushCounts {
    std::uint64_t early = 0;
    std::uint64_t deadline = 0;
  };
  [[nodiscard]] PushCounts pushes(Id key) const;
  /// Number of distinct live children currently known for `key`.
  [[nodiscard]] std::size_t child_count(Id key) const;

  [[nodiscard]] chord::Node& chord() noexcept { return chord_; }
  [[nodiscard]] const DatOptions& options() const noexcept { return options_; }

 private:
  struct ChildRecord {
    chord::NodeRef ref;
    AggState state;
    std::uint64_t received_at_us = 0;
  };

  struct Entry {
    Id key = 0;
    AggregateKind kind = AggregateKind::kSum;
    chord::RoutingScheme scheme = chord::RoutingScheme::kBalanced;
    LocalStateFn local;  // leaf hook; null for a relay-only entry
    std::map<net::Endpoint, ChildRecord> children;
    std::uint64_t epoch = 0;
    // The fields a wave timer reads sit together: most firings at a node
    // with children find its push done and touch nothing else.
    net::TimerId timer = 0;
    /// Per-key push-period override; 0 means DatOptions::epoch_us.
    std::uint64_t epoch_us = 0;
    /// When this entry last pushed on completion (not at a deadline).
    std::uint64_t pushed_at_us = 0;
    /// Children that have reported in the wave opened at `counted_wave`.
    std::uint64_t counted_wave = 0;
    std::size_t reported = 0;
    PushCounts pushes;
    std::optional<GlobalValue> global;  // set while this node is the root
    std::deque<GlobalValue> history;    // root-side time series
    std::uint64_t updates_received = 0;
    std::uint64_t updates_sent = 0;
    /// Load-balancing parent override (dat.handoff): while set and fresh,
    /// run_epoch pushes here instead of to the geometric dat_parent.
    chord::NodeRef parent_override{};
    std::uint64_t override_until_us = 0;
    // Causal-wave trace state: set by handle_update when a traced child
    // update arrives (the child's send span becomes our parent span),
    // consumed and cleared by the next run_epoch so the outgoing update
    // continues the child's trace — one sampled aggregation wave is then
    // one span chain climbing the tree from a leaf to the root.
    std::uint64_t wave_trace_id = 0;
    std::uint64_t wave_parent_span = 0;
    // Last parent this entry pushed to; a change means Chord re-parented us
    // (churn or finger repair) and is counted as a tree-topology event.
    net::Endpoint last_parent = net::kNullEndpoint;
    /// Graceful-exit state: once draining, the entry stops pushing and any
    /// straggler update is answered with a redirect to `drain_relay`.
    bool draining = false;
    chord::NodeRef drain_relay{};
    std::uint64_t drain_ttl_us = 0;
  };

  struct PendingSnapshot {
    AggState acc;
    unsigned outstanding = 0;
    // Exactly one of handler / (reply_to, reply_seq) is set: the initiator
    // keeps the handler, forwarders reply upstream.
    SnapshotHandler handler;
    net::Endpoint reply_to = net::kNullEndpoint;
    std::uint64_t reply_seq = 0;
    net::TimerId timer = 0;
    bool done = false;
  };

  void register_handlers();
  /// Arms the entry's one wave timer `delay_us` ahead.
  void arm_epoch(Entry& entry, std::uint64_t delay_us);
  /// The wave timer: re-arms with exactly the period, which the transport
  /// counts from this firing's due time (Transport::set_timer), so the
  /// timer stays on the grid its first arm landed on; then pushes when due.
  void on_grid(Entry& entry);
  /// Pushes the entry's collected state upstream (the root records it as
  /// the global value instead); the one push path for both rules.
  void run_epoch(Entry& entry, std::uint64_t now, bool at_deadline);
  /// True when every child has reported in the wave opened at `opened`.
  /// Stale records leave at the next push (collect), so a dead child holds
  /// a wave back only until its TTL has run out.
  [[nodiscard]] static bool complete(const Entry& entry, std::uint64_t opened) {
    return entry.children.size() ==
           (entry.counted_wave == opened ? entry.reported : 0);
  }
  /// When the wave that time `t` falls in opened. Grid points are the
  /// multiples of the period on the transport clock, so every node sharing
  /// that clock places the same waves; a wave opens a quarter period before
  /// its grid point, so a report from a child whose clock runs slightly
  /// ahead still counts for the wave it belongs to.
  [[nodiscard]] std::uint64_t wave_opened(const Entry& entry,
                                          std::uint64_t t) const;
  [[nodiscard]] AggState collect(Entry& entry, std::uint64_t now);
  /// This node's own leaf contribution for the entry (identity when the
  /// entry is relay-only).
  [[nodiscard]] static AggState local_contribution(const Entry& entry) {
    return entry.local ? entry.local() : AggState::identity();
  }
  [[nodiscard]] std::uint64_t period_of(const Entry& entry) const {
    return entry.epoch_us != 0 ? entry.epoch_us : options_.epoch_us;
  }
  /// Soft-state membership: a child is fresh while its last update is at
  /// most DatOptions::child_ttl_epochs push periods old.
  [[nodiscard]] bool fresh(const Entry& entry, const ChildRecord& child,
                           std::uint64_t now) const;
  /// Erases every child record that is no longer fresh.
  void expire_children(Entry& entry, std::uint64_t now);

  /// Records one link of an aggregation wave's span chain on this node's
  /// flight recorder and returns the new span id.
  std::uint64_t record_wave_span(const char* name, std::uint64_t trace_id,
                                 std::uint64_t parent_span, const Entry& entry,
                                 std::uint64_t at_us,
                                 net::Endpoint peer = net::kNullEndpoint);
  /// Sends dat.handoff: `to` pushes `key` to `relay` for `ttl_us`.
  void send_handoff(net::Endpoint to, Id key, const chord::NodeRef& relay,
                    std::uint64_t ttl_us);

  /// True while the entry's parent override is unexpired and not this
  /// node itself: run_epoch then pushes to it instead of dat_parent.
  [[nodiscard]] bool override_live(const Entry& entry,
                                   std::uint64_t now) const;
  /// Upstream relay a draining entry points its children at.
  [[nodiscard]] chord::NodeRef drain_relay_for(const Entry& entry) const;

  void handle_update(net::Endpoint from, net::Reader& msg);
  void handle_handoff(net::Endpoint from, net::Reader& msg);
  void handle_retract(net::Endpoint from, net::Reader& msg);
  void handle_get_global(net::Endpoint from, net::Reader& req,
                         net::Writer& reply);
  void handle_get_history(net::Endpoint from, net::Reader& req,
                          net::Writer& reply);
  void handle_snap_req(net::Endpoint from, net::Reader& msg);
  void handle_snap_resp(net::Endpoint from, net::Reader& msg);
  /// dat.collect_start (at the root) and dat.collect_req (below it).
  void handle_collect(net::Endpoint from, net::Reader& msg);

  /// Routes to the root of `key` and calls `method` there (the request is
  /// the key, then `max_points` when set). `on_reply(status, reader)` gets
  /// a null reader when the lookup itself failed.
  template <typename OnReply>
  void query_root(Id key, const char* method,
                  std::optional<std::uint32_t> max_points, OnReply on_reply);

  /// A pending collection seeded with this node's own contribution to
  /// `key`; it answers `handler`, or else (reply_to, reply_seq).
  [[nodiscard]] PendingSnapshot seeded(Id key, SnapshotHandler handler,
                                       net::Endpoint reply_to,
                                       std::uint64_t reply_seq) const;
  /// Opens `pending` under a fresh sequence number and runs
  /// `fan_out(seq)`, which returns the number of sub-requests it issued.
  /// With none the collection finishes at once; otherwise it finishes on
  /// the last response or after `timeout_us`. Returns the sequence number.
  template <typename FanOut>
  std::uint64_t open_collection(PendingSnapshot pending,
                                std::uint64_t timeout_us, FanOut fan_out);

  /// Runs one level of tree collection: pull from fresh children, merge
  /// with the local value, reply upstream through the snapshot plumbing.
  /// `depth` bounds recursion: stale soft-state child records can form
  /// transient cycles right after re-parenting.
  void run_collect(Id key, net::Endpoint reply_to, std::uint64_t reply_seq,
                   unsigned depth, SnapshotHandler handler);

  /// Runs one level of a snapshot: Chord's segmented broadcast over the
  /// ring segment (self, limit), echoing the merged state back.
  void run_snapshot(Id key, Id limit, SnapshotHandler handler,
                    net::Endpoint reply_to, std::uint64_t reply_seq);
  void finish_snapshot(std::uint64_t seq);

  chord::Node& chord_;
  DatOptions options_;
  std::unordered_map<Id, Entry> table_;  // the paper's aggregation table
  std::unordered_map<std::uint64_t, PendingSnapshot> snapshots_;
  /// dat.update encoding buffer; keeps its capacity across pushes.
  std::vector<std::uint8_t> send_buf_;
  std::uint64_t next_seq_ = 1;
  bool alive_ = true;
  bool draining_ = false;

  // Borrowed instrument pointers into chord_.telemetry().registry; the
  // deque-backed registry guarantees they outlive this object (the chord
  // node owns both and destroys the DAT layer first).
  obs::Counter* m_epochs_ = nullptr;
  obs::Counter* m_updates_in_ = nullptr;
  obs::Counter* m_updates_out_ = nullptr;
  obs::Counter* m_parent_switches_ = nullptr;
  obs::Counter* m_relay_entries_ = nullptr;
  obs::Counter* m_handoffs_out_ = nullptr;  ///< children shed to a relay
  obs::Counter* m_handoffs_in_ = nullptr;   ///< parent overrides accepted
  obs::Counter* m_retracts_out_ = nullptr;  ///< drain retracts sent upstream
  obs::Counter* m_retracts_in_ = nullptr;   ///< child records retracted here
  obs::Histogram* m_child_staleness_ = nullptr;
  std::uint64_t collector_id_ = 0;
};

}  // namespace dat::core
