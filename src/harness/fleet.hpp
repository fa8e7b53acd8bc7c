#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chord/node.hpp"
#include "chord/ring_view.hpp"
#include "dat/dat_node.hpp"
#include "maan/maan_node.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/selfmon.hpp"

namespace dat::harness {

/// Options every in-process fleet shares; SimCluster and UdpCluster extend
/// them with their own network and seed knobs.
struct FleetOptions {
  unsigned bits = 32;
  chord::NodeOptions node{};
  core::DatOptions dat{};
  bool with_dat = true;
};

/// A whole Chord(+DAT) deployment hosted in one process: a table of slots,
/// each a transport plus the protocol layers on it. The slot logic lives
/// here once — boot and rejoin, churn, the cluster-wide aggregate registry,
/// the invariant checkers and the telemetry roll-up — so the same code runs
/// over the simulator (SimCluster) and over real sockets (UdpCluster), the
/// paper's two setups (Sec. 5.1). Subclasses supply the network and how
/// time is pumped.
class Fleet {
 public:
  virtual ~Fleet() = default;

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] const IdSpace& space() const noexcept { return space_; }

  /// Number of currently live nodes.
  [[nodiscard]] std::size_t live_count() const;
  /// Total slots ever created (dead ones keep their index).
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] bool is_live(std::size_t slot) const;

  /// Throw std::out_of_range for a dead slot (or a disabled DAT layer).
  [[nodiscard]] chord::Node& node(std::size_t slot);
  [[nodiscard]] core::DatNode& dat(std::size_t slot);
  /// Null when the fleet runs no self-monitoring or the slot is dead.
  [[nodiscard]] obs::SelfMonitor* selfmon(std::size_t slot);

  /// Converged global view of the live membership.
  [[nodiscard]] chord::RingView ring_view() const;

  /// Pumps the fleet's clock (virtual or wall) forward by `us`.
  virtual void run_for(std::uint64_t us) = 0;
  /// Pumps until `condition` holds or `max_us` passes; true on success.
  virtual bool run_until(const std::function<bool()>& condition,
                         std::uint64_t max_us) = 0;
  /// The fleet's clock, in the timebase of its transports.
  [[nodiscard]] virtual std::uint64_t now_us() const = 0;

  /// Runs until every live node's tables match the converged RingView, or
  /// until `max_us` passes. Returns true on convergence.
  bool wait_converged(std::uint64_t max_us);

  /// Joins one new node through the lowest live slot. Returns the new slot
  /// index, or nullopt if the join failed.
  std::optional<std::size_t> add_node();

  /// Departs a node: graceful leave() or abrupt crash (the socket closes
  /// with no departure notice, like a killed process). A dead slot is a
  /// no-op; an index never allocated throws std::out_of_range.
  void remove_node(std::size_t slot, bool graceful);

  /// Restarts a crashed/departed slot: a fresh transport and chord::Node
  /// rejoin the ring through identifier probing via the lowest live slot,
  /// the upper layers are re-attached, and every cluster-registered
  /// aggregate (see start_aggregate_everywhere) is re-registered so the
  /// node is absorbed back into the trees. Returns true once the rejoin
  /// completed; the slot keeps its index.
  bool restart_node(std::size_t slot);

  /// Identifier migration (the rebalancer's heavyweight action): the node
  /// leaves gracefully, then a fresh instance rejoins through the lowest
  /// live slot with `new_id` forced (skipping the probing handshake — the
  /// id was computed from a global measurement instead). The slot keeps its
  /// index and re-registers every cluster aggregate. Returns true once the
  /// rejoin completed; on failure the slot is left dead (restart_node can
  /// revive it). Throws std::logic_error for a dead or the last live node.
  bool migrate_node(std::size_t slot, Id new_id);

  /// Per-slot local-value factory for cluster-wide aggregates; called with
  /// the slot index, may return nullptr for relay-only slots.
  using LocalValueFactory =
      std::function<core::DatNode::LocalValueFn(std::size_t slot)>;

  /// Registers the named aggregate on every live node and remembers the
  /// spec: nodes joining via add_node() or rejoining via restart_node()
  /// register it automatically, so churn never silently shrinks the
  /// contributor set. `epoch_us` overrides the per-key push period (0 keeps
  /// DatOptions::epoch_us) — the knob skewed workloads are built from.
  /// Returns the rendezvous key.
  Id start_aggregate_everywhere(std::string_view name, core::AggregateKind kind,
                                chord::RoutingScheme scheme,
                                LocalValueFactory local_for,
                                std::uint64_t epoch_us = 0);

  /// Gives every live node the exact d0 = 2^b / n hint for balanced
  /// routing (call after churn changed the live population).
  void refresh_d0_hints();

  /// Sum of chord-layer maintenance RPCs across live nodes.
  [[nodiscard]] std::uint64_t total_maintenance_rpcs() const;

  /// Cluster-wide metrics roll-up: every live node's registry snapshot
  /// stamped with its slot (node=<i>) and merged into one snapshot. Feed
  /// the result to obs::to_prometheus / obs::to_json, or call
  /// .rollup("node") to collapse per-node series into cluster totals.
  [[nodiscard]] virtual obs::MetricsSnapshot telemetry_snapshot() const;

  /// Always-true structural invariants over every live node (valid even
  /// mid-churn); throws std::logic_error listing violations. Runs
  /// automatically at protocol step boundaries in DAT_CHECK_INVARIANTS
  /// builds (the asan-ubsan preset turns it on).
  void assert_local_invariants() const;

  /// Ground-truth invariants after convergence: per-node tables against the
  /// converged RingView plus DAT-tree structure for sampled rendezvous
  /// keys under both routing schemes. Throws std::logic_error on violation.
  void assert_converged_invariants() const;

 protected:
  struct Slot {
    net::Transport* transport = nullptr;  // owned by the network
    std::unique_ptr<chord::Node> node;
    std::unique_ptr<core::DatNode> dat;
    std::unique_ptr<maan::MaanNode> maan;
    /// Declared after dat: destroyed first, so its leaf closures and
    /// in-flight query callbacks never outlive the DAT layer.
    std::unique_ptr<obs::SelfMonitor> selfmon;
    bool live = false;
  };

  explicit Fleet(const FleetOptions& options);

  /// Creates the ring on slot 0 (node seed `first_seed`) and joins n-1
  /// more nodes, each seeded from next_seed_. Called at the end of the
  /// subclass constructor, once its network exists.
  void bootstrap(std::size_t n, std::uint64_t first_seed);
  /// Destroys every slot's protocol layers. Subclass destructors call it
  /// while their network (which owns the transports) is still alive.
  void release_slots() noexcept;

  /// Binds a fresh transport on the fleet's network.
  virtual net::Transport& open_transport() = 0;
  /// Closes and destroys the transport bound at `ep`.
  virtual void close_transport(net::Endpoint ep) = 0;
  /// Pumps while a join is pending (neither flag set) within the fleet's
  /// join budget, then lets a successful join settle.
  virtual void await_join(const bool& joined, const bool& failed) = 0;
  /// Attaches the layers above Chord to a freshly joined slot.
  virtual void attach_layers(Slot& slot);

  std::vector<Slot> slots_;
  std::uint64_t next_seed_ = 0;
  /// Re-run refresh_d0_hints() after every bootstrap, restart and migration.
  bool auto_d0_hints_ = false;

 private:
  struct AggregateSpec {
    std::string name;
    core::AggregateKind kind;
    chord::RoutingScheme scheme;
    LocalValueFactory local_for;
    std::uint64_t epoch_us = 0;  ///< per-key push period; 0 = DatOptions
  };

  void register_cluster_aggregates(std::size_t slot_idx);
  /// Boots a node on a fresh transport into dead slot `slot_idx` and joins
  /// it via the lowest live slot; on success the slot is live, its layers
  /// attached and its aggregates registered. With `forced_id` the join
  /// skips identifier probing and takes exactly that id (migrations).
  bool boot_slot(std::size_t slot_idx, std::optional<Id> forced_id);
  /// boot_slot with retries: a join can fail transiently when routing
  /// crosses a just-crashed node.
  bool rejoin(std::size_t slot_idx, std::optional<Id> forced_id);
  [[nodiscard]] std::size_t lowest_live_slot() const;

  FleetOptions options_;
  IdSpace space_;
  std::vector<AggregateSpec> cluster_aggregates_;
};

}  // namespace dat::harness
