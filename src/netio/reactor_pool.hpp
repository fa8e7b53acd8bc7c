#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "netio/reactor.hpp"

namespace dat::netio {

struct ReactorPoolOptions {
  /// Number of event-loop shards (threads). Sockets are spread round-robin.
  std::size_t shards = 1;
  /// Per-shard tuning, applied to every shard.
  ReactorOptions reactor;
};

/// Fixed set of threaded Reactor shards sharing one time epoch. Nodes are
/// assigned to shards round-robin at add_node() time and stay pinned: all of
/// a node's receive/timer callbacks run on its shard's thread, which is what
/// keeps the per-node protocol stacks (RpcManager, DatNode) lock-free.
class ReactorPool {
 public:
  explicit ReactorPool(const ReactorPoolOptions& options);
  ~ReactorPool();

  ReactorPool(const ReactorPool&) = delete;
  ReactorPool& operator=(const ReactorPool&) = delete;

  /// Binds a new socket on the next shard (round-robin). Thread-safe.
  NetioTransport& add_node();
  /// Removes a node from whichever shard hosts it. Thread-safe; no-op for
  /// unknown endpoints.
  void remove_node(net::Endpoint ep);

  /// Starts/stops every shard thread.
  void start();
  void stop();

  [[nodiscard]] Reactor& shard(std::size_t index) { return *shards_[index]; }
  /// Shard hosting `ep`; returns nullptr for unknown endpoints.
  [[nodiscard]] Reactor* shard_of(net::Endpoint ep);

  /// Microseconds since the pool's shared epoch.
  [[nodiscard]] std::uint64_t now_us() const;

  /// Sum of all shards' counters.
  [[nodiscard]] ReactorCounters counters() const;

 private:
  std::vector<std::unique_ptr<Reactor>> shards_;
  mutable std::mutex mutex_;
  std::unordered_map<net::Endpoint, std::size_t> shard_index_;
  std::size_t next_shard_ = 0;
};

}  // namespace dat::netio
