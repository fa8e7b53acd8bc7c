#pragma once

#include <cstdint>
#include <functional>

#include "netio/reactor.hpp"

namespace dat::netio {

/// The real-socket host: many node sockets in one OS process — the paper's
/// "up to 64 DAT instances on each machine" — on a single Reactor driven
/// inline on the caller's thread. UdpCluster, datd and the admin client
/// get epoll, syscall batching and write coalescing through the
/// run_for/run_while surface with no threading of their own; the
/// multi-shard threaded mode is ReactorPool's job.
class NetioNetwork {
 public:
  /// `t0_steady_us` is the clock origin (see Reactor); 0 starts the clock
  /// at construction.
  explicit NetioNetwork(const ReactorOptions& options = {},
                        std::uint64_t t0_steady_us = 0);

  /// Binds a new UDP socket on 127.0.0.1 and returns its transport.
  /// `port` 0 lets the OS assign one (harness mode); a daemon passes its
  /// configured port so peers can find it across process restarts. Pinned
  /// ports are bound with SO_REUSEADDR, so a restarted daemon can rebind
  /// immediately even while stale sockets linger in the kernel.
  NetioTransport& add_node(std::uint16_t port = 0);

  /// Closes the node's socket and destroys its transport. Safe to call from
  /// a receive handler or timer of the same network.
  void remove_node(net::Endpoint ep);

  /// Microseconds since the clock origin (monotonic).
  [[nodiscard]] std::uint64_t now_us() const;

  /// Pumps I/O and timers for the given wall-clock duration.
  void run_for(std::uint64_t duration_us);

  /// Pumps while `keep_going()` is true, up to `max_us`. Returns true if
  /// the predicate turned false (i.e. the awaited condition was met).
  bool run_while(const std::function<bool()>& keep_going,
                 std::uint64_t max_us);

  [[nodiscard]] Reactor& reactor() noexcept { return reactor_; }
  [[nodiscard]] const Reactor& reactor() const noexcept { return reactor_; }

 private:
  Reactor reactor_;
};

}  // namespace dat::netio
