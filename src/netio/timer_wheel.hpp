#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "net/transport.hpp"

namespace dat::netio {

/// Hashed timer wheel shared by every socket on one reactor shard.
///
/// Entries land in slot (deadline / tick) % slot_count and carry their
/// absolute deadline, so arbitrarily long delays are correct across wheel
/// revolutions (an entry in a visited slot fires only once its deadline has
/// passed). advance() fires due callbacks on the calling (reactor) thread,
/// outside the wheel lock; schedule() and cancel() are safe from any thread
/// — the cross-shard requirement of ReactorPool, where a node hosted on one
/// shard may arm or cancel timers while another thread drives the wheel.
///
/// Resolution is one tick (default 1024 us): a timer never fires early, and
/// fires at most ~one tick late once advance() observes the deadline.
class TimerWheel {
 public:
  TimerWheel(std::uint64_t tick_us, std::size_t slot_count);

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Arms a timer for the absolute wheel-clock deadline. Thread-safe.
  net::TimerId schedule(std::uint64_t deadline_us, std::function<void()> cb);

  /// Cancels a pending timer; ids of already-fired timers are ignored.
  /// Thread-safe, including from inside a timer callback of the same wheel
  /// (a timer in the same due batch that has not run yet is suppressed).
  void cancel(net::TimerId id);

  /// Fires every entry whose deadline is <= now_us, in deadline order, on
  /// the calling thread. Callbacks run outside the lock and may freely
  /// schedule() or cancel().
  void advance(std::uint64_t now_us);

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t tick_us() const noexcept { return tick_us_; }

 private:
  struct Entry {
    std::uint64_t deadline_us;
    net::TimerId id;
    std::function<void()> cb;
  };

  mutable std::mutex mutex_;
  std::vector<std::vector<Entry>> slots_;
  /// Cancelled ids whose entries are still parked in a slot; reaped when
  /// the entry comes due (and wholesale once the wheel drains).
  std::unordered_set<net::TimerId> cancelled_;
  std::uint64_t tick_us_;
  std::uint64_t last_tick_ = 0;
  std::size_t count_ = 0;
  net::TimerId next_id_ = 1;
};

}  // namespace dat::netio
