#pragma once

#include <cstdint>
#include <vector>

namespace dat::netio {

/// Recycling pool of byte buffers, one arena per reactor shard
/// (thread-confined, so no locking). The write coalescer's in-flight
/// datagrams draw from here, making the steady-state send path
/// allocation-free: a buffer is acquired, filled (growing past
/// buffer_bytes() when a datagram needs it), handed to the kernel, and
/// released back for reuse.
class BufferArena {
 public:
  explicit BufferArena(std::size_t buffer_bytes);

  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

  /// Returns an empty buffer with at least buffer_bytes() of capacity.
  [[nodiscard]] std::vector<std::uint8_t> acquire();

  /// Returns a buffer to the pool. Buffers that grew beyond buffer_bytes()
  /// are kept as-is (capacity is never shrunk, only recycled).
  void release(std::vector<std::uint8_t>&& buf);

  [[nodiscard]] std::size_t buffer_bytes() const noexcept {
    return buffer_bytes_;
  }
  /// Buffers created over the arena's lifetime (diagnostic: steady-state
  /// traffic should stop growing this).
  [[nodiscard]] std::uint64_t allocated() const noexcept { return allocated_; }
  [[nodiscard]] std::size_t pooled() const noexcept { return pool_.size(); }

 private:
  std::size_t buffer_bytes_;
  std::vector<std::vector<std::uint8_t>> pool_;
  std::uint64_t allocated_ = 0;
};

}  // namespace dat::netio
