#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "net/codec.hpp"

namespace dat::net {

/// Wire container that packs several independently-encoded Message frames
/// bound for the same destination into one datagram — the netio write
/// coalescer's format. Layout:
///
///   u8 magic (0xB7) | u8 version (1) | ( u32 frame_len | frame bytes )*
///
/// The magic byte can never open a plain Message (whose leading byte is a
/// MessageKind in 0..2), so receivers classify a datagram from its first
/// byte without negotiation. Each sub-frame is decoded through the same
/// hardened Message::try_decode path as a standalone datagram.
inline constexpr std::uint8_t kBatchMagic = 0xB7;
inline constexpr std::uint8_t kBatchVersion = 1;
inline constexpr std::size_t kBatchHeaderBytes = 2;
/// Per-frame container overhead: the u32 length prefix.
inline constexpr std::size_t kBatchFrameOverheadBytes = 4;

[[nodiscard]] inline bool is_batch_datagram(
    std::span<const std::uint8_t> dgram) noexcept {
  return dgram.size() >= kBatchHeaderBytes && dgram[0] == kBatchMagic &&
         dgram[1] == kBatchVersion;
}

/// Starts a batch datagram: clears `dgram` and writes the 2-byte header.
void begin_batch(std::vector<std::uint8_t>& dgram);

/// Appends one length-prefixed sub-frame to a batch started by begin_batch.
void append_batch_frame(std::vector<std::uint8_t>& dgram,
                        std::span<const std::uint8_t> frame);

/// Walks every sub-frame of a batch datagram, invoking `on_frame` for each.
/// Returns std::nullopt on success, or the typed error if the container
/// itself is malformed (frames already visited stay delivered — exactly the
/// drop-the-tail posture of a UDP protocol).
[[nodiscard]] std::optional<DecodeError> split_batch(
    std::span<const std::uint8_t> dgram,
    const std::function<void(std::span<const std::uint8_t>)>& on_frame);

}  // namespace dat::net
