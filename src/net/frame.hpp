#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/codec.hpp"

namespace dat::net {

/// Wire container that packs several independently-encoded Message frames
/// bound for the same destination into one datagram — the netio write
/// coalescer's format. Layout:
///
///   u8 magic (0xB7) | u8 version (2) | ( varint frame_len | frame bytes )*
///
/// The magic byte can never open a plain Message (whose leading byte is a
/// MessageKind in 0..2 plus flag bits 0x40/0x80), so receivers classify a
/// datagram from its first byte without negotiation. Each sub-frame is
/// decoded through the same hardened Message::try_decode path as a
/// standalone datagram.
inline constexpr std::uint8_t kBatchMagic = 0xB7;
inline constexpr std::uint8_t kBatchVersion = 2;
inline constexpr std::size_t kBatchHeaderBytes = 2;

/// Container bytes one frame of `frame_len` bytes costs inside a batch: its
/// varint length prefix. The coalescer sizes datagrams with this.
[[nodiscard]] constexpr std::size_t batch_frame_overhead(
    std::size_t frame_len) noexcept {
  return varint_size(frame_len);
}

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

/// Walks every sub-frame of a batch datagram, invoking `on_frame(span)` for
/// each. Returns std::nullopt on success, or the typed error if the
/// container itself is malformed (frames already visited stay delivered —
/// exactly the drop-the-tail posture of a UDP protocol).
template <typename OnFrame>
[[nodiscard]] std::optional<DecodeError> split_batch(
    std::span<const std::uint8_t> dgram, OnFrame&& on_frame) {
  if (!is_batch_datagram(dgram)) {
    return DecodeError{DecodeErrorCode::kBadKind, 0};
  }
  Reader r(dgram);
  r.skip(kBatchHeaderBytes);
  while (!r.exhausted()) {
    std::uint64_t len = 0;
    if (const auto error = r.try_varint(len)) return error;
    if (len > r.remaining()) {
      return DecodeError{DecodeErrorCode::kTruncated, r.position()};
    }
    on_frame(r.slice(static_cast<std::size_t>(len)));
  }
  return std::nullopt;
}

}  // namespace dat::net
