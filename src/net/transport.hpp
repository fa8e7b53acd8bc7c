#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "net/codec.hpp"

namespace dat::net {

/// Opaque network address of a node. The simulator uses dense indices; the
/// UDP stack packs IPv4:port into the low 48 bits. Value 0 is reserved as
/// "no endpoint".
using Endpoint = std::uint64_t;

constexpr Endpoint kNullEndpoint = 0;

/// Kind of a wire message. Requests expect a Response with the same
/// request_id; OneWay messages are fire-and-forget (used by continuous
/// aggregation updates, which are idempotent and refreshed every epoch).
enum class MessageKind : std::uint8_t { kRequest = 0, kResponse = 1, kOneWay = 2 };

struct MessageDecodeResult;

/// Wire id of an RPC method: a 16-bit FNV-1a of its name (the 32-bit hash
/// folded in half). Both ends derive it from the name alone, so nodes that
/// register different method subsets still agree on every id without a
/// negotiated table. RpcManager::register_* reject a second name that
/// hashes to an id already taken.
using MethodId = std::uint16_t;

[[nodiscard]] constexpr MethodId method_id(std::string_view name) noexcept {
  std::uint32_t h = 2166136261u;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return static_cast<MethodId>((h >> 16) ^ (h & 0xffffu));
}

/// Leading byte of a frame: the MessageKind in the low two bits plus flag
/// bits. Every other bit is reserved and must be zero, so a frame's first
/// byte is at most 0xC2 and never the batch container's 0xB7 magic.
inline constexpr std::uint8_t kFrameKindMask = 0x03;
/// Response flag: the remote handler failed; the body is its error text.
inline constexpr std::uint8_t kFrameErrorFlag = 0x40;
/// Trace flag: the 16 bytes of WireTrace follow the header.
inline constexpr std::uint8_t kFrameTraceFlag = 0x80;

/// Causal trace correlation carried in the frame header: which trace this
/// message belongs to and which span on the sender caused it (obs layer
/// flight recorders stitch these into cross-node traces).
struct WireTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  friend bool operator==(const WireTrace&, const WireTrace&) = default;
};

/// One datagram frame, as a view: the body points into a buffer the caller
/// owns (the sender's scratch buffer, the received datagram). Wire layout:
///
///   u8 kind|flags  [u16 method id]  [varint request_id]  [u64 trace_id
///   u64 span_id]  body...
///
/// Requests and one-ways carry the method id; requests and responses carry
/// the request id; the trace ids follow only under kFrameTraceFlag. The
/// body is the rest of the frame, with no length prefix.
struct Message {
  MessageKind kind = MessageKind::kOneWay;
  MethodId method = 0;           ///< requests and one-ways
  std::uint64_t request_id = 0;  ///< requests and responses
  bool error = false;            ///< responses: the remote handler threw
  std::span<const std::uint8_t> body;
  /// When set, the frame carries the trace flag and ids.
  std::optional<WireTrace> trace;

  /// Flat wire encoding of the whole message.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Encodes into `out` (cleared first), reusing its capacity: the
  /// allocation-free variant for per-datagram send paths, where `out` is a
  /// scratch or arena buffer that lives across messages.
  void encode_into(std::vector<std::uint8_t>& out) const;

  /// Parses a frame; throws CodecError on malformed input. The result views
  /// `wire`, which must outlive it.
  [[nodiscard]] static Message decode(std::span<const std::uint8_t> wire);

  /// Parses a frame without throwing: malformed input yields the typed
  /// DecodeError instead. This is the entry point for untrusted bytes (the
  /// UDP receive path).
  [[nodiscard]] static MessageDecodeResult try_decode(
      std::span<const std::uint8_t> wire) noexcept;

  using DecodeResult = MessageDecodeResult;
};

/// Outcome of a non-throwing decode: either a Message or a typed
/// DecodeError saying what was malformed and where.
struct MessageDecodeResult {
  std::optional<Message> message;
  DecodeError error{};

  [[nodiscard]] bool ok() const noexcept { return message.has_value(); }
  [[nodiscard]] Message& value() { return *message; }
};

/// A Message that owns its body: what outlives the sender's buffer (a
/// datagram in flight in the simulator, a pending call kept for
/// retransmits, a test fixture). view() lends it out as a Message.
struct OwnedMessage {
  MessageKind kind = MessageKind::kOneWay;
  MethodId method = 0;
  std::uint64_t request_id = 0;
  bool error = false;
  std::vector<std::uint8_t> body;
  std::optional<WireTrace> trace;

  OwnedMessage() = default;
  explicit OwnedMessage(const Message& m)
      : kind(m.kind),
        method(m.method),
        request_id(m.request_id),
        error(m.error),
        body(m.body.begin(), m.body.end()),
        trace(m.trace) {}

  [[nodiscard]] Message view() const noexcept {
    return Message{kind, method, request_id, error, body, trace};
  }
  // Implicit, so an OwnedMessage passes wherever a Message is taken.
  operator Message() const noexcept { return view(); }
};

/// Per-transport traffic accounting. The load-balancing evaluation
/// (Figs. 8a/8b) is computed from these counters.
struct TrafficCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  /// Datagrams dropped because they failed Message decoding (malformed or
  /// adversarial input on the UDP path).
  std::uint64_t decode_errors = 0;
  /// Datagrams dropped because they exceeded the receive buffer (kernel
  /// truncation reported via MSG_TRUNC).
  std::uint64_t truncated_datagrams = 0;

  void reset() noexcept { *this = TrafficCounters{}; }
};

/// Timer handle; 0 is "no timer".
using TimerId = std::uint64_t;

/// Asynchronous, unreliable datagram transport with timers — the narrow
/// waist shared by the discrete-event simulator and the UDP/RPC stack
/// (paper Fig. 6). One Transport instance belongs to exactly one node.
class Transport {
 public:
  using ReceiveHandler = std::function<void(Endpoint from, const Message&)>;

  virtual ~Transport() = default;

  /// This node's own address.
  [[nodiscard]] virtual Endpoint local() const = 0;

  /// Sends `msg` to `to`. Unreliable: delivery may fail silently (simulated
  /// loss or a dead UDP peer); reliability is layered in RpcManager.
  virtual void send(Endpoint to, const Message& msg) = 0;

  /// Installs the upcall for inbound messages. Pass nullptr to mute.
  virtual void set_receive_handler(ReceiveHandler handler) = 0;

  /// One-shot timer after `delay_us` microseconds (virtual or wall time,
  /// depending on the implementation). Periodic timers keep their phase: a
  /// timer set from inside a timer callback with the same delay as the
  /// timer that is firing is due one delay after that timer was due, not
  /// after now, and periods a stall skipped are dropped, not fired in a
  /// burst. (The simulator runs every callback at its deadline, so there
  /// the two coincide.)
  virtual TimerId set_timer(std::uint64_t delay_us, std::function<void()> cb) = 0;
  virtual void cancel_timer(TimerId id) = 0;

  /// Current time in microseconds on this transport's clock.
  [[nodiscard]] virtual std::uint64_t now_us() const = 0;

  [[nodiscard]] const TrafficCounters& counters() const noexcept {
    return counters_;
  }
  void reset_counters() noexcept { counters_.reset(); }

 protected:
  TrafficCounters counters_;
};

}  // namespace dat::net
