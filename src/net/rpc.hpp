#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "obs/trace.hpp"

namespace dat::net {

/// Outcome of an RPC call as seen by the caller.
enum class RpcStatus : std::uint8_t {
  kOk = 0,
  kTimeout = 1,      ///< all retransmissions exhausted without a response
  kRemoteError = 2,  ///< the remote handler threw; body carries the message
};

[[nodiscard]] const char* to_string(RpcStatus s) noexcept;

/// Retry/timeout policy of a single RPC. The default is the classic fixed
/// policy (constant per-attempt timeout, immediate retransmission); the
/// adaptive profile adds exponential backoff with decorrelated jitter so
/// retry volume stays bounded exactly when the network is sick (a fixed
/// policy amplifies load under loss — every timeout injects a retransmission
/// into an already-lossy path at full rate).
struct RpcOptions {
  std::uint64_t timeout_us = 500'000;  ///< first-attempt timeout
  unsigned attempts = 3;               ///< total send attempts
  /// Per-attempt timeout growth: attempt k waits timeout_us * multiplier^k.
  /// 1.0 keeps the classic fixed timeout.
  double timeout_multiplier = 1.0;
  /// Delay inserted before each retransmission, grown with decorrelated
  /// jitter: d_k = min(2 s, uniform(base, 3 * d_{k-1})), d_0 = base.
  /// 0 disables the backoff delay (immediate retransmission).
  std::uint64_t backoff_base_us = 0;

  /// The adaptive retry profile used by the protocol layers' data-plane
  /// calls (lookups, queries, stores).
  [[nodiscard]] static RpcOptions adaptive(std::uint64_t timeout_us = 500'000,
                                           unsigned attempts = 3) {
    RpcOptions o;
    o.timeout_us = timeout_us;
    o.attempts = attempts;
    o.timeout_multiplier = 2.0;
    o.backoff_base_us = 25'000;
    return o;
  }

  /// A copy without backoff or timeout growth — the right budget for
  /// periodic maintenance RPCs, whose own timer is the retry mechanism.
  [[nodiscard]] RpcOptions fixed(unsigned new_attempts) const {
    RpcOptions o = *this;
    o.attempts = new_attempts;
    o.timeout_multiplier = 1.0;
    o.backoff_base_us = 0;
    return o;
  }

  /// Timeout of the (0-based) k-th attempt under the multiplier.
  [[nodiscard]] std::uint64_t attempt_timeout_us(unsigned attempt) const;

  /// Worst-case wall time a call can occupy: every per-attempt timeout plus
  /// every backoff delay at its cap. Upper layers size end-to-end deadlines
  /// from this instead of assuming attempts * timeout_us.
  [[nodiscard]] std::uint64_t max_total_us() const;
};

/// Client-side retry/latency accounting of one RpcManager — the observable
/// surface chaos campaigns use to assert retry storms stay bounded under
/// loss.
struct RpcStats {
  std::uint64_t calls = 0;           ///< call() invocations
  std::uint64_t attempts = 0;        ///< request datagrams sent (incl. retransmissions)
  std::uint64_t retransmits = 0;     ///< attempts beyond each call's first
  std::uint64_t timeouts = 0;        ///< calls that exhausted every attempt
  std::uint64_t ok = 0;              ///< calls completed with kOk
  std::uint64_t remote_errors = 0;   ///< calls completed with kRemoteError
  std::uint64_t backoff_wait_us = 0; ///< total time spent in backoff delays

  RpcStats& operator+=(const RpcStats& other) noexcept {
    calls += other.calls;
    attempts += other.attempts;
    retransmits += other.retransmits;
    timeouts += other.timeouts;
    ok += other.ok;
    remote_errors += other.remote_errors;
    backoff_wait_us += other.backoff_wait_us;
    return *this;
  }
};

/// Request/response RPC with timeouts and retransmission over an unreliable
/// Transport — the paper's "RPC manager" (Sec. 4, Fig. 6). Also dispatches
/// inbound one-way messages to registered handlers.
///
/// Server handlers are synchronous: they parse the request from a Reader and
/// serialize the reply into a Writer. A handler that throws produces a
/// kRemoteError response carrying the exception text. All upper-layer
/// protocols (Chord, DAT, MAAN) are built from iterative RPCs so synchronous
/// handlers suffice.
class RpcManager {
 public:
  /// cb(status, body): body is valid only when status == kOk; on
  /// kRemoteError it carries the remote exception text as a string field.
  using ResponseHandler = std::function<void(RpcStatus, Reader&)>;
  /// Request handler: decode from `req`, encode reply into `reply`.
  using MethodHandler =
      std::function<void(Endpoint from, Reader& req, Writer& reply)>;
  /// One-way handler: no reply channel.
  using OneWayHandler = std::function<void(Endpoint from, Reader& msg)>;

  using Options = RpcOptions;

  explicit RpcManager(Transport& transport);
  ~RpcManager();

  RpcManager(const RpcManager&) = delete;
  RpcManager& operator=(const RpcManager&) = delete;

  /// Registers the server-side handler for `method`. Replaces any previous
  /// registration of the same name; throws std::invalid_argument when a
  /// different name already holds the same MethodId.
  void register_method(std::string method, MethodHandler handler);
  void register_one_way(std::string method, OneWayHandler handler);

  /// Drops the handler for `method`; later requests get an unknown-method
  /// error (or are ignored, for one-ways). A layer that dies before its
  /// transport must unregister, or queued messages dispatch into freed
  /// memory.
  void unregister_method(std::string_view method);
  void unregister_one_way(std::string_view method);

  /// Issues a request. The handler fires exactly once, possibly re-entrantly
  /// from within the transport's event loop.
  /// The pending call keeps its own copy of the request for retransmits.
  void call(Endpoint to, std::string_view method, const Writer& body,
            ResponseHandler handler, Options options = Options());

  /// Fire-and-forget message.
  void send_one_way(Endpoint to, std::string_view method, const Writer& body);
  /// The same, by precomputed id: the body is handed to the transport as a
  /// view, so a sender that encodes into a retained buffer (DatNode's
  /// update path) sends without allocating.
  void send_one_way(Endpoint to, MethodId method,
                    std::span<const std::uint8_t> body);

  [[nodiscard]] Transport& transport() noexcept { return transport_; }
  [[nodiscard]] Endpoint local() const { return transport_.local(); }

  /// Number of requests currently awaiting a response.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }

  /// Per-method counters of requests and one-ways served, by method name
  /// (diagnostics / experiments). Built on call from the per-id counters.
  [[nodiscard]] std::unordered_map<std::string, std::uint64_t> served_counts()
      const;

  /// Client-side retry accounting since construction (or the last reset).
  [[nodiscard]] const RpcStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = RpcStats{}; }

  /// Attaches this manager to a node's telemetry bundle (nullptr detaches):
  /// RpcStats becomes a registry view (a snapshot-time collector — the retry
  /// hot path is untouched), outgoing messages are stamped with the ambient
  /// trace context, and inbound traced messages set that context around
  /// handler dispatch so causality propagates across RPC hops. The bundle
  /// must outlive this manager.
  void set_telemetry(obs::NodeTelemetry* telemetry);
  [[nodiscard]] obs::NodeTelemetry* telemetry() const noexcept {
    return telemetry_;
  }

 private:
  /// One registered method name: its wire id, both handler slots (a name
  /// may be served as a request, a one-way, or both) and its served count.
  struct MethodSlot {
    MethodId id = 0;
    std::string name;
    MethodHandler request;
    OneWayHandler one_way;
    std::uint64_t served = 0;
  };

  struct PendingCall {
    Endpoint to;
    OwnedMessage request;
    ResponseHandler handler;
    Options options;
    unsigned attempts_left;
    unsigned attempt = 0;            ///< 0-based index of the attempt in flight
    std::uint64_t last_backoff_us = 0;
    TimerId timer = 0;
    std::uint64_t issued_at_us = 0;  ///< call() time, for end-to-end latency
  };

  /// First slot whose id is not below `id`; methods_ is sorted by id.
  [[nodiscard]] std::vector<MethodSlot>::iterator lower_slot(
      MethodId id) noexcept;
  /// The slot of `id`, or nullptr.
  [[nodiscard]] MethodSlot* find_method(MethodId id) noexcept;
  /// The slot of `name`, created on first registration.
  MethodSlot& slot_for(std::string name);

  void on_message(Endpoint from, const Message& msg);
  void on_request(Endpoint from, const Message& msg);
  void on_response(const Message& msg);
  void arm_timer(std::uint64_t request_id);
  void on_timeout(std::uint64_t request_id);
  void retransmit(std::uint64_t request_id);

  /// Stamps the ambient trace onto an outgoing message, when tracing is on.
  void stamp_trace(Message& msg) const;

  Transport& transport_;
  obs::NodeTelemetry* telemetry_ = nullptr;
  std::uint64_t collector_id_ = 0;
  /// End-to-end call latency (call() to completing response), registered as
  /// dat_rpc_latency_us while telemetry is attached. Borrowed from the
  /// registry's deque, so the pointer stays valid for the bundle's lifetime.
  obs::Histogram* m_latency_ = nullptr;
  /// Dispatch table, sorted by MethodId: a binary search per inbound frame.
  std::vector<MethodSlot> methods_;
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  /// Reply encoding buffer; keeps its capacity across requests.
  std::vector<std::uint8_t> reply_buf_;
  RpcStats stats_;
  /// Jitter source for decorrelated backoff; seeded from the local endpoint
  /// so simulated runs stay deterministic per node.
  std::uint64_t jitter_state_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace dat::net
