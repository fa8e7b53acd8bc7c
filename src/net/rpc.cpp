#include "net/rpc.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "common/logging.hpp"

namespace dat::net {

namespace {
// Reserved method name of error responses; the body is the exception text.
constexpr const char* kErrorMethod = "$error";
/// Cap on one retransmission backoff delay.
constexpr std::uint64_t kBackoffCapUs = 2'000'000;

// splitmix64: a tiny deterministic stream for backoff jitter. Kept local to
// the RPC layer so retry timing never perturbs the protocol layers' seeded
// Rng streams.
std::uint64_t next_jitter(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

std::uint64_t RpcOptions::attempt_timeout_us(unsigned attempt) const {
  if (timeout_multiplier <= 1.0) return timeout_us;
  double t = static_cast<double>(timeout_us);
  for (unsigned k = 0; k < attempt; ++k) t *= timeout_multiplier;
  // Cap at something sane; a multiplier cannot overflow the u64 clock.
  constexpr double kMaxTimeout = 3600.0 * 1e6;  // one hour
  if (t > kMaxTimeout) t = kMaxTimeout;
  return static_cast<std::uint64_t>(t);
}

std::uint64_t RpcOptions::max_total_us() const {
  std::uint64_t total = 0;
  for (unsigned k = 0; k < attempts; ++k) total += attempt_timeout_us(k);
  if (backoff_base_us > 0 && attempts > 1) {
    total += static_cast<std::uint64_t>(attempts - 1) * kBackoffCapUs;
  }
  return total;
}

const char* to_string(RpcStatus s) noexcept {
  switch (s) {
    case RpcStatus::kOk: return "ok";
    case RpcStatus::kTimeout: return "timeout";
    case RpcStatus::kRemoteError: return "remote-error";
  }
  return "?";
}

RpcManager::RpcManager(Transport& transport)
    : transport_(transport),
      jitter_state_(transport.local() * 0x9E3779B97F4A7C15ull + 1) {
  transport_.set_receive_handler(
      [this](Endpoint from, const Message& msg) { on_message(from, msg); });
}

RpcManager::~RpcManager() {
  set_telemetry(nullptr);
  transport_.set_receive_handler(nullptr);
  for (auto& [id, call] : pending_) {
    if (call.timer != 0) transport_.cancel_timer(call.timer);
  }
}

void RpcManager::set_telemetry(obs::NodeTelemetry* telemetry) {
  if (telemetry_ != nullptr && collector_id_ != 0) {
    telemetry_->registry.remove_collector(collector_id_);
    collector_id_ = 0;
  }
  telemetry_ = telemetry;
  m_latency_ = nullptr;
  if (telemetry_ == nullptr) return;
  m_latency_ = &telemetry_->registry.histogram("dat_rpc_latency_us");
  collector_id_ =
      telemetry_->registry.add_collector([this](obs::MetricsSnapshot& out) {
        const auto add = [&out](const char* name, obs::MetricType type,
                                double value) {
          obs::Sample s;
          s.name = name;
          s.type = type;
          s.value = value;
          out.samples.push_back(std::move(s));
        };
        using enum obs::MetricType;
        add("dat_rpc_calls_total", kCounter,
            static_cast<double>(stats_.calls));
        add("dat_rpc_attempts_total", kCounter,
            static_cast<double>(stats_.attempts));
        add("dat_rpc_retransmits_total", kCounter,
            static_cast<double>(stats_.retransmits));
        add("dat_rpc_timeouts_total", kCounter,
            static_cast<double>(stats_.timeouts));
        add("dat_rpc_ok_total", kCounter, static_cast<double>(stats_.ok));
        add("dat_rpc_remote_errors_total", kCounter,
            static_cast<double>(stats_.remote_errors));
        add("dat_rpc_backoff_wait_us_total", kCounter,
            static_cast<double>(stats_.backoff_wait_us));
        add("dat_rpc_pending", kGauge, static_cast<double>(pending_.size()));
        const TrafficCounters& traffic = transport_.counters();
        add("dat_net_messages_sent_total", kCounter,
            static_cast<double>(traffic.messages_sent));
        add("dat_net_messages_received_total", kCounter,
            static_cast<double>(traffic.messages_received));
        add("dat_net_bytes_sent_total", kCounter,
            static_cast<double>(traffic.bytes_sent));
        add("dat_net_bytes_received_total", kCounter,
            static_cast<double>(traffic.bytes_received));
        add("dat_net_decode_errors_total", kCounter,
            static_cast<double>(traffic.decode_errors));
        add("dat_net_truncated_datagrams_total", kCounter,
            static_cast<double>(traffic.truncated_datagrams));
      });
}

void RpcManager::stamp_trace(Message& msg) const {
  if (telemetry_ != nullptr && telemetry_->trace.active()) {
    msg.trace = WireTrace{telemetry_->trace.trace_id(),
                          telemetry_->trace.span_id()};
  }
}

void RpcManager::register_method(std::string method, MethodHandler handler) {
  methods_[std::move(method)] = std::move(handler);
}

void RpcManager::register_one_way(std::string method, OneWayHandler handler) {
  one_ways_[std::move(method)] = std::move(handler);
}

void RpcManager::unregister_method(const std::string& method) {
  methods_.erase(method);
}

void RpcManager::unregister_one_way(const std::string& method) {
  one_ways_.erase(method);
}

void RpcManager::call(Endpoint to, const std::string& method,
                      const Writer& body, ResponseHandler handler,
                      Options options) {
  const std::uint64_t id = next_request_id_++;
  Message req;
  req.kind = MessageKind::kRequest;
  req.request_id = id;
  req.method = method;
  req.body = body.data();
  stamp_trace(req);

  PendingCall call{to,      std::move(req), std::move(handler), options,
                   options.attempts, 0,     0,                  0,
                   transport_.now_us()};
  auto [it, inserted] = pending_.emplace(id, std::move(call));
  (void)inserted;
  --it->second.attempts_left;
  ++stats_.calls;
  ++stats_.attempts;
  transport_.send(to, it->second.request);
  arm_timer(id);
}

void RpcManager::send_one_way(Endpoint to, const std::string& method,
                              const Writer& body) {
  Message msg;
  msg.kind = MessageKind::kOneWay;
  msg.method = method;
  msg.body = body.data();
  stamp_trace(msg);
  transport_.send(to, msg);
}

void RpcManager::arm_timer(std::uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  it->second.timer = transport_.set_timer(
      it->second.options.attempt_timeout_us(it->second.attempt),
      [this, request_id]() { on_timeout(request_id); });
}

void RpcManager::on_timeout(std::uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  PendingCall& call = it->second;
  call.timer = 0;
  if (call.attempts_left > 0) {
    const Options& opts = call.options;
    if (opts.backoff_base_us > 0) {
      // Decorrelated jitter: wait uniform(base, 3 * previous wait) before
      // the retransmission, capped. Spreads synchronized retries apart and
      // grows the expected wait geometrically without full lockstep.
      const std::uint64_t lo = opts.backoff_base_us;
      const std::uint64_t hi =
          std::max<std::uint64_t>(lo + 1, 3 * std::max(call.last_backoff_us, lo));
      std::uint64_t wait = lo + next_jitter(jitter_state_) % (hi - lo);
      wait = std::min(wait, kBackoffCapUs);
      call.last_backoff_us = wait;
      stats_.backoff_wait_us += wait;
      call.timer = transport_.set_timer(
          wait, [this, request_id]() { retransmit(request_id); });
      return;
    }
    retransmit(request_id);
    return;
  }
  // Exhausted: deliver timeout. Move the handler out before erasing so a
  // re-entrant call() from the handler is safe.
  ++stats_.timeouts;
  ResponseHandler handler = std::move(call.handler);
  pending_.erase(it);
  Reader empty(std::span<const std::uint8_t>{});
  if (handler) handler(RpcStatus::kTimeout, empty);
}

void RpcManager::retransmit(std::uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  PendingCall& call = it->second;
  call.timer = 0;
  --call.attempts_left;
  ++call.attempt;
  ++stats_.attempts;
  ++stats_.retransmits;
  transport_.send(call.to, call.request);
  arm_timer(request_id);
}

void RpcManager::on_message(Endpoint from, const Message& msg) {
  // A traced message carries its cause across the wire: make that the
  // ambient context for the whole dispatch, so handlers (and any RPCs or
  // spans they produce) are causally linked to the sender's span.
  std::optional<obs::TraceContext::Scope> scope;
  if (telemetry_ != nullptr && msg.trace.has_value()) {
    scope.emplace(telemetry_->trace, msg.trace->trace_id, msg.trace->span_id);
  }
  switch (msg.kind) {
    case MessageKind::kRequest:
      on_request(from, msg);
      return;
    case MessageKind::kResponse:
      on_response(msg);
      return;
    case MessageKind::kOneWay: {
      const auto it = one_ways_.find(msg.method);
      if (it == one_ways_.end()) {
        // Unknown methods are attacker-reachable per datagram; the level
        // gate is computed in-branch so the dispatch happy path pays nothing.
        const bool log_debug = Logger::instance().enabled(LogLevel::kDebug);
        if (log_debug) {
          DAT_LOG_DEBUG("rpc", "unknown one-way method " << msg.method);
        }
        return;
      }
      ++served_[msg.method];
      Reader r(msg.body);
      try {
        it->second(from, r);
      } catch (const std::exception& e) {
        const bool log_warn = Logger::instance().enabled(LogLevel::kWarn);
        if (log_warn) {
          DAT_LOG_WARN("rpc", "one-way handler " << msg.method
                                                 << " threw: " << e.what());
        }
      }
      return;
    }
  }
}

void RpcManager::on_request(Endpoint from, const Message& msg) {
  Message reply;
  reply.kind = MessageKind::kResponse;
  reply.request_id = msg.request_id;
  // Echo the request's trace so the caller's response handler runs in the
  // same causal context (even when this node has no telemetry attached).
  reply.trace = msg.trace;

  const auto it = methods_.find(msg.method);
  if (it == methods_.end()) {
    reply.method = kErrorMethod;
    Writer w;
    w.str("unknown method: " + msg.method);
    reply.body = w.take();
    transport_.send(from, reply);
    return;
  }
  ++served_[msg.method];
  Reader req(msg.body);
  Writer out;
  try {
    it->second(from, req, out);
    reply.method = msg.method;
    reply.body = out.take();
  } catch (const std::exception& e) {
    reply.method = kErrorMethod;
    Writer w;
    w.str(e.what());
    reply.body = w.take();
  }
  transport_.send(from, reply);
}

void RpcManager::on_response(const Message& msg) {
  auto it = pending_.find(msg.request_id);
  if (it == pending_.end()) {
    // Duplicate response after a retransmission already completed the call.
    return;
  }
  if (it->second.timer != 0) transport_.cancel_timer(it->second.timer);
  if (m_latency_ != nullptr) {
    m_latency_->observe(transport_.now_us() - it->second.issued_at_us);
  }
  ResponseHandler handler = std::move(it->second.handler);
  pending_.erase(it);
  Reader r(msg.body);
  if (msg.method == kErrorMethod) {
    ++stats_.remote_errors;
    if (handler) handler(RpcStatus::kRemoteError, r);
  } else {
    ++stats_.ok;
    if (handler) handler(RpcStatus::kOk, r);
  }
}

}  // namespace dat::net
