#include "net/rpc.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hpp"

namespace dat::net {

namespace {
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

std::vector<RpcManager::MethodSlot>::iterator RpcManager::lower_slot(
    MethodId id) noexcept {
  return std::lower_bound(
      methods_.begin(), methods_.end(), id,
      [](const MethodSlot& slot, MethodId want) { return slot.id < want; });
}

RpcManager::MethodSlot* RpcManager::find_method(MethodId id) noexcept {
  const auto it = lower_slot(id);
  return it != methods_.end() && it->id == id ? &*it : nullptr;
}

RpcManager::MethodSlot& RpcManager::slot_for(std::string name) {
  const MethodId id = method_id(name);
  const auto at = lower_slot(id);
  if (at != methods_.end() && at->id == id) {
    if (at->name != name) {
      throw std::invalid_argument("rpc: method \"" + name +
                                  "\" collides with \"" + at->name +
                                  "\" on wire id " + std::to_string(id));
    }
    return *at;
  }
  MethodSlot slot;
  slot.id = id;
  slot.name = std::move(name);
  return *methods_.insert(at, std::move(slot));
}

void RpcManager::register_method(std::string method, MethodHandler handler) {
  slot_for(std::move(method)).request = std::move(handler);
}

void RpcManager::register_one_way(std::string method, OneWayHandler handler) {
  slot_for(std::move(method)).one_way = std::move(handler);
}

void RpcManager::unregister_method(std::string_view method) {
  MethodSlot* slot = find_method(method_id(method));
  if (slot != nullptr && slot->name == method) slot->request = nullptr;
}

void RpcManager::unregister_one_way(std::string_view method) {
  MethodSlot* slot = find_method(method_id(method));
  if (slot != nullptr && slot->name == method) slot->one_way = nullptr;
}

std::unordered_map<std::string, std::uint64_t> RpcManager::served_counts()
    const {
  std::unordered_map<std::string, std::uint64_t> counts;
  for (const MethodSlot& slot : methods_) {
    if (slot.served > 0) counts.emplace(slot.name, slot.served);
  }
  return counts;
}

void RpcManager::call(Endpoint to, std::string_view method, const Writer& body,
                      ResponseHandler handler, Options options) {
  const std::uint64_t id = next_request_id_++;
  Message req;
  req.kind = MessageKind::kRequest;
  req.request_id = id;
  req.method = method_id(method);
  req.body = body.data();
  stamp_trace(req);

  PendingCall call{to,      OwnedMessage(req), std::move(handler), options,
                   options.attempts, 0,        0,                  0,
                   transport_.now_us()};
  auto [it, inserted] = pending_.emplace(id, std::move(call));
  (void)inserted;
  --it->second.attempts_left;
  ++stats_.calls;
  ++stats_.attempts;
  transport_.send(to, it->second.request);
  arm_timer(id);
}

void RpcManager::send_one_way(Endpoint to, std::string_view method,
                              const Writer& body) {
  send_one_way(to, method_id(method), body.data());
}

void RpcManager::send_one_way(Endpoint to, MethodId method,
                              std::span<const std::uint8_t> body) {
  Message msg;
  msg.kind = MessageKind::kOneWay;
  msg.method = method;
  msg.body = body;
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
      MethodSlot* slot = find_method(msg.method);
      if (slot == nullptr || !slot->one_way) {
        // Unknown methods are attacker-reachable per datagram; the level
        // gate is computed in-branch so the dispatch happy path pays nothing.
        const bool log_debug = Logger::instance().enabled(LogLevel::kDebug);
        if (log_debug) {
          DAT_LOG_DEBUG("rpc", "unknown one-way method id " << msg.method);
        }
        return;
      }
      ++slot->served;
      Reader r(msg.body);
      try {
        // Called through a copy: the handler may register methods, which
        // moves the table, or tear down this manager.
        const OneWayHandler handler = slot->one_way;
        handler(from, r);
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

  // Encode into the retained reply buffer. A handler that re-enters
  // on_request finds it moved out and grows its own.
  std::vector<std::uint8_t> buf = std::move(reply_buf_);
  buf.clear();
  Writer out(buf);
  MethodSlot* slot = find_method(msg.method);
  if (slot == nullptr || !slot->request) {
    reply.error = true;
    out.str("unknown method id " + std::to_string(msg.method));
  } else {
    ++slot->served;
    Reader req(msg.body);
    try {
      const MethodHandler handler = slot->request;
      handler(from, req, out);
    } catch (const std::exception& e) {
      reply.error = true;
      buf.clear();
      out.str(e.what());
    }
  }
  reply.body = buf;
  transport_.send(from, reply);
  reply_buf_ = std::move(buf);
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
  if (msg.error) {
    ++stats_.remote_errors;
    if (handler) handler(RpcStatus::kRemoteError, r);
  } else {
    ++stats_.ok;
    if (handler) handler(RpcStatus::kOk, r);
  }
}

}  // namespace dat::net
