#include "net/sim_transport.hpp"

#include <stdexcept>

#include "common/logging.hpp"

namespace dat::net {

SimTransport& SimNetwork::add_node() {
  const Endpoint ep = next_endpoint_++;
  auto transport = std::make_unique<SimTransport>(*this, ep);
  auto* raw = transport.get();
  nodes_.emplace(ep, std::move(transport));
  return *raw;
}

void SimNetwork::remove_node(Endpoint ep) {
  nodes_.erase(ep);
  partitioned_.erase(ep);
}

void SimNetwork::set_loss_rate(double p) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("SimNetwork: loss rate must be in [0, 1)");
  }
  loss_rate_ = p;
}

void SimNetwork::set_latency_multiplier(double m) {
  if (m < 0.0) {
    throw std::invalid_argument("SimNetwork: latency multiplier must be >= 0");
  }
  latency_multiplier_ = m;
}

void SimNetwork::latency_burst(double m, std::uint64_t duration_us) {
  set_latency_multiplier(m);
  engine_.schedule_after(duration_us, [this]() { latency_multiplier_ = 1.0; });
}

void SimNetwork::loss_burst(double p, std::uint64_t duration_us) {
  const double previous = loss_rate_;
  set_loss_rate(p);
  engine_.schedule_after(duration_us,
                         [this, previous]() { loss_rate_ = previous; });
}

void SimNetwork::set_partitioned(Endpoint ep, bool partitioned) {
  if (partitioned) {
    partitioned_.insert(ep);
  } else {
    partitioned_.erase(ep);
  }
}

void SimNetwork::route(Endpoint from, Endpoint to, const Message& msg) {
  // Hoisted level gate (one relaxed load per message instead of one per log
  // site): route() is the simulator's hottest path, and under configured
  // loss the drop branch fires at traffic rate.
  const bool log_debug = Logger::instance().enabled(LogLevel::kDebug);
  // Loss and partitions are evaluated at send time; a message already in
  // flight when a partition heals is still lost, matching UDP semantics
  // closely enough for protocol testing.
  if (partitioned_.contains(from) || partitioned_.contains(to) ||
      (loss_rate_ > 0.0 && engine_.rng().next_double() < loss_rate_)) {
    ++dropped_;
    if (log_debug) {
      DAT_LOG_DEBUG("sim", "dropped method " << msg.method << " " << from
                                             << " -> " << to
                                             << " (loss/partition)");
    }
    return;
  }
  sim::SimDuration delay = engine_.latency().sample(from, to, engine_.rng());
  if (latency_multiplier_ != 1.0) {
    delay = static_cast<sim::SimDuration>(static_cast<double>(delay) *
                                          latency_multiplier_);
  }
  engine_.schedule_after(delay, [this, from, to, log_debug,
                                 m = OwnedMessage(msg)]() {
    const auto it = nodes_.find(to);
    if (it == nodes_.end()) {
      ++dropped_;
      if (log_debug) {
        DAT_LOG_DEBUG("sim", "dropped method " << m.method << " " << from
                                               << " -> " << to
                                               << " (endpoint gone)");
      }
      return;
    }
    ++delivered_;
    it->second->deliver(from, m.view());
  });
}

void SimTransport::send(Endpoint to, const Message& msg) {
  ++counters_.messages_sent;
  counters_.bytes_sent += msg.body.size();
  net_.route(self_, to, msg);
}

void SimTransport::deliver(Endpoint from, const Message& msg) {
  ++counters_.messages_received;
  counters_.bytes_received += msg.body.size();
  // Invoke through a stack copy: the handler may remove this very node from
  // the network (a crash inside a receive upcall), which destroys `this` —
  // and with it the handler_ member — while the callback is still running.
  if (handler_) {
    const ReceiveHandler handler = handler_;
    handler(from, msg);
  }
}

TimerId SimTransport::set_timer(std::uint64_t delay_us,
                                std::function<void()> cb) {
  return net_.engine().schedule_after(delay_us, std::move(cb));
}

void SimTransport::cancel_timer(TimerId id) { net_.engine().cancel(id); }

}  // namespace dat::net
