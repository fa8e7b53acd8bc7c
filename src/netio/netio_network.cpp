#include "netio/netio_network.hpp"

namespace dat::netio {

NetioNetwork::NetioNetwork(const ReactorOptions& options,
                           std::uint64_t t0_steady_us)
    : reactor_(options, t0_steady_us) {}

NetioTransport& NetioNetwork::add_node(std::uint16_t port) {
  return reactor_.add_socket(port);
}

void NetioNetwork::remove_node(net::Endpoint ep) {
  reactor_.remove_socket(ep);
}

std::uint64_t NetioNetwork::now_us() const { return reactor_.now_us(); }

void NetioNetwork::run_for(std::uint64_t duration_us) {
  const std::uint64_t deadline = now_us() + duration_us;
  while (now_us() < deadline) {
    reactor_.poll_once(deadline - now_us());
  }
}

bool NetioNetwork::run_while(const std::function<bool()>& keep_going,
                             std::uint64_t max_us) {
  const std::uint64_t deadline = now_us() + max_us;
  bool met = true;
  while (keep_going()) {
    if (now_us() >= deadline) {
      met = false;
      break;
    }
    reactor_.poll_once(deadline - now_us());
  }
  return met;
}

}  // namespace dat::netio
