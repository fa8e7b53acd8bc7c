#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "net/transport.hpp"

namespace dat::net {

/// Packs an IPv4 address and UDP port into a Transport endpoint:
/// (ipv4 << 16) | port, both host byte order. Never 0 for a bound socket.
[[nodiscard]] inline Endpoint make_udp_endpoint(std::uint32_t ipv4_host_order,
                                                std::uint16_t port) {
  return (static_cast<Endpoint>(ipv4_host_order) << 16) | port;
}

[[nodiscard]] inline std::uint32_t endpoint_ipv4(Endpoint ep) {
  return static_cast<std::uint32_t>(ep >> 16);
}

[[nodiscard]] inline std::uint16_t endpoint_port(Endpoint ep) {
  return static_cast<std::uint16_t>(ep & 0xFFFF);
}

[[nodiscard]] inline std::string endpoint_to_string(Endpoint ep) {
  const std::uint32_t ip = endpoint_ipv4(ep);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u:%u", (ip >> 24) & 0xFF,
                (ip >> 16) & 0xFF, (ip >> 8) & 0xFF, ip & 0xFF,
                endpoint_port(ep));
  return buf;
}

}  // namespace dat::net
