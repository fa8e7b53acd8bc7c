#pragma once

#include <cstdint>

#include "chord/types.hpp"
#include "dat/aggregate.hpp"

namespace dat::core {

// Bodies of the continuous-mode DAT messages. Each reader consumes a whole
// body and rejects trailing bytes, so an accepted body re-encodes to the
// same bytes (the fuzz round-trip invariant).

/// dat.update: one child's partial aggregate for one tree. The sender's
/// endpoint is not sent; the receiver takes it from the datagram source.
///
///   varint key | u8 scheme << 4 | kind | varint sender id | AggState
///
/// The AggState is in the kind-shaped form (write_agg_state with a kind).
struct UpdateBody {
  Id key = 0;
  AggregateKind kind = AggregateKind::kSum;
  /// Routing scheme as sent (0..15); the receiver reads values beyond
  /// chord::RoutingScheme as kBalanced.
  std::uint8_t scheme = 0;
  Id sender = 0;
  AggState state;
};

inline void write_update(net::Writer& w, const UpdateBody& u) {
  w.varint(u.key);
  w.u8(static_cast<std::uint8_t>(u.scheme << 4 |
                                 static_cast<std::uint8_t>(u.kind)));
  w.varint(u.sender);
  write_agg_state(w, u.kind, u.state);
}

inline UpdateBody read_update(net::Reader& r) {
  UpdateBody u;
  u.key = r.varint();
  const std::size_t kind_at = r.position();
  const std::uint8_t packed = r.u8();
  if ((packed & 0x0f) > static_cast<std::uint8_t>(AggregateKind::kHistogram)) {
    throw net::CodecError({net::DecodeErrorCode::kBadKind, kind_at},
                          "read_update: kind");
  }
  u.kind = static_cast<AggregateKind>(packed & 0x0f);
  u.scheme = packed >> 4;
  u.sender = r.varint();
  u.state = read_agg_state(r, u.kind);
  r.expect_end();
  return u;
}

/// dat.handoff: push `key` to `relay` for `ttl_us`.
///
///   varint key | varint relay id | varint relay endpoint | varint ttl_us
struct HandoffBody {
  Id key = 0;
  chord::NodeRef relay;
  std::uint64_t ttl_us = 0;
};

inline void write_handoff(net::Writer& w, const HandoffBody& h) {
  w.varint(h.key);
  w.varint(h.relay.id);
  w.varint(h.relay.endpoint);
  w.varint(h.ttl_us);
}

inline HandoffBody read_handoff(net::Reader& r) {
  HandoffBody h;
  h.key = r.varint();
  h.relay.id = r.varint();
  h.relay.endpoint = r.varint();
  h.ttl_us = r.varint();
  r.expect_end();
  return h;
}

/// dat.retract: drop the sender's child record of `key`.   varint key
inline void write_retract(net::Writer& w, Id key) { w.varint(key); }

inline Id read_retract(net::Reader& r) {
  const Id key = r.varint();
  r.expect_end();
  return key;
}

}  // namespace dat::core
