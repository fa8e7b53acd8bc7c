#include "net/transport.hpp"

namespace dat::net {

namespace {
bool has_method(MessageKind kind) noexcept {
  return kind != MessageKind::kResponse;
}
bool has_request_id(MessageKind kind) noexcept {
  return kind != MessageKind::kOneWay;
}
}  // namespace

std::vector<std::uint8_t> Message::encode() const {
  std::vector<std::uint8_t> out;
  encode_into(out);
  return out;
}

void Message::encode_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  Writer w(out);
  std::uint8_t head = static_cast<std::uint8_t>(kind);
  if (error && kind == MessageKind::kResponse) head |= kFrameErrorFlag;
  if (trace.has_value()) head |= kFrameTraceFlag;
  w.u8(head);
  if (has_method(kind)) w.u16(method);
  if (has_request_id(kind)) w.varint(request_id);
  if (trace.has_value()) {
    w.u64(trace->trace_id);
    w.u64(trace->span_id);
  }
  w.raw(body);
}

Message Message::decode(std::span<const std::uint8_t> wire) {
  Reader r(wire);
  Message m;
  const std::uint8_t head = r.u8();
  const std::uint8_t kind = head & kFrameKindMask;
  const std::uint8_t flags = head & ~kFrameKindMask;
  // Reserved bits, kind 3, and the error flag outside a response have no
  // meaning; rejecting them keeps every accepted frame's encoding unique.
  if (kind > static_cast<std::uint8_t>(MessageKind::kOneWay) ||
      (flags & ~(kFrameErrorFlag | kFrameTraceFlag)) != 0 ||
      ((flags & kFrameErrorFlag) != 0 &&
       kind != static_cast<std::uint8_t>(MessageKind::kResponse))) {
    throw CodecError({DecodeErrorCode::kBadKind, 0});
  }
  m.kind = static_cast<MessageKind>(kind);
  m.error = (flags & kFrameErrorFlag) != 0;
  if (has_method(m.kind)) m.method = r.u16();
  if (has_request_id(m.kind)) m.request_id = r.varint();
  if ((flags & kFrameTraceFlag) != 0) {
    WireTrace t;
    t.trace_id = r.u64();
    t.span_id = r.u64();
    m.trace = t;
  }
  m.body = r.rest();
  return m;
}

Message::DecodeResult Message::try_decode(
    std::span<const std::uint8_t> wire) noexcept {
  DecodeResult result;
  try {
    result.message = decode(wire);
  } catch (const CodecError& e) {
    result.error = e.error();
  }
  return result;
}

}  // namespace dat::net
