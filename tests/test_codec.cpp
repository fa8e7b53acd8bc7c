#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "net/codec.hpp"
#include "net/transport.hpp"

namespace {

using namespace dat::net;

TEST(Codec, IntegerRoundTrips) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, ExtremeIntegers) {
  Writer w;
  w.u64(0);
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.i64(std::numeric_limits<std::int64_t>::max());
  Reader r(w.data());
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::max());
}

TEST(Codec, DoubleRoundTrips) {
  Writer w;
  const double values[] = {0.0, -0.0, 3.141592653589793, -1e308, 1e-308,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (const double v : values) w.f64(v);
  Reader r(w.data());
  for (const double v : values) EXPECT_EQ(r.f64(), v);
}

TEST(Codec, NanRoundTripsAsNan) {
  Writer w;
  w.f64(std::numeric_limits<double>::quiet_NaN());
  Reader r(w.data());
  EXPECT_TRUE(std::isnan(r.f64()));
}

TEST(Codec, BoolRoundTrips) {
  Writer w;
  w.boolean(true);
  w.boolean(false);
  Reader r(w.data());
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
}

TEST(Codec, StringRoundTrips) {
  Writer w;
  w.str("");
  w.str("hello");
  w.str(std::string(10000, 'x'));
  w.str(std::string("\0binary\xff", 8));
  Reader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string(10000, 'x'));
  EXPECT_EQ(r.str(), std::string("\0binary\xff", 8));
}

TEST(Codec, BytesRoundTrips) {
  Writer w;
  const std::vector<std::uint8_t> payload{0, 255, 17, 0, 42};
  w.bytes(payload);
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), payload);
}

TEST(Codec, TruncatedReadsThrow) {
  Writer w;
  w.u32(7);
  {
    Reader r(w.data());
    (void)r.u32();
    EXPECT_THROW((void)r.u8(), CodecError);
  }
  {
    Reader r(std::span<const std::uint8_t>(w.data().data(), 2));
    EXPECT_THROW((void)r.u32(), CodecError);
  }
}

TEST(Codec, TruncatedStringThrows) {
  Writer w;
  w.u32(100);  // claims a 100-byte string with no payload
  Reader r(w.data());
  EXPECT_THROW((void)r.str(), CodecError);
}

TEST(Codec, RemainingTracksPosition) {
  Writer w;
  w.u64(1);
  w.u64(2);
  Reader r(w.data());
  EXPECT_EQ(r.remaining(), 16u);
  (void)r.u64();
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u64();
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, TakeMovesBuffer) {
  Writer w;
  w.u8(1);
  const auto data = w.take();
  EXPECT_EQ(data.size(), 1u);
  EXPECT_EQ(w.size(), 0u);  // writer reusable after take
  w.u8(2);
  EXPECT_EQ(w.size(), 1u);
}

TEST(MessageCodec, RoundTrip) {
  Writer body;
  body.u64(12345);
  Message m;
  m.method = method_id("chord.lookup_step");
  m.kind = MessageKind::kRequest;
  m.request_id = 0xFEEDFACE;
  m.body = body.data();

  const auto wire = m.encode();
  const Message d = Message::decode(wire);
  EXPECT_EQ(d.method, m.method);
  EXPECT_EQ(d.kind, m.kind);
  EXPECT_EQ(d.request_id, m.request_id);
  EXPECT_TRUE(std::ranges::equal(d.body, m.body));
}

TEST(MessageCodec, AllKindsRoundTrip) {
  for (const auto kind : {MessageKind::kRequest, MessageKind::kResponse,
                          MessageKind::kOneWay}) {
    Message m;
    m.method = method_id("m");
    m.kind = kind;
    EXPECT_EQ(Message::decode(m.encode()).kind, kind);
  }
}

TEST(MessageCodec, BadKindRejected) {
  Message m;
  m.method = method_id("x");
  auto wire = m.encode();
  wire[0] = 9;  // reserved bit 3 set
  EXPECT_THROW((void)Message::decode(wire), CodecError);
}

TEST(MessageCodec, TrailingBytesRejected) {
  // The body runs to the end of the frame, so a stray byte lands in the
  // body; the body decoder's expect_end() is what rejects it.
  Writer body;
  body.u32(7);
  Message m;
  m.method = method_id("x");
  m.body = body.data();
  auto wire = m.encode();
  wire.push_back(0);
  const Message d = Message::decode(wire);
  Reader r(d.body);
  EXPECT_EQ(r.u32(), 7u);
  try {
    r.expect_end();
    FAIL() << "trailing byte accepted";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.error().code, DecodeErrorCode::kTrailingBytes);
    EXPECT_EQ(e.error().offset, 4u);
  }
}

TEST(MessageCodec, EmptyDatagramRejected) {
  EXPECT_THROW((void)Message::decode({}), CodecError);
}

TEST(MessageCodec, HeaderIsKindMethodIdAndVarintRequestId) {
  Message one_way;
  one_way.method = method_id("dat.update");
  EXPECT_EQ(one_way.encode(),
            (std::vector<std::uint8_t>{0x02,
                                       static_cast<std::uint8_t>(one_way.method),
                                       static_cast<std::uint8_t>(one_way.method >> 8)}));

  Message request = one_way;
  request.kind = MessageKind::kRequest;
  request.request_id = 300;  // varint 0xac 0x02
  const auto wire = request.encode();
  ASSERT_EQ(wire.size(), 5u);
  EXPECT_EQ(wire[3], 0xac);
  EXPECT_EQ(wire[4], 0x02);
}

TEST(MessageCodec, ResponseCarriesStatusInsteadOfMethod) {
  Message reply;
  reply.kind = MessageKind::kResponse;
  reply.request_id = 5;
  reply.error = true;
  const auto wire = reply.encode();
  EXPECT_EQ(wire, (std::vector<std::uint8_t>{0x01 | kFrameErrorFlag, 0x05}));
  const Message d = Message::decode(wire);
  EXPECT_TRUE(d.error);
  EXPECT_EQ(d.method, 0u);
  // The error flag means nothing on a request: rejected, not ignored.
  std::vector<std::uint8_t> bad = wire;
  bad[0] = 0x00 | kFrameErrorFlag;
  EXPECT_THROW((void)Message::decode(bad), CodecError);
}

TEST(MessageCodec, TraceFlagCarriesBothIds) {
  Message m;
  m.method = method_id("dat.update");
  m.trace = WireTrace{0x0102030405060708ull, 0x1112131415161718ull};
  const auto wire = m.encode();
  ASSERT_EQ(wire.size(), 3u + 16u);
  EXPECT_EQ(wire[0], 0x02 | kFrameTraceFlag);
  const Message d = Message::decode(wire);
  ASSERT_TRUE(d.trace.has_value());
  EXPECT_EQ(*d.trace, *m.trace);
  EXPECT_TRUE(d.body.empty());
}

TEST(MessageCodec, MethodIdIsFoldedFnv1a) {
  // FNV-1a 32 of "a" is 0xe40c292c; folded: 0xe40c ^ 0x292c.
  static_assert(method_id("a") == (0xe40c ^ 0x292c));
  EXPECT_NE(method_id("dat.update"), method_id("dat.handoff"));
}

TEST(Codec, VarintRoundTripsAndRejectsOverlong) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 300ull, 0xffffffffull,
        0xffffffffffffffffull}) {
    Writer w;
    w.varint(v);
    EXPECT_EQ(w.size(), varint_size(v)) << v;
    Reader r(w.data());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.exhausted());
  }
  // 0x80 0x00 is a second spelling of zero.
  const std::vector<std::uint8_t> overlong{0x80, 0x00};
  Reader r(overlong);
  try {
    (void)r.varint();
    FAIL() << "overlong varint accepted";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.error().code, DecodeErrorCode::kNonCanonical);
    EXPECT_EQ(e.error().offset, 0u);
  }
  EXPECT_EQ(r.position(), 0u);  // a failed read does not advance
  // An eleventh byte, or a tenth above 1, cannot fit in 64 bits.
  std::vector<std::uint8_t> wide(9, 0xff);
  wide.push_back(0x02);
  Reader r2(wide);
  EXPECT_THROW((void)r2.varint(), CodecError);
}

}  // namespace
