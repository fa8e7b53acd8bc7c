// Regression tests mirroring tools/fuzz/corpus/: each fixture is one seed
// file from the fuzz corpus, checked into the normal unit suite so the
// documented behavior holds even in builds without the fuzz harness. Keep
// the byte sequences here and the corpus files in sync (see
// tools/fuzz/README.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dat/aggregate.hpp"
#include "dat/wire.hpp"
#include "net/codec.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"

namespace {

using namespace dat::net;
using dat::core::AggState;
using dat::core::GlobalValue;

using Bytes = std::vector<std::uint8_t>;

void expect_rejected(const Bytes& wire, DecodeErrorCode code,
                     std::size_t offset, const char* corpus_name) {
  const auto result = Message::try_decode(wire);
  ASSERT_FALSE(result.ok()) << corpus_name;
  EXPECT_EQ(result.error.code, code)
      << corpus_name << ": " << result.error.to_string();
  EXPECT_EQ(result.error.offset, offset)
      << corpus_name << ": " << result.error.to_string();
}

/// Decodes `wire` with `read` and expects a CodecError of `code` at
/// `offset`.
template <typename Read>
void expect_body_rejected(const Bytes& wire, Read read, DecodeErrorCode code,
                          std::size_t offset, const char* corpus_name) {
  Reader r(wire);
  try {
    (void)read(r);
    FAIL() << corpus_name << ": decoder accepted malformed input";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.error().code, code) << corpus_name << ": " << e.what();
    EXPECT_EQ(e.error().offset, offset) << corpus_name << ": " << e.what();
  }
}

TEST(CodecFuzzRegression, EmptyDatagram) {
  // corpus: empty.bin
  expect_rejected({}, DecodeErrorCode::kTruncated, 0, "empty.bin");
}

TEST(CodecFuzzRegression, BadKindTag) {
  // corpus: bad_kind.bin
  expect_rejected({0x7f}, DecodeErrorCode::kBadKind, 0, "bad_kind.bin");
}

TEST(CodecFuzzRegression, TruncatedRequestId) {
  // corpus: truncated_request_id.bin — request "ping", then a request-id
  // varint whose continuation bits run off the end.
  expect_rejected({0x00, 0xd4, 0xe6, 0x80, 0x80}, DecodeErrorCode::kTruncated,
                  5, "truncated_request_id.bin");
}

TEST(CodecFuzzRegression, HugeMethodLength) {
  // corpus: huge_method_len.bin — an 11-byte request-id varint: its tenth
  // byte already carries bits beyond 64.
  const Bytes wire{0x00, 0xd4, 0xe6, 0xff, 0xff, 0xff, 0xff,
                   0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01};
  expect_rejected(wire, DecodeErrorCode::kLengthOverflow, 3,
                  "huge_method_len.bin");
}

TEST(CodecFuzzRegression, MethodLengthNearOverflow) {
  // corpus: method_len_overflow.bin — a 10-byte request-id varint whose
  // last byte is 2: the value is 2^64 + (2^63 - 1), one bit too wide.
  const Bytes wire{0x00, 0xd4, 0xe6, 0xff, 0xff, 0xff, 0xff,
                   0xff, 0xff, 0xff, 0xff, 0xff, 0x02};
  expect_rejected(wire, DecodeErrorCode::kLengthOverflow, 3,
                  "method_len_overflow.bin");
}

TEST(CodecFuzzRegression, OverlongRequestId) {
  // corpus: overlong_request_id.bin — request id 1 spelled 0x81 0x00; only
  // the shortest varint is accepted, so re-encoding stays exact.
  expect_rejected({0x00, 0xd4, 0xe6, 0x81, 0x00},
                  DecodeErrorCode::kNonCanonical, 3,
                  "overlong_request_id.bin");
}

TEST(CodecFuzzRegression, TruncatedTraceFlag) {
  // corpus: truncated_trace.bin — a one-way dat.update with the trace flag
  // set but only 3 of the 16 trace-id bytes.
  expect_rejected({0x82, 0x3e, 0x67, 0x01, 0x02, 0x03},
                  DecodeErrorCode::kTruncated, 3, "truncated_trace.bin");
}

TEST(CodecFuzzRegression, ValidEmptyResponse) {
  // corpus: valid_empty_response.bin — ok response to request 1, empty body.
  const Bytes wire{0x01, 0x01};
  auto result = Message::try_decode(wire);
  ASSERT_TRUE(result.ok()) << result.error.to_string();
  EXPECT_EQ(result.value().kind, MessageKind::kResponse);
  EXPECT_EQ(result.value().request_id, 1u);
  EXPECT_FALSE(result.value().error);
  EXPECT_TRUE(result.value().body.empty());
  EXPECT_EQ(result.value().encode(), wire);  // exact re-encode round-trip
}

TEST(CodecFuzzRegression, ValidOneWay) {
  // corpus: valid_oneway.bin — one-way "ping" with body "abc".
  const Bytes wire{0x02, 0xd4, 0xe6, 0x61, 0x62, 0x63};
  auto result = Message::try_decode(wire);
  ASSERT_TRUE(result.ok()) << result.error.to_string();
  EXPECT_EQ(result.value().kind, MessageKind::kOneWay);
  EXPECT_EQ(result.value().method, method_id("ping"));
  EXPECT_EQ(Bytes(result.value().body.begin(), result.value().body.end()),
            (Bytes{0x61, 0x62, 0x63}));
  EXPECT_EQ(result.value().encode(), wire);
}

TEST(CodecFuzzRegression, ValidTracedOneWay) {
  // corpus: valid_traced_oneway.bin — dat.update with the trace flag, trace
  // 0x1111222233334444, span 0x5555666677778888, body 0x2a.
  const Bytes wire{0x82, 0x3e, 0x67, 0x44, 0x44, 0x33, 0x33, 0x22, 0x22, 0x11,
                   0x11, 0x88, 0x88, 0x77, 0x77, 0x66, 0x66, 0x55, 0x55, 0x2a};
  auto result = Message::try_decode(wire);
  ASSERT_TRUE(result.ok()) << result.error.to_string();
  EXPECT_EQ(result.value().method, method_id("dat.update"));
  ASSERT_TRUE(result.value().trace.has_value());
  EXPECT_EQ(result.value().trace->trace_id, 0x1111222233334444ull);
  EXPECT_EQ(result.value().trace->span_id, 0x5555666677778888ull);
  EXPECT_EQ(result.value().body.size(), 1u);
  EXPECT_EQ(result.value().encode(), wire);
}

TEST(CodecFuzzRegression, ThrowingDecodeAgreesWithTryDecode) {
  // decode() and try_decode() must classify identically; the corpus inputs
  // exercise every frame-level error code.
  const std::vector<std::pair<Bytes, DecodeErrorCode>> cases = {
      {{}, DecodeErrorCode::kTruncated},
      {{0x7f}, DecodeErrorCode::kBadKind},
      {{0x00, 0xd4, 0xe6, 0x81, 0x00}, DecodeErrorCode::kNonCanonical},
      {{0x00, 0xd4, 0xe6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0x02},
       DecodeErrorCode::kLengthOverflow},
  };
  for (const auto& [wire, code] : cases) {
    try {
      (void)Message::decode(wire);
      FAIL() << "decode accepted malformed input";
    } catch (const CodecError& e) {
      EXPECT_EQ(e.error().code, code);
      EXPECT_EQ(e.error().code, Message::try_decode(wire).error.code);
    }
  }
}

// -- batch container -----------------------------------------------------------

TEST(CodecFuzzRegression, BatchWithVarintLengthsRoundTrips) {
  // corpus: batch_two_frames.bin — version 2 container holding a bare
  // one-way "ping" and a dat.update with body 09 09.
  const Bytes wire{0xb7, 0x02, 0x03, 0x02, 0xd4, 0xe6,
                   0x05, 0x02, 0x3e, 0x67, 0x09, 0x09};
  std::vector<Bytes> frames;
  const auto error = split_batch(wire, [&](std::span<const std::uint8_t> f) {
    frames.emplace_back(f.begin(), f.end());
  });
  ASSERT_FALSE(error.has_value()) << error->to_string();
  ASSERT_EQ(frames.size(), 2u);
  Bytes rebuilt;
  begin_batch(rebuilt);
  for (const Bytes& f : frames) {
    ASSERT_TRUE(Message::try_decode(f).ok());
    append_batch_frame(rebuilt, f);
  }
  EXPECT_EQ(rebuilt, wire);
}

TEST(CodecFuzzRegression, BatchOverlongFrameLength) {
  // corpus: batch_overlong_length.bin — frame length 3 spelled 0x83 0x00.
  const Bytes wire{0xb7, 0x02, 0x83, 0x00, 0x02, 0xd4, 0xe6};
  int frames = 0;
  const auto error =
      split_batch(wire, [&](std::span<const std::uint8_t>) { ++frames; });
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, DecodeErrorCode::kNonCanonical);
  EXPECT_EQ(error->offset, 2u);
  EXPECT_EQ(frames, 0);
}

// -- dat.update / dat.handoff / dat.retract bodies ------------------------------

const Bytes kUpdateMin{0xf0, 0xbd, 0xf3, 0xd5, 0x09, 0x13, 0xf8,
                       0xac, 0xd1, 0x91, 0x01, 0x03, 0x00, 0x00,
                       0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f};

TEST(CodecFuzzRegression, UpdateBodyRoundTrips) {
  // corpus: update_min.bin — a MIN-tree update with 32-bit ids: key
  // 0x9abcdef0, balanced scheme, sender 0x12345678, count 3, min 1.5. The
  // whole body is 20 bytes.
  Reader r(kUpdateMin);
  const dat::core::UpdateBody u = dat::core::read_update(r);
  EXPECT_EQ(u.key, 0x9abcdef0u);
  EXPECT_EQ(u.kind, dat::core::AggregateKind::kMin);
  EXPECT_EQ(u.scheme, 1u);
  EXPECT_EQ(u.sender, 0x12345678u);
  EXPECT_EQ(u.state.count, 3u);
  EXPECT_EQ(u.state.min, 1.5);
  Writer w;
  dat::core::write_update(w, u);
  EXPECT_EQ(w.data(), kUpdateMin);
}

TEST(CodecFuzzRegression, TruncatedBody) {
  // corpus: truncated_body.bin — update_min.bin cut inside the min value.
  const Bytes wire(kUpdateMin.begin(), kUpdateMin.end() - 4);
  expect_body_rejected(wire, dat::core::read_update,
                       DecodeErrorCode::kTruncated, 12, "truncated_body.bin");
}

TEST(CodecFuzzRegression, TrailingByteAfterValidMessage) {
  // corpus: trailing_byte.bin — update_min.bin plus one stray byte: the
  // body runs to the end of the frame, and the update reader rejects it.
  Bytes wire = kUpdateMin;
  wire.push_back(0xaa);
  expect_body_rejected(wire, dat::core::read_update,
                       DecodeErrorCode::kTrailingBytes, 20,
                       "trailing_byte.bin");
}

TEST(CodecFuzzRegression, UpdateBodyBadKind) {
  // corpus: update_bad_kind.bin — kind nibble 8 (beyond kHistogram).
  expect_body_rejected(Bytes{0x07, 0x18, 0x01, 0x00}, dat::core::read_update,
                       DecodeErrorCode::kBadKind, 1, "update_bad_kind.bin");
}

TEST(CodecFuzzRegression, UpdateBodyHistogramRoundTrips) {
  // corpus: update_histogram.bin — histogram tree: count 3, sum 6.0,
  // buckets {1: 2, 4: 1} as sparse pairs.
  const Bytes wire{0x09, 0x17, 0x02, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x18, 0x40, 0x02, 0x01, 0x02, 0x04, 0x01};
  Reader r(wire);
  const dat::core::UpdateBody u = dat::core::read_update(r);
  EXPECT_EQ(u.kind, dat::core::AggregateKind::kHistogram);
  EXPECT_EQ(u.state.hist, (std::vector<std::uint64_t>{0, 2, 0, 0, 1}));
  EXPECT_EQ(u.state.sum, 6.0);
  Writer w;
  dat::core::write_update(w, u);
  EXPECT_EQ(w.data(), wire);
}

TEST(CodecFuzzRegression, UpdateBodyHistogramRejectsUnorderedBuckets) {
  // corpus: update_hist_unordered.bin — the same buckets, index 4 first: a
  // second spelling of the same state, so rejected.
  const Bytes wire{0x09, 0x17, 0x02, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x18, 0x40, 0x02, 0x04, 0x01, 0x01, 0x02};
  expect_body_rejected(wire, dat::core::read_update,
                       DecodeErrorCode::kLengthOverflow, 15,
                       "update_hist_unordered.bin");
}

TEST(CodecFuzzRegression, HandoffBodyRoundTrips) {
  // corpus: handoff_valid.bin — key 0x9abcdef0, relay id 0x1234 at
  // 127.0.0.1:9100, ttl 60 s.
  const Bytes wire{0xf0, 0xbd, 0xf3, 0xd5, 0x09, 0xb4, 0x24, 0x8c, 0xc7,
                   0x84, 0x80, 0x80, 0xe0, 0x1f, 0x80, 0x8e, 0xce, 0x1c};
  Reader r(wire);
  const dat::core::HandoffBody h = dat::core::read_handoff(r);
  EXPECT_EQ(h.key, 0x9abcdef0u);
  EXPECT_EQ(h.relay.id, 0x1234u);
  EXPECT_EQ(h.relay.endpoint, 0x7f000001238cu);
  EXPECT_EQ(h.ttl_us, 60'000'000u);
  Writer w;
  dat::core::write_handoff(w, h);
  EXPECT_EQ(w.data(), wire);
  // Cut inside the TTL.
  expect_body_rejected(Bytes(wire.begin(), wire.end() - 1),
                       dat::core::read_handoff, DecodeErrorCode::kTruncated,
                       17, "handoff_valid.bin (cut)");
}

TEST(CodecFuzzRegression, RetractBodyRoundTrips) {
  // corpus: retract_valid.bin — key 0x9abcdef0.
  const Bytes wire{0xf0, 0xbd, 0xf3, 0xd5, 0x09};
  Reader r(wire);
  EXPECT_EQ(dat::core::read_retract(r), 0x9abcdef0u);
  Writer w;
  dat::core::write_retract(w, 0x9abcdef0u);
  EXPECT_EQ(w.data(), wire);
}

TEST(CodecFuzzRegression, KindShapedAggStateRoundTripsForEveryKind) {
  // No corpus file: the harness tries every kind on every input. Each kind
  // re-encodes its own fields exactly and leaves the rest at identity.
  AggState full = AggState::of(2.0);
  full.merge(AggState::of(5.0));
  full.hist = {0, 3, 0, 1};
  for (std::uint8_t raw = 0; raw <= 7; ++raw) {
    const auto kind = static_cast<dat::core::AggregateKind>(raw);
    Writer w;
    dat::core::write_agg_state(w, kind, full);
    Reader r(w.data());
    const AggState back = dat::core::read_agg_state(r, kind);
    EXPECT_TRUE(r.exhausted()) << dat::core::to_string(kind);
    EXPECT_EQ(back.count, full.count);
    EXPECT_EQ(back.result(kind), full.result(kind))
        << dat::core::to_string(kind);
    Writer again;
    dat::core::write_agg_state(again, kind, back);
    EXPECT_EQ(again.data(), w.data()) << dat::core::to_string(kind);
  }
}

// -- DAT body decoders --------------------------------------------------------
// The fuzz harness also feeds every input to the full read_agg_state and
// read_global_value; accepted input must re-encode to the consumed bytes.

/// The full (kind-less) AggState reader, the form root answers carry.
AggState read_full_state(Reader& r) { return dat::core::read_agg_state(r); }

const Bytes kScalarThree{
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x22, 0x40, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x00, 0x00, 0x00, 0x00};

TEST(CodecFuzzRegression, AggStateScalarRoundTrips) {
  // corpus: agg_state_scalar.bin — AggState::of(3.0), no histogram.
  Reader r(kScalarThree);
  const AggState s = dat::core::read_agg_state(r);
  EXPECT_EQ(s, AggState::of(3.0));
  EXPECT_TRUE(r.exhausted());
  Writer w;
  dat::core::write_agg_state(w, s);
  EXPECT_EQ(w.data(), kScalarThree);
  // As a root answer it stops where the epoch should start.
  expect_body_rejected(kScalarThree, dat::core::read_global_value,
                       DecodeErrorCode::kTruncated, 44,
                       "agg_state_scalar.bin");
}

TEST(CodecFuzzRegression, AggStateHistogramCountOverflow) {
  // corpus: agg_state_hist_overflow.bin — identity fields, then a bucket
  // count of 66 (> obs::Histogram::kBuckets).
  const Bytes wire{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x00, 0xf0, 0x7f, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0xf0, 0xff, 0x42, 0x00, 0x00, 0x00};
  expect_body_rejected(wire, read_full_state,
                       DecodeErrorCode::kLengthOverflow, 44,
                       "agg_state_hist_overflow.bin");
  expect_body_rejected(wire, dat::core::read_global_value,
                       DecodeErrorCode::kLengthOverflow, 44,
                       "agg_state_hist_overflow.bin");
}

TEST(CodecFuzzRegression, GlobalValueRoundTrips) {
  // corpus: global_value_valid.bin — AggState::of(2.5), epoch 7, updated
  // at 1000 us.
  const Bytes wire{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40, 0x00, 0x00,
                   0x00, 0x00, 0x00, 0x00, 0x19, 0x40, 0x01, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x04, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,
                   0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0xe8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  Reader r(wire);
  const GlobalValue g = dat::core::read_global_value(r);
  EXPECT_EQ(g.state, AggState::of(2.5));
  EXPECT_EQ(g.epoch, 7u);
  EXPECT_EQ(g.updated_at_us, 1000u);
  EXPECT_TRUE(r.exhausted());
  Writer w;
  dat::core::write_global_value(w, g);
  EXPECT_EQ(w.data(), wire);
}

TEST(CodecFuzzRegression, GlobalValueTruncatedTimestamp) {
  // corpus: global_value_truncated.bin — AggState::of(3.0), epoch 7, then
  // 4 of the 8 updated_at_us bytes.
  Bytes wire = kScalarThree;
  const Bytes tail{0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x01, 0x02, 0x03, 0x04};
  wire.insert(wire.end(), tail.begin(), tail.end());
  expect_body_rejected(wire, dat::core::read_global_value,
                       DecodeErrorCode::kTruncated, 52,
                       "global_value_truncated.bin");
}

}  // namespace
