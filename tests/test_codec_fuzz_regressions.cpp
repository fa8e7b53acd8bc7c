// Regression tests mirroring tools/fuzz/corpus/: each fixture is one seed
// file from the fuzz corpus, checked into the normal unit suite so the
// documented behavior holds even in builds without the fuzz harness. Keep
// the byte sequences here and the corpus files in sync (see
// tools/fuzz/README.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dat/aggregate.hpp"
#include "net/codec.hpp"
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

TEST(CodecFuzzRegression, EmptyDatagram) {
  // corpus: empty.bin
  expect_rejected({}, DecodeErrorCode::kTruncated, 0, "empty.bin");
}

TEST(CodecFuzzRegression, BadKindTag) {
  // corpus: bad_kind.bin
  expect_rejected({0x7f}, DecodeErrorCode::kBadKind, 0, "bad_kind.bin");
}

TEST(CodecFuzzRegression, TruncatedRequestId) {
  // corpus: truncated_request_id.bin — valid kind, then 3 of 8 id bytes.
  expect_rejected({0x02, 0x01, 0x02, 0x03}, DecodeErrorCode::kTruncated, 1,
                  "truncated_request_id.bin");
}

TEST(CodecFuzzRegression, HugeMethodLength) {
  // corpus: huge_method_len.bin — method length 0xffffffff with no payload.
  const Bytes wire{0x02, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0xff, 0xff, 0xff, 0xff};
  expect_rejected(wire, DecodeErrorCode::kTruncated, 13,
                  "huge_method_len.bin");
}

TEST(CodecFuzzRegression, MethodLengthNearOverflow) {
  // corpus: method_len_overflow.bin — length 0xfffffff8; position + length
  // must not wrap around and "succeed".
  const Bytes wire{0x02, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0xf8, 0xff, 0xff, 0xff};
  expect_rejected(wire, DecodeErrorCode::kTruncated, 13,
                  "method_len_overflow.bin");
}

TEST(CodecFuzzRegression, TruncatedBody) {
  // corpus: truncated_body.bin — request "ping" claiming a 2-byte body with
  // zero body bytes present.
  const Bytes wire{0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x70,
                   0x69, 0x6e, 0x67, 0x02, 0x00, 0x00, 0x00};
  expect_rejected(wire, DecodeErrorCode::kTruncated, 21, "truncated_body.bin");
}

TEST(CodecFuzzRegression, ValidEmptyResponse) {
  // corpus: valid_empty_response.bin — response id 1, empty method and body.
  const Bytes wire{0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  auto result = Message::try_decode(wire);
  ASSERT_TRUE(result.ok()) << result.error.to_string();
  EXPECT_EQ(result.value().kind, MessageKind::kResponse);
  EXPECT_EQ(result.value().request_id, 1u);
  EXPECT_TRUE(result.value().method.empty());
  EXPECT_TRUE(result.value().body.empty());
  EXPECT_EQ(result.value().encode(), wire);  // exact re-encode round-trip
}

TEST(CodecFuzzRegression, TrailingByteAfterValidMessage) {
  // corpus: trailing_byte.bin — valid_empty_response plus one stray byte.
  const Bytes wire{0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xaa};
  expect_rejected(wire, DecodeErrorCode::kTrailingBytes, 17,
                  "trailing_byte.bin");
}

TEST(CodecFuzzRegression, ValidOneWay) {
  // corpus: valid_oneway.bin — one-way "ping" with body "abc".
  const Bytes wire{0x02, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                   0x00, 0x04, 0x00, 0x00, 0x00, 0x70, 0x69, 0x6e,
                   0x67, 0x03, 0x00, 0x00, 0x00, 0x61, 0x62, 0x63};
  auto result = Message::try_decode(wire);
  ASSERT_TRUE(result.ok()) << result.error.to_string();
  EXPECT_EQ(result.value().kind, MessageKind::kOneWay);
  EXPECT_EQ(result.value().request_id, 42u);
  EXPECT_EQ(result.value().method, "ping");
  EXPECT_EQ(result.value().body, (Bytes{0x61, 0x62, 0x63}));
  EXPECT_EQ(result.value().encode(), wire);
}

TEST(CodecFuzzRegression, ThrowingDecodeAgreesWithTryDecode) {
  // decode() and try_decode() must classify identically; the corpus inputs
  // exercise every error code.
  const std::vector<std::pair<Bytes, DecodeErrorCode>> cases = {
      {{}, DecodeErrorCode::kTruncated},
      {{0x7f}, DecodeErrorCode::kBadKind},
      {{0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xaa},
       DecodeErrorCode::kTrailingBytes},
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

// -- DAT body decoders --------------------------------------------------------
// The fuzz harness also feeds every input to read_agg_state and
// read_global_value; accepted input must re-encode to the consumed bytes.

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
  expect_body_rejected(wire, dat::core::read_agg_state,
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
