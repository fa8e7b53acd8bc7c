// Adversarial wire-decoding tests: every message kind, byte-wise truncated
// at every length and with every single bit flipped, must either decode to a
// valid Message or yield a clean typed DecodeError — never crash, never read
// out of bounds, never throw through the noexcept try_decode boundary. A
// frame's body runs to its end, so damage inside the body surfaces in the
// body decoder (a Reader over Message::body), which is held to the same rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "net/codec.hpp"
#include "net/transport.hpp"

namespace {

using namespace dat::net;

OwnedMessage sample_message(MessageKind kind) {
  OwnedMessage m;
  m.kind = kind;
  m.request_id = 0x1122334455667788ull;
  m.method = method_id("chord.find_successor");
  Writer body;
  body.u64(0xDEADBEEF);
  body.str("payload");
  m.body = body.take();
  return m;
}

/// Reads the sample body the way its handler would: both fields, then the
/// end. Throws CodecError on anything else.
void read_sample_body(std::span<const std::uint8_t> body) {
  Reader r(body);
  (void)r.u64();
  (void)r.str();
  r.expect_end();
}

const MessageKind kAllKinds[] = {MessageKind::kRequest, MessageKind::kResponse,
                                 MessageKind::kOneWay};

TEST(CodecAdversarial, EveryTruncationYieldsTypedTruncatedError) {
  for (const MessageKind kind : kAllKinds) {
    const OwnedMessage original = sample_message(kind);
    const std::vector<std::uint8_t> wire = original.view().encode();
    const std::size_t header = wire.size() - original.body.size();
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const auto result = Message::try_decode(
          std::span<const std::uint8_t>(wire.data(), len));
      if (len < header) {
        // A prefix that cuts the header short: the kind byte itself is
        // untouched, so the only possible failure is truncation, and it
        // must point inside the prefix.
        ASSERT_FALSE(result.ok()) << "prefix length " << len;
        EXPECT_EQ(result.error.code, DecodeErrorCode::kTruncated)
            << "prefix length " << len;
        EXPECT_LE(result.error.offset, len) << "prefix length " << len;
        continue;
      }
      // A prefix that cuts the body decodes to a shorter body, which the
      // body decoder rejects as truncated.
      ASSERT_TRUE(result.ok()) << "prefix length " << len;
      try {
        read_sample_body(result.message->body);
        FAIL() << "truncated body of length " << len - header << " accepted";
      } catch (const CodecError& e) {
        EXPECT_EQ(e.error().code, DecodeErrorCode::kTruncated)
            << "prefix length " << len;
        EXPECT_LE(e.error().offset, len - header) << "prefix length " << len;
      }
    }
  }
}

TEST(CodecAdversarial, EveryBitFlipDecodesCleanlyOrFailsTyped) {
  for (const MessageKind kind : kAllKinds) {
    const std::vector<std::uint8_t> wire = sample_message(kind).view().encode();
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> mutated = wire;
        mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ (1u << bit));
        const auto result = Message::try_decode(mutated);
        if (result.ok()) continue;  // a valid alternative message is fine
        switch (result.error.code) {
          case DecodeErrorCode::kTruncated:
          case DecodeErrorCode::kBadKind:
          case DecodeErrorCode::kTrailingBytes:
          case DecodeErrorCode::kLengthOverflow:
          case DecodeErrorCode::kNonCanonical:
            break;
          default:
            FAIL() << "byte " << i << " bit " << bit
                   << ": unknown decode error code";
        }
        EXPECT_LE(result.error.offset, mutated.size())
            << "byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(CodecAdversarial, KindByteCorruptionReportsBadKind) {
  const std::vector<std::uint8_t> wire =
      sample_message(MessageKind::kRequest).view().encode();
  // Above the three plain kinds, the only meaningful leading bytes are an
  // error response and the trace-flagged kinds.
  const std::set<unsigned> valid{0x41, 0x80, 0x81, 0x82, 0xC1};
  for (unsigned v = 3; v < 256; ++v) {
    if (valid.contains(v)) continue;
    std::vector<std::uint8_t> mutated = wire;
    mutated[0] = static_cast<std::uint8_t>(v);
    const auto result = Message::try_decode(mutated);
    ASSERT_FALSE(result.ok()) << "kind byte " << v;
    EXPECT_EQ(result.error.code, DecodeErrorCode::kBadKind);
    EXPECT_EQ(result.error.offset, 0u);
  }
}

TEST(CodecAdversarial, TrailingBytesReported) {
  // A stray byte after a frame extends its body; the body decoder reports
  // it at the end of the clean body.
  for (const MessageKind kind : kAllKinds) {
    const OwnedMessage original = sample_message(kind);
    std::vector<std::uint8_t> wire = original.view().encode();
    wire.push_back(0x00);
    const auto result = Message::try_decode(wire);
    ASSERT_TRUE(result.ok());
    try {
      read_sample_body(result.message->body);
      FAIL() << "trailing byte accepted";
    } catch (const CodecError& e) {
      EXPECT_EQ(e.error().code, DecodeErrorCode::kTrailingBytes);
      EXPECT_EQ(e.error().offset, original.body.size());
    }
  }
}

TEST(CodecAdversarial, UnmutatedWireRoundTrips) {
  for (const MessageKind kind : kAllKinds) {
    const OwnedMessage original = sample_message(kind);
    const std::vector<std::uint8_t> wire = original.view().encode();
    auto result = Message::try_decode(wire);
    ASSERT_TRUE(result.ok()) << result.error.to_string();
    EXPECT_EQ(result.value().kind, original.kind);
    EXPECT_EQ(result.value().request_id,
              kind == MessageKind::kOneWay ? 0u : original.request_id);
    EXPECT_EQ(result.value().method,
              kind == MessageKind::kResponse ? 0u : original.method);
    EXPECT_TRUE(std::ranges::equal(result.value().body, original.body));
    EXPECT_EQ(result.value().encode(), wire);
  }
}

TEST(CodecAdversarial, ReaderSkipAndPositionBoundsChecked) {
  Writer w;
  w.u32(0xABCD);
  Reader r(w.data());
  EXPECT_EQ(r.position(), 0u);
  r.skip(2);
  EXPECT_EQ(r.position(), 2u);
  try {
    r.skip(3);  // only 2 bytes remain
    FAIL() << "skip past the end did not throw";
  } catch (const CodecError& e) {
    EXPECT_EQ(e.error().code, DecodeErrorCode::kTruncated);
    EXPECT_EQ(e.error().offset, 2u);
  }
  EXPECT_EQ(r.position(), 2u);  // failed skip must not advance
}

TEST(CodecAdversarial, ErrorStringsAreHumanReadable) {
  const DecodeError err{DecodeErrorCode::kTrailingBytes, 17};
  EXPECT_EQ(err.to_string(), "trailing-bytes at byte 17");
  const CodecError ex(err, "drain_socket");
  EXPECT_NE(std::string(ex.what()).find("drain_socket"), std::string::npos);
  EXPECT_NE(std::string(ex.what()).find("trailing-bytes"), std::string::npos);
}

}  // namespace
