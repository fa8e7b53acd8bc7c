#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dat::net {

/// Machine-readable classification of a decode failure. Every way a
/// malformed datagram can be rejected maps to exactly one code, so transport
/// layers can count and log rejections without string matching.
enum class DecodeErrorCode : std::uint8_t {
  kTruncated = 0,     ///< a field extends past the end of the buffer
  kBadKind = 1,       ///< unknown MessageKind discriminator
  kTrailingBytes = 2, ///< well-formed prefix followed by extra bytes
  kLengthOverflow = 3, ///< a length prefix exceeds representable bounds
  kNonCanonical = 4    ///< redundant bytes: an overlong varint, an empty pair
};

[[nodiscard]] constexpr const char* to_string(DecodeErrorCode code) noexcept {
  switch (code) {
    case DecodeErrorCode::kTruncated: return "truncated";
    case DecodeErrorCode::kBadKind: return "bad-kind";
    case DecodeErrorCode::kTrailingBytes: return "trailing-bytes";
    case DecodeErrorCode::kLengthOverflow: return "length-overflow";
    case DecodeErrorCode::kNonCanonical: return "non-canonical";
  }
  return "?";
}

/// Typed decode failure: what went wrong and where in the buffer. This is
/// the value carried by CodecError and returned by Message::try_decode, so
/// malformed input is always reported as data, never as UB.
struct DecodeError {
  DecodeErrorCode code = DecodeErrorCode::kTruncated;
  std::size_t offset = 0;  ///< byte offset at which decoding failed

  [[nodiscard]] std::string to_string() const {
    return std::string(net::to_string(code)) + " at byte " +
           std::to_string(offset);
  }
};

/// Raised when a Reader runs past the end of its buffer or encounters a
/// malformed field. RPC servers catch this and drop the datagram, the usual
/// posture for a UDP protocol. Carries the typed DecodeError.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(DecodeError error)
      : std::runtime_error("codec: " + error.to_string()), error_(error) {}

  CodecError(DecodeError error, const std::string& context)
      : std::runtime_error("codec: " + context + ": " + error.to_string()),
        error_(error) {}

  [[nodiscard]] const DecodeError& error() const noexcept { return error_; }

 private:
  DecodeError error_;
};

/// Bytes of the LEB128 varint encoding of `v`: 1 below 128, at most 10.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Append-only binary writer: little-endian fixed-width integers, LEB128
/// varints and length-prefixed byte strings. This is the wire format of the
/// paper's "RPC manager ... at the socket-level to send and receive UDP
/// packets".
///
/// Two modes: the default constructor owns its buffer (retrieve with
/// take()); the reference constructor appends into a caller-provided
/// vector whose capacity survives across messages, which is how the send
/// paths encode without a per-datagram allocation (Message::encode_into).
class Writer {
 public:
  Writer() : buf_(owned_) {}
  explicit Writer(std::vector<std::uint8_t>& out) : buf_(out) {}

  // datlint:allow(hot-path): appends into a capacity-retained buffer
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// LEB128 varint: 7 bits per byte, low group first.
  void varint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) u8(static_cast<std::uint8_t>(v | 0x80));
    u8(static_cast<std::uint8_t>(v));
  }

  /// Appends `s` as is, without a length prefix (a frame's trailing body).
  void raw(std::span<const std::uint8_t> s) {
    // datlint:allow(hot-path): appends into a capacity-retained buffer
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Length-prefixed (u32) byte string.
  void str(std::string_view s) {
    if (s.size() > UINT32_MAX) {
      throw CodecError({DecodeErrorCode::kLengthOverflow, buf_.size()},
                       "Writer::str");
    }
    u32(static_cast<std::uint32_t>(s.size()));
    // datlint:allow(hot-path): appends into a capacity-retained buffer
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void bytes(std::span<const std::uint8_t> s) {
    if (s.size() > UINT32_MAX) {
      throw CodecError({DecodeErrorCode::kLengthOverflow, buf_.size()},
                       "Writer::bytes");
    }
    u32(static_cast<std::uint32_t>(s.size()));
    // datlint:allow(hot-path): appends into a capacity-retained buffer
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buf_;
  }
  /// Owning mode only: moves the internal buffer out. Meaningless (returns
  /// an empty vector) when constructed over an external buffer.
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(owned_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    const std::size_t at = buf_.size();
    // datlint:allow(hot-path): appends into a capacity-retained buffer
    buf_.resize(at + sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::vector<std::uint8_t> owned_;
  std::vector<std::uint8_t>& buf_;
};

/// Sequential binary reader over a borrowed buffer; the mirror of Writer.
/// Every accessor is bounds-checked: reading past the end (or any malformed
/// length prefix) throws CodecError with a typed DecodeError — no read ever
/// touches memory outside the buffer.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take_le<std::uint8_t>(); }
  std::uint16_t u16() { return take_le<std::uint16_t>(); }
  std::uint32_t u32() { return take_le<std::uint32_t>(); }
  std::uint64_t u64() { return take_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(take_le<std::uint64_t>()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  bool boolean() { return u8() != 0; }

  /// LEB128 varint. Only the shortest encoding is accepted (a last byte
  /// of zero after the first is overlong, a tenth byte above 1 overflows),
  /// so every accepted varint re-encodes to the same bytes.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    if (const auto error = try_varint(v)) throw CodecError(*error);
    return v;
  }

  /// varint() without throwing, for parsers that report errors as values
  /// (the batch container). The position advances only on success.
  [[nodiscard]] std::optional<DecodeError> try_varint(
      std::uint64_t& out) noexcept {
    std::uint64_t v = 0;
    std::size_t at = pos_;
    for (unsigned shift = 0;; shift += 7) {
      if (at >= data_.size()) {
        return DecodeError{DecodeErrorCode::kTruncated, at};
      }
      const std::uint8_t b = data_[at++];
      if (shift == 63 && b > 1) {
        return DecodeError{DecodeErrorCode::kLengthOverflow, pos_};
      }
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        if (b == 0 && shift > 0) {
          return DecodeError{DecodeErrorCode::kNonCanonical, pos_};
        }
        out = v;
        pos_ = at;
        return std::nullopt;
      }
    }
  }

  /// Consumes the next `n` bytes and returns them as a view (no copy).
  std::span<const std::uint8_t> slice(std::size_t n) {
    require(n);
    const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Consumes every remaining byte and returns them as a view (no copy).
  std::span<const std::uint8_t> rest() noexcept {
    const std::span<const std::uint8_t> out = data_.subspan(pos_);
    pos_ = data_.size();
    return out;
  }

  std::string str() {
    const std::uint32_t len = u32();
    require(len);
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return out;
  }

  std::vector<std::uint8_t> bytes() {
    const std::uint32_t len = u32();
    require(len);
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  /// Advances past `n` bytes without copying them.
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

  /// Throws kTrailingBytes unless every byte has been consumed: a body
  /// decoder calls it so that only the exact encoding is accepted.
  void expect_end() const {
    if (!exhausted()) throw CodecError({DecodeErrorCode::kTrailingBytes, pos_});
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  void require(std::size_t n) const {
    // Overflow-safe form of `pos_ + n > data_.size()`: pos_ <= size() is an
    // invariant, so the subtraction cannot wrap.
    if (n > data_.size() - pos_) {
      throw CodecError({DecodeErrorCode::kTruncated, pos_});
    }
  }

  template <typename T>
  T take_le() {
    require(sizeof(T));
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace dat::net
