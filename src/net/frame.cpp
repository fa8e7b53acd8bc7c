#include "net/frame.hpp"

namespace dat::net {

void begin_batch(std::vector<std::uint8_t>& dgram) {
  dgram.clear();
  // `dgram` is an arena-pooled buffer whose capacity survives
  // release/acquire; steady-state appends never allocate.
  // datlint:allow(hot-path): appends into an arena-pooled buffer
  dgram.push_back(kBatchMagic);
  // datlint:allow(hot-path): appends into an arena-pooled buffer
  dgram.push_back(kBatchVersion);
}

void append_batch_frame(std::vector<std::uint8_t>& dgram,
                        std::span<const std::uint8_t> frame) {
  Writer w(dgram);
  w.varint(frame.size());
  w.raw(frame);
}

}  // namespace dat::net
