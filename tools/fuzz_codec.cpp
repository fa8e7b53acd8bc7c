// Fuzz harness for the wire codec: the Message frame header, the batch
// container, the Reader primitives and every DAT body decoder reachable
// from the network (the kind-shaped AggState of each aggregate kind, whole
// dat.update / dat.handoff / dat.retract bodies, the full AggState and the
// root answer), driven by arbitrary bytes. Built behind DAT_FUZZ.
//
// Under Clang the target links libFuzzer (-fsanitize=fuzzer) and explores
// inputs coverage-guided; under other compilers the same harness compiles
// with a standalone driver that replays corpus files given on the command
// line, which is how the checked-in crash corpus regression-runs in CI.
//
// Any crash found here must be distilled into tests/test_codec_fuzz_regressions.cpp
// (and the input dropped into tools/fuzz/corpus/) before the fix lands.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dat/aggregate.hpp"
#include "dat/wire.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"

namespace {

// Exercises the primitive Reader accessors in a data-driven order: the first
// byte of each step selects the accessor, so the fuzzer can reach every
// decode path, including nested length prefixes.
void fuzz_reader_primitives(std::span<const std::uint8_t> data) {
  dat::net::Reader r(data);
  try {
    while (!r.exhausted()) {
      switch (r.u8() % 9) {
        case 0: (void)r.u8(); break;
        case 1: (void)r.u16(); break;
        case 2: (void)r.u32(); break;
        case 3: (void)r.u64(); break;
        case 4: (void)r.i64(); break;
        case 5: (void)r.f64(); break;
        case 6: (void)r.str(); break;
        case 7: (void)r.bytes(); break;
        case 8: (void)r.varint(); break;
      }
    }
  } catch (const dat::net::CodecError&) {
    // Expected rejection of malformed input — the invariant under test is
    // "typed error or success, never UB".
  }
}

void fuzz_message_decode(std::span<const std::uint8_t> data) {
  const dat::net::MessageDecodeResult result =
      dat::net::Message::try_decode(data);
  if (result.ok()) {
    // Round-trip invariant: anything that decodes must re-encode to the
    // exact input bytes (the format has a unique encoding).
    const std::vector<std::uint8_t> wire = result.message->encode();
    if (wire.size() != data.size() ||
        !std::equal(wire.begin(), wire.end(), data.begin())) {
      __builtin_trap();
    }
  }
}

// The batch container: a datagram it splits without error must rebuild,
// frame by frame, into exactly the input bytes (varint lengths are
// canonical).
void fuzz_batch_split(std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> rebuilt;
  dat::net::begin_batch(rebuilt);
  const auto error = dat::net::split_batch(
      data, [&](std::span<const std::uint8_t> frame) {
        fuzz_message_decode(frame);
        dat::net::append_batch_frame(rebuilt, frame);
      });
  if (!error && (rebuilt.size() != data.size() ||
                 !std::equal(rebuilt.begin(), rebuilt.end(), data.begin()))) {
    __builtin_trap();
  }
}

// A body decoder reachable from the network, held to the same round-trip
// invariant as Message: whatever it accepts must re-encode to exactly the
// bytes it consumed. Malformed input must end in a typed CodecError.
template <typename Read, typename Write>
void fuzz_body_decode(std::span<const std::uint8_t> data, Read read,
                      Write write) {
  dat::net::Reader r(data);
  try {
    const auto value = read(r);
    dat::net::Writer w;
    write(w, value);
    const std::vector<std::uint8_t>& wire = w.data();
    if (wire.size() != r.position() ||
        !std::equal(wire.begin(), wire.end(), data.begin())) {
      __builtin_trap();
    }
  } catch (const dat::net::CodecError&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);
  namespace core = dat::core;
  using dat::net::Reader;
  using dat::net::Writer;
  fuzz_message_decode(input);
  fuzz_batch_split(input);
  fuzz_reader_primitives(input);
  for (std::uint8_t raw = 0;
       raw <= static_cast<std::uint8_t>(core::AggregateKind::kHistogram);
       ++raw) {
    const auto kind = static_cast<core::AggregateKind>(raw);
    fuzz_body_decode(
        input, [kind](Reader& r) { return core::read_agg_state(r, kind); },
        [kind](Writer& w, const core::AggState& s) {
          core::write_agg_state(w, kind, s);
        });
  }
  fuzz_body_decode(input, core::read_update, core::write_update);
  fuzz_body_decode(input, core::read_handoff, core::write_handoff);
  fuzz_body_decode(input, core::read_retract, core::write_retract);
  fuzz_body_decode(
      input, [](Reader& r) { return core::read_agg_state(r); },
      [](Writer& w, const core::AggState& s) { core::write_agg_state(w, s); });
  fuzz_body_decode(input, core::read_global_value, core::write_global_value);
  return 0;
}

#if !defined(DAT_FUZZ_LIBFUZZER)
// Standalone replay driver: feeds each file named on the command line (or
// stdin when none) through the harness once. Exit 0 means no crash.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <vector>

int main(int argc, char** argv) {
  std::size_t ran = 0;
  if (argc < 2) {
    std::vector<std::uint8_t> input(std::istreambuf_iterator<char>(std::cin),
                                    std::istreambuf_iterator<char>{});
    LLVMFuzzerTestOneInput(input.data(), input.size());
    ran = 1;
  } else {
    for (int i = 1; i < argc; ++i) {
      std::ifstream in(argv[i], std::ios::binary);
      if (!in) {
        std::cerr << "fuzz_codec: cannot open " << argv[i] << "\n";
        return 2;
      }
      std::vector<std::uint8_t> input(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>{});
      LLVMFuzzerTestOneInput(input.data(), input.size());
      ++ran;
    }
  }
  std::printf("fuzz_codec: replayed %zu input(s), no crash\n", ran);
  return 0;
}
#endif
