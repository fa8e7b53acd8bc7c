#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

/// Where a span's self time goes. Timer callbacks are sorted into chord,
/// dat, obs or net by what ran inside them and by the period that armed
/// them; the pump span's self time is the substrate (netio reactor or sim
/// engine) itself.
enum class Layer : std::uint8_t {
  kPump = 0,   ///< run_for / advance_until
  kSend,       ///< Transport::send
  kRecv,       ///< receive upcall (RPC dispatch + handler)
  kChord,      ///< stabilize / fix-fingers / check-predecessor timers
  kDat,        ///< timers in which the leaf closure ran (epoch push)
  kObs,        ///< selfmon tick and meta-tree push timers
  kNetTimer,   ///< every other timer (RPC timeouts, backoff, ...)
  kQuery,      ///< the load generator's call into DatNode::query_global
  kCount
};

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

/// One finished span, as written to the trace file.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< enclosing span; 0 at top level
  std::uint64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint32_t self_ns = 0;
  Layer layer = Layer::kPump;
};

/// In-memory span recorder for one single-threaded pump. Spans nest on a
/// stack; a span's self time is its duration minus what its children
/// covered. Per-layer totals cover every span; the first `keep` span
/// records are kept verbatim and written out when the run ends.
class Tracer {
 public:
  struct Totals {
    std::uint64_t spans = 0;
    std::uint64_t self_ns = 0;
  };

  /// Timer period bands: a timer armed with a delay in [lo_us, hi_us] is
  /// attributed to `layer` unless the leaf closure ran inside it.
  struct Band {
    std::uint64_t lo_us;
    std::uint64_t hi_us;
    Layer layer;
  };

  explicit Tracer(std::size_t keep = 1u << 18);

  void set_bands(std::vector<Band> bands) { bands_ = std::move(bands); }
  [[nodiscard]] Layer classify_timer(std::uint64_t delay_us) const noexcept;

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Drops totals and kept records (the stack must be empty); call after
  /// set_enabled(true) so the record buffer is reserved up front.
  void reset();

  void enter() noexcept;
  void leave(Layer layer) noexcept;
  /// Timer spans: the layer is decided at leave time from the leaf flag.
  void enter_timer() noexcept;
  void leave_timer(Layer by_period) noexcept;

  /// Called by the benchmark's leaf closure.
  void note_leaf() noexcept { leaf_ran_ = true; }

  [[nodiscard]] const Totals& totals(Layer layer) const noexcept {
    return totals_[static_cast<std::size_t>(layer)];
  }
  /// Durations (ns) of callbacks run directly by the pump: the time each
  /// one blocked the single pump thread.
  [[nodiscard]] std::vector<std::uint32_t>& top_callbacks() noexcept {
    return top_callbacks_;
  }
  [[nodiscard]] const std::vector<SpanRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t dropped_records() const noexcept {
    return dropped_records_;
  }

  /// Writes the kept spans as CSV (id,parent,layer,start_ns,dur_ns,self_ns).
  bool write_csv(const std::string& path) const;

 private:
  struct Frame {
    std::uint64_t id;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    bool saved_leaf;
  };

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  bool enabled_ = false;
  bool leaf_ran_ = false;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Band> bands_;
  std::vector<Frame> stack_;
  std::array<Totals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::vector<std::uint32_t> top_callbacks_;
  std::vector<SpanRecord> records_;
  std::size_t keep_;
  std::uint64_t dropped_records_ = 0;
  std::uint64_t next_id_ = 1;
};

/// Transport decorator: forwards every call to the node's real transport
/// and, while the tracer is enabled, turns each crossing of the boundary
/// into a span — send(), each receive upcall and each timer callback.
/// Disabled, it is a pass-through (one extra virtual call, plus one
/// wrapper closure per timer).
class TracedTransport final : public dat::net::Transport {
 public:
  TracedTransport(dat::net::Transport& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  TracedTransport(const TracedTransport&) = delete;
  TracedTransport& operator=(const TracedTransport&) = delete;

  [[nodiscard]] dat::net::Endpoint local() const override {
    return inner_.local();
  }
  void send(dat::net::Endpoint to, const dat::net::Message& msg) override;
  void set_receive_handler(ReceiveHandler handler) override;
  dat::net::TimerId set_timer(std::uint64_t delay_us,
                              std::function<void()> cb) override;
  void cancel_timer(dat::net::TimerId id) override { inner_.cancel_timer(id); }
  [[nodiscard]] std::uint64_t now_us() const override {
    return inner_.now_us();
  }

 private:
  dat::net::Transport& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
