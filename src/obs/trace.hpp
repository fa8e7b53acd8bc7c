#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace dat::obs {

/// One recorded operation in a causal trace: a named interval on one node,
/// linked to its cause by parent_span_id (which may live on another node —
/// the frame header carries {trace_id, span_id} across RPC hops, so a
/// receive span's parent is the sender's send span).
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  ///< 0 = trace root
  const char* name = "";             ///< static string (never freed)
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  /// Optional domain tags (aggregate key, epoch, peer) for trace viewers.
  std::uint64_t key = 0;
  std::uint64_t epoch = 0;
  std::uint64_t peer = 0;  ///< remote endpoint involved, if any
};

/// Per-node fixed-size span ring: always-on tracing with bounded memory.
/// New spans overwrite the oldest once the ring wraps — the recorder keeps
/// the recent flight history, like an aircraft FDR. Id generation is
/// deterministic per node (splitmix64 stream seeded from the node seed), so
/// simulated runs produce reproducible traces.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::uint64_t id_seed, std::size_t capacity = 4096);

  /// Fresh globally-unlikely-to-collide ids from this node's stream.
  [[nodiscard]] std::uint64_t new_trace_id();
  [[nodiscard]] std::uint64_t new_span_id();

  void record(const Span& span);

  /// Spans in record order (oldest first), optionally restricted to one
  /// trace id.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<Span> spans_for(std::uint64_t trace_id) const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total spans ever recorded (>= spans().size() once the ring wraps).
  [[nodiscard]] std::uint64_t recorded() const;

  void clear();

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Span> ring_;
  std::uint64_t recorded_ = 0;  // next write = recorded_ % capacity_
  std::uint64_t id_state_;
};

/// The ambient trace of the operation currently executing on a node.
/// RpcManager sets it while dispatching a traced message (so handlers —
/// and any RPCs they issue — inherit the caller's trace) and stamps it
/// onto outgoing messages. Confined to the node's event-loop thread, like
/// every other per-node structure.
class TraceContext {
 public:
  [[nodiscard]] bool active() const noexcept { return trace_id_ != 0; }
  [[nodiscard]] std::uint64_t trace_id() const noexcept { return trace_id_; }
  [[nodiscard]] std::uint64_t span_id() const noexcept { return span_id_; }

  void set(std::uint64_t trace_id, std::uint64_t span_id) noexcept {
    trace_id_ = trace_id;
    span_id_ = span_id;
  }
  void clear() noexcept { set(0, 0); }

  /// RAII save/set/restore, so nested dispatches unwind correctly.
  class Scope {
   public:
    Scope(TraceContext& ctx, std::uint64_t trace_id,
          std::uint64_t span_id) noexcept
        : ctx_(ctx), saved_trace_(ctx.trace_id_), saved_span_(ctx.span_id_) {
      ctx_.set(trace_id, span_id);
    }
    ~Scope() { ctx_.set(saved_trace_, saved_span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceContext& ctx_;
    std::uint64_t saved_trace_;
    std::uint64_t saved_span_;
  };

 private:
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
};

/// The telemetry bundle owned by one node: its metrics registry, flight
/// recorder and ambient trace context. Layers hold a pointer to this (the
/// owning node outlives its RPC manager and DAT state, which unregister
/// their collectors on destruction).
struct NodeTelemetry {
  explicit NodeTelemetry(std::uint64_t id_seed,
                         std::size_t recorder_capacity = 4096)
      : recorder(id_seed, recorder_capacity) {}

  MetricsRegistry registry;
  FlightRecorder recorder;
  TraceContext trace;
};

}  // namespace dat::obs
