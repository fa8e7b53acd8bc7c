// Micro-benchmarks (google-benchmark) of the hot paths underneath the
// experiments: SHA-1 hashing, wire codec round-trips, the dat.update frame
// (encode, decode, RPC dispatch), routing next-hop selection, full tree
// construction, and the event queue. The codec and frame entries also
// report heap allocations per operation (allocs_per_op). Results land in
// BENCH_micro.json (google-benchmark's JSON schema, tagged with the git
// sha, build type and core count) for CI artifact archival.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "chord/id_assignment.hpp"
#include "chord/ring_view.hpp"
#include "chord/routing.hpp"
#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "dat/tree.hpp"
#include "dat/wire.hpp"
#include "net/rpc.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

// Every operator new in this binary bumps one counter, so a benchmark can
// report its heap allocations per operation.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line, like the deletes below: inlined, the compiler would see
// free() meet a pointer it knows came from operator new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace dat;

/// Runs the benchmark loop body `op` and records allocs_per_op.
template <typename Op>
void run_counting_allocations(benchmark::State& state, Op op) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (auto _ : state) op();
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          before),
      benchmark::Counter::kAvgIterations);
}

/// A MIN-tree update as a 64-node fleet with 32-bit ids sends it.
core::UpdateBody sample_update() {
  core::AggState state = core::AggState::of(1.5e6);
  for (int i = 0; i < 11; ++i) state.merge(core::AggState::of(1.6e6));
  return core::UpdateBody{0x9abcdef0, core::AggregateKind::kMin, 1,
                          0x12345678, state};
}

/// Encodes the sample update as a one-way dat.update frame into `frame`,
/// through the retained `body` buffer — the send path's steps.
void encode_update_frame(const core::UpdateBody& update,
                         std::vector<std::uint8_t>& body,
                         std::vector<std::uint8_t>& frame) {
  body.clear();
  net::Writer w(body);
  core::write_update(w, update);
  net::Message msg;
  msg.method = net::method_id("dat.update");
  msg.body = body;
  msg.encode_into(frame);
}

/// A transport that sends nowhere and hands inbound frames straight to its
/// receive handler: RPC dispatch with no network underneath.
class DirectTransport final : public net::Transport {
 public:
  [[nodiscard]] net::Endpoint local() const override { return 1; }
  void send(net::Endpoint, const net::Message&) override {}
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  net::TimerId set_timer(std::uint64_t, std::function<void()>) override {
    return 0;
  }
  void cancel_timer(net::TimerId) override {}
  [[nodiscard]] std::uint64_t now_us() const override { return 0; }
  void deliver(net::Endpoint from, const net::Message& msg) {
    handler_(from, msg);
  }

 private:
  ReceiveHandler handler_;
};

void BM_Sha1HashToId(benchmark::State& state) {
  const IdSpace space(32);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Sha1::hash_to_id("node:" + std::to_string(i++), space));
  }
}
BENCHMARK(BM_Sha1HashToId);

void BM_MessageCodecRoundTrip(benchmark::State& state) {
  net::Writer w;
  w.u64(123456789);
  w.f64(3.14);
  w.str("payload-payload-payload");
  net::Message msg;
  msg.method = net::method_id("chord.lookup_step");
  msg.kind = net::MessageKind::kRequest;
  msg.request_id = 77;
  msg.body = w.data();
  std::vector<std::uint8_t> wire;
  run_counting_allocations(state, [&] {
    msg.encode_into(wire);
    benchmark::DoNotOptimize(net::Message::decode(wire));
  });
}
BENCHMARK(BM_MessageCodecRoundTrip);

void BM_UpdateFrameEncode(benchmark::State& state) {
  const core::UpdateBody update = sample_update();
  std::vector<std::uint8_t> body;
  std::vector<std::uint8_t> frame;
  run_counting_allocations(state, [&] {
    encode_update_frame(update, body, frame);
    benchmark::DoNotOptimize(frame.data());
  });
  state.counters["frame_bytes"] = static_cast<double>(frame.size());
}
BENCHMARK(BM_UpdateFrameEncode);

void BM_UpdateFrameDecode(benchmark::State& state) {
  std::vector<std::uint8_t> body;
  std::vector<std::uint8_t> frame;
  encode_update_frame(sample_update(), body, frame);
  run_counting_allocations(state, [&] {
    const net::MessageDecodeResult decoded = net::Message::try_decode(frame);
    net::Reader r(decoded.message->body);
    benchmark::DoNotOptimize(core::read_update(r));
  });
}
BENCHMARK(BM_UpdateFrameDecode);

void BM_UpdateFrameDispatch(benchmark::State& state) {
  // Decode, look the method id up in RpcManager's table and run a handler
  // that reads the update and keeps its state, as DatNode does.
  std::vector<std::uint8_t> body;
  std::vector<std::uint8_t> frame;
  encode_update_frame(sample_update(), body, frame);
  DirectTransport transport;
  net::RpcManager rpc(transport);
  core::AggState kept;
  rpc.register_one_way("dat.update", [&kept](net::Endpoint, net::Reader& r) {
    kept = core::read_update(r).state;
  });
  run_counting_allocations(state, [&] {
    const net::MessageDecodeResult decoded = net::Message::try_decode(frame);
    transport.deliver(2, *decoded.message);
  });
  benchmark::DoNotOptimize(kept);
}
BENCHMARK(BM_UpdateFrameDispatch);

void BM_NextHopBalanced(benchmark::State& state) {
  const IdSpace space(32);
  Rng rng(1);
  const auto ids = chord::probed_ids(space, 4096, rng);
  const chord::RingView ring(space, ids);
  const auto fingers = ring.finger_ids(ids[100]);
  const Id key = rng.next_id(space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chord::next_hop_balanced(
        space, ids[100], key, fingers, false, space.size(), ids.size()));
  }
}
BENCHMARK(BM_NextHopBalanced);

void BM_TreeBuild(benchmark::State& state) {
  const IdSpace space(32);
  Rng rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ids = chord::probed_ids(space, n, rng);
  const chord::RingView ring(space, ids);
  for (auto _ : state) {
    core::Tree tree(ring, 12345, chord::RoutingScheme::kBalanced);
    benchmark::DoNotOptimize(tree.max_branching());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TreeBuild)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_MetricsCounterInc(benchmark::State& state) {
  // The instrumented-hot-path cost every layer pays per event: one relaxed
  // atomic add through a borrowed instrument pointer.
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("bench_counter_total");
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("bench_hist");
  std::uint64_t v = 1;
  for (auto _ : state) {
    hist.observe(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG spread
  }
  benchmark::DoNotOptimize(hist.sum());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    std::uint64_t fired = 0;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule_at(static_cast<sim::SimTime>((i * 7919) % 1000),
                        [&fired]() { ++fired; });
    }
    while (!queue.empty()) queue.run_next();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueueChurn);

}  // namespace

#ifndef DAT_GIT_SHA
#define DAT_GIT_SHA "unknown"
#endif
#ifndef DAT_BUILD_TYPE
#define DAT_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  benchmark::AddCustomContext("git_sha", DAT_GIT_SHA);
  benchmark::AddCustomContext("suite", "micro");
  benchmark::AddCustomContext("build_type", DAT_BUILD_TYPE);
  benchmark::AddCustomContext(
      "nproc", std::to_string(std::thread::hardware_concurrency()));
  // Default the JSON artifact on (console output stays untouched); an
  // explicit --benchmark_out on the command line wins.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  const bool has_out = std::any_of(
      args.begin(), args.end(), [](const char* arg) {
        return std::string_view(arg).starts_with("--benchmark_out=");
      });
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
