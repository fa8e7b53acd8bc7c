// Throughput of the netio epoll reactor on the paper's loopback testbed
// shape: 64 live instances in one process, each holding a window of echo
// RPCs against its ring neighbor. Reports msgs/sec, syscalls/msg and
// p50/p99 RPC latency at 1/2/4 shards with coalescing on and off, and the
// best configuration's gain over netio-1shard-raw, then writes the whole
// table to BENCH_netio.json (see bench/json_out.hpp).
//
// Usage: bench_netio_throughput [--quick] [--nodes N] [--seconds S]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "json_out.hpp"
#include "net/rpc.hpp"
#include "netio/reactor_pool.hpp"


namespace {

using namespace dat;

struct NodeCtx {
  net::Transport* transport = nullptr;
  std::unique_ptr<net::RpcManager> rpc;
  net::Endpoint peer = net::kNullEndpoint;
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::uint64_t> latencies_us;  // shard-confined until joined
};

struct RunResult {
  std::string name;
  unsigned shards = 0;
  bool coalesce = false;
  double elapsed_s = 0;
  std::uint64_t completed = 0;   ///< echo round trips in the window
  double msgs_per_sec = 0;       ///< request+response frames per second
  double syscalls_per_msg = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t coalesced_datagrams_out = 0;
};

net::RpcOptions bench_rpc_options() {
  net::RpcOptions options;
  options.timeout_us = 5'000'000;  // loopback: losses are scheduler stalls
  options.attempts = 1;            // no retransmissions polluting the counts
  return options;
}

/// Issues one echo call and re-issues from its completion, keeping the
/// node's window full until `stop` is raised.
void issue(NodeCtx& ctx, const std::atomic<bool>& stop) {
  const std::uint64_t start = ctx.transport->now_us();
  net::Writer body;
  body.u64(start);
  ctx.rpc->call(
      ctx.peer, "echo", body,
      [&ctx, &stop, start](net::RpcStatus status, net::Reader&) {
        if (status == net::RpcStatus::kOk) {
          ctx.latencies_us.push_back(ctx.transport->now_us() - start);
          ctx.completed.fetch_add(1, std::memory_order_relaxed);
        }
        if (!stop.load(std::memory_order_relaxed)) issue(ctx, stop);
      },
      bench_rpc_options());
}

std::vector<std::unique_ptr<NodeCtx>> make_ring(
    const std::vector<net::Transport*>& transports) {
  std::vector<std::unique_ptr<NodeCtx>> ctxs;
  ctxs.reserve(transports.size());
  for (net::Transport* t : transports) {
    auto ctx = std::make_unique<NodeCtx>();
    ctx->transport = t;
    ctx->rpc = std::make_unique<net::RpcManager>(*t);
    ctx->rpc->register_method(
        "echo", [](net::Endpoint, net::Reader& req, net::Writer& reply) {
          reply.u64(req.u64());
        });
    ctx->latencies_us.reserve(1 << 16);
    ctxs.push_back(std::move(ctx));
  }
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    ctxs[i]->peer = transports[(i + 1) % transports.size()]->local();
  }
  return ctxs;
}

std::uint64_t total_completed(
    const std::vector<std::unique_ptr<NodeCtx>>& ctxs) {
  std::uint64_t total = 0;
  for (const auto& ctx : ctxs) {
    total += ctx->completed.load(std::memory_order_relaxed);
  }
  return total;
}

void finish(RunResult& result, std::uint64_t completed, double elapsed_s,
            std::uint64_t syscalls,
            std::vector<std::unique_ptr<NodeCtx>>& ctxs) {
  result.completed = completed;
  result.elapsed_s = elapsed_s;
  const double msgs = 2.0 * static_cast<double>(completed);  // req + resp
  result.msgs_per_sec = elapsed_s > 0 ? msgs / elapsed_s : 0;
  result.syscalls = syscalls;
  result.syscalls_per_msg =
      msgs > 0 ? static_cast<double>(syscalls) / msgs : 0;
  std::vector<std::uint64_t> latencies;
  for (auto& ctx : ctxs) {
    latencies.insert(latencies.end(), ctx->latencies_us.begin(),
                     ctx->latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    result.p50_us = static_cast<double>(latencies[latencies.size() / 2]);
    result.p99_us =
        static_cast<double>(latencies[latencies.size() * 99 / 100]);
  }
}

RunResult run_netio(std::size_t nodes, unsigned window, unsigned shards,
                    bool coalesce, std::uint64_t duration_us) {
  RunResult result;
  result.name = "netio-" + std::to_string(shards) + "shard-" +
                (coalesce ? std::string("coalesce") : std::string("raw"));
  result.shards = shards;
  result.coalesce = coalesce;

  netio::ReactorPoolOptions options;
  options.shards = shards;
  options.reactor.coalesce = coalesce;
  netio::ReactorPool pool(options);
  std::vector<net::Transport*> transports;
  transports.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    transports.push_back(&pool.add_node());
  }
  auto ctxs = make_ring(transports);

  std::atomic<bool> stop{false};
  pool.start();
  for (auto& ctx : ctxs) {
    NodeCtx* raw = ctx.get();
    // RpcManager and the latency vector are shard-confined; the window is
    // opened from the node's own shard.
    pool.shard_of(raw->transport->local())->post([raw, &stop, window] {
      for (unsigned w = 0; w < window; ++w) issue(*raw, stop);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  const netio::ReactorCounters before = pool.counters();
  const std::uint64_t completed_before = total_completed(ctxs);
  std::this_thread::sleep_for(std::chrono::microseconds(duration_us));
  const std::uint64_t completed =
      total_completed(ctxs) - completed_before;
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  netio::ReactorCounters during = pool.counters();
  stop.store(true, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  pool.stop();

  result.datagrams_out = during.datagrams_out - before.datagrams_out;
  result.frames_out = during.frames_out - before.frames_out;
  result.coalesced_datagrams_out =
      during.coalesced_datagrams_out - before.coalesced_datagrams_out;
  const std::uint64_t syscalls =
      (during.epoll_waits - before.epoll_waits) +
      (during.recv_syscalls - before.recv_syscalls) +
      (during.send_syscalls - before.send_syscalls);
  finish(result, completed, elapsed_s, syscalls, ctxs);
  return result;
}

void print_row(const RunResult& r) {
  std::printf("%-22s %12.0f msgs/s  %6.2f syscalls/msg  p50 %7.0f us  "
              "p99 %7.0f us  (%llu round trips)\n",
              r.name.c_str(), r.msgs_per_sec, r.syscalls_per_msg, r.p50_us,
              r.p99_us, static_cast<unsigned long long>(r.completed));
}

benchjson::Object to_json(const RunResult& r) {
  benchjson::Object o;
  o.put("name", r.name)
      .put("shards", r.shards)
      .put("coalesce", r.coalesce)
      .put("elapsed_s", r.elapsed_s)
      .put("round_trips", r.completed)
      .put("msgs_per_sec", r.msgs_per_sec)
      .put("syscalls_per_msg", r.syscalls_per_msg)
      .put("p50_us", r.p50_us)
      .put("p99_us", r.p99_us)
      .put("syscalls", r.syscalls)
      .put("datagrams_out", r.datagrams_out)
      .put("frames_out", r.frames_out)
      .put("coalesced_datagrams_out", r.coalesced_datagrams_out);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t nodes = 64;
  double seconds = 2.0;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--nodes N] [--seconds S]\n", argv[0]);
      return 2;
    }
  }
  if (quick) seconds = std::min(seconds, 0.4);
  const auto duration_us = static_cast<std::uint64_t>(seconds * 1e6);
  constexpr unsigned kWindow = 16;

  std::printf("netio throughput: %zu nodes, window %u, %.1fs per config, "
              "mmsg %s\n\n",
              nodes, kWindow, seconds,
              netio::mmsg_compiled() ? "compiled" : "unavailable");

  std::vector<RunResult> results;
  for (const unsigned shards : {1u, 2u, 4u}) {
    for (const bool coalesce : {false, true}) {
      results.push_back(
          run_netio(nodes, kWindow, shards, coalesce, duration_us));
      print_row(results.back());
    }
  }

  // results.front() is netio-1shard-raw: one event loop, one frame per
  // datagram, so best / front prices what coalescing and shards add.
  const double raw_rate = results.front().msgs_per_sec;
  const RunResult& best = *std::max_element(
      results.begin(), results.end(),
      [](const RunResult& a, const RunResult& b) {
        return a.msgs_per_sec < b.msgs_per_sec;
      });
  const double speedup = raw_rate > 0 ? best.msgs_per_sec / raw_rate : 0;
  std::printf("\nbest config: %s at %.2fx %s\n", best.name.c_str(), speedup,
              results.front().name.c_str());

  benchjson::Object config;
  config.put("nodes", static_cast<std::uint64_t>(nodes))
      .put("window", kWindow)
      .put("seconds_per_config", seconds)
      .put("quick", quick)
      .put("mmsg_compiled", netio::mmsg_compiled());
  std::vector<benchjson::Object> rows;
  rows.reserve(results.size());
  for (const RunResult& r : results) rows.push_back(to_json(r));
  benchjson::Object root = benchjson::envelope("netio_throughput");
  root.put("config", config)
      .put("results", rows)
      .put("best", best.name)
      .put("speedup_best_vs_1shard_raw", speedup);
  const std::string path = benchjson::write_suite("netio", root);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
