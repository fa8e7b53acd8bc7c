// datctl — command-line driver for libdat experiments.
//
//   datctl tree    --n 1024 --scheme balanced --assign probed   tree properties
//   datctl load    --n 512                                      message-load profiles
//   datctl lookup  --n 64 --queries 50 --mode recursive         live lookups + hop stats
//   datctl monitor --n 128 --minutes 10 --epoch 1.0             trace-driven monitoring run
//   datctl churn   --n 96 --events 12                           churn scenario
//   datctl inspect --n 32 --slot 5                               dump a node's tables
//   datctl metrics --n 8 --run 2.0 --format prom                 live telemetry dump
//   datctl trace   --n 32 --epochs 8 --out wave.json             Chrome trace of a wave
//   datctl rebalance --n 24 --assign random --rounds 20          runtime rebalancer rounds
//   datctl remote status --target 127.0.0.1:9400                 live datd health
//   datctl remote metrics --target 127.0.0.1:9400 --format prom  scrape a daemon
//   datctl remote leave --target 127.0.0.1:9401                  drain + clean exit
//   datctl remote rebalance --target 127.0.0.1:9401              one shed round
//   datctl remote alerts --target 127.0.0.1:9400                 SLO alert states
//   datctl top --target 127.0.0.1:9400 --once                    fleet view off one node
//   datctl promcheck --file page.prom                            lint a metrics page
//
// Every subcommand prints a compact table on stdout; --help lists flags.
// SIGINT/SIGTERM abort long runs between rounds: transports shut down
// through the normal destructors and the exit code is 130.

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/message_load.hpp"
#include "analysis/tree_metrics.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "datd/admin.hpp"
#include "datd/config.hpp"
#include "datd/signals.hpp"
#include "harness/live_tree.hpp"
#include "harness/sim_cluster.hpp"
#include "harness/udp_cluster.hpp"
#include "lb/rebalancer.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/selfmon.hpp"
#include "trace/cpu_trace.hpp"

namespace {

using namespace dat;

chord::RoutingScheme parse_scheme(const std::string& text) {
  if (text == "basic" || text == "greedy") return chord::RoutingScheme::kGreedy;
  if (text == "balanced") return chord::RoutingScheme::kBalanced;
  throw std::invalid_argument("unknown scheme: " + text +
                              " (use basic|balanced)");
}

chord::IdAssignment parse_assignment(const std::string& text) {
  if (text == "random") return chord::IdAssignment::kRandom;
  if (text == "probed") return chord::IdAssignment::kProbed;
  if (text == "even") return chord::IdAssignment::kEven;
  throw std::invalid_argument("unknown assignment: " + text +
                              " (use random|probed|even)");
}

int cmd_tree(CliFlags& flags) {
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const auto scheme = parse_scheme(flags.get_string("scheme"));
  const auto assignment = parse_assignment(flags.get_string("assign"));
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const auto props = analysis::measure_tree_properties(
      static_cast<unsigned>(flags.get_int("bits")), n, scheme, assignment,
      static_cast<unsigned>(flags.get_int("trials")),
      static_cast<unsigned>(flags.get_int("keys")), rng);
  std::printf("n=%zu scheme=%s assign=%s\n", n, chord::to_string(scheme),
              chord::to_string(assignment));
  std::printf("  max branching:   %zu\n", props.max_branching);
  std::printf("  avg branching:   %.2f (internal nodes)\n",
              props.avg_branching_internal);
  std::printf("  tree height:     %u\n", props.height);
  std::printf("  gap ratio:       %.2f\n", props.gap_ratio);
  return 0;
}

int cmd_load(CliFlags& flags) {
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const IdSpace space(static_cast<unsigned>(flags.get_int("bits")));
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const chord::RingView ring(space, chord::probed_ids(space, n, rng));
  const Id key = rng.next_id(space);
  std::printf("%-20s %8s %8s %10s\n", "scheme", "max", "avg", "imbalance");
  for (const auto scheme :
       {analysis::AggregationScheme::kCentralizedDirect,
        analysis::AggregationScheme::kCentralizedRouted,
        analysis::AggregationScheme::kBasicDat,
        analysis::AggregationScheme::kBalancedDat}) {
    const auto profile = analysis::message_load(ring, key, scheme);
    std::printf("%-20s %8llu %8.2f %10.2f\n", analysis::to_string(scheme),
                static_cast<unsigned long long>(profile.max()),
                profile.average(), profile.imbalance());
  }
  return 0;
}

int cmd_lookup(CliFlags& flags) {
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const auto queries = static_cast<unsigned>(flags.get_int("queries"));
  const bool recursive = flags.get_string("mode") == "recursive";

  harness::ClusterOptions options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.with_dat = false;
  harness::SimCluster cluster(n, std::move(options));
  if (!cluster.wait_converged(600'000'000)) {
    std::fprintf(stderr, "overlay failed to converge\n");
    return 1;
  }
  const chord::RingView ring = cluster.ring_view();
  Rng rng(7);
  RunningStats hops;
  unsigned correct = 0;
  for (unsigned q = 0; q < queries; ++q) {
    const Id key = rng.next_id(cluster.space());
    const Id expected = ring.successor(key);
    bool done = false;
    chord::NodeRef found;
    unsigned hop_count = 0;
    auto handler = [&](net::RpcStatus st, chord::NodeRef node, unsigned h) {
      done = true;
      if (st == net::RpcStatus::kOk) {
        found = node;
        hop_count = h;
      }
    };
    chord::Node& origin = cluster.node(q % n);
    if (recursive) {
      origin.find_successor_recursive(key, handler);
    } else {
      origin.find_successor_traced(key, handler);
    }
    const auto deadline = cluster.engine().now() + 10'000'000;
    while (!done && cluster.engine().now() < deadline) {
      cluster.engine().run_steps(128);
    }
    if (done && found.id == expected) {
      ++correct;
      hops.add(hop_count);
    }
  }
  std::printf("mode=%s n=%zu\n", recursive ? "recursive" : "iterative", n);
  std::printf("  correct:   %u/%u\n", correct, queries);
  std::printf("  hops:      mean %.2f, max %.0f (log2 n = %.1f)\n",
              hops.mean(), hops.max(),
              std::log2(static_cast<double>(n)));
  return 0;
}

int cmd_monitor(CliFlags& flags) {
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const double minutes = flags.get_double("minutes");
  const auto epoch_us =
      static_cast<std::uint64_t>(flags.get_double("epoch") * 1e6);

  harness::ClusterOptions options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.dat.epoch_us = epoch_us;
  harness::SimCluster cluster(n, std::move(options));
  if (!cluster.wait_converged(600'000'000)) {
    std::fprintf(stderr, "overlay failed to converge\n");
    return 1;
  }
  const trace::CpuTrace cpu =
      trace::CpuTrace::synthesize(trace::TraceConfig{}, 13);
  sim::Engine& engine = cluster.engine();
  const std::uint64_t t0 = engine.now();
  Id key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    key = cluster.dat(i).start_aggregate(
        "cpu-usage", core::AggregateKind::kAvg,
        chord::RoutingScheme::kBalanced,
        [&engine, &cpu, t0]() { return cpu.at((engine.now() - t0) / 1e6); });
  }
  cluster.run_for(12 * epoch_us);
  std::printf("%8s %12s %12s %8s\n", "t(min)", "actual-avg", "agg-avg",
              "nodes");
  for (int minute = 1; minute <= static_cast<int>(minutes); ++minute) {
    if (datd::pending_signal() != 0) break;
    cluster.run_for(60'000'000);
    const Id root_id = cluster.ring_view().successor(key);
    for (std::size_t i = 0; i < n; ++i) {
      if (cluster.node(i).id() != root_id) continue;
      if (const auto g = cluster.dat(i).latest(key)) {
        std::printf("%8d %12.1f %12.1f %8llu\n", minute,
                    cpu.at((engine.now() - t0) / 1e6),
                    g->state.result(core::AggregateKind::kAvg),
                    static_cast<unsigned long long>(g->state.count));
      }
    }
  }
  return 0;
}

int cmd_inspect(CliFlags& flags) {
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const auto slot = static_cast<std::size_t>(flags.get_int("slot"));
  harness::ClusterOptions options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.with_dat = false;
  harness::SimCluster cluster(n, std::move(options));
  if (!cluster.wait_converged(600'000'000)) {
    std::fprintf(stderr, "overlay failed to converge\n");
    return 1;
  }
  if (slot >= cluster.slot_count() || !cluster.is_live(slot)) {
    std::fprintf(stderr, "slot %zu is not live\n", slot);
    return 1;
  }
  std::fputs(cluster.node(slot).describe().c_str(), stdout);
  const chord::RingView ring = cluster.ring_view();
  std::printf("  converged against ground truth: %s\n",
              cluster.node(slot).converged_against(ring) ? "yes" : "no");
  return 0;
}

int cmd_churn(CliFlags& flags) {
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const auto events = static_cast<unsigned>(flags.get_int("events"));

  harness::ClusterOptions options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.dat.epoch_us = 500'000;
  harness::SimCluster cluster(n, std::move(options));
  if (!cluster.wait_converged(600'000'000)) {
    std::fprintf(stderr, "overlay failed to converge\n");
    return 1;
  }
  Id key = 0;
  for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
    if (!cluster.is_live(i)) continue;
    key = cluster.dat(i).start_aggregate("pop", core::AggregateKind::kCount,
                                         chord::RoutingScheme::kBalanced,
                                         []() { return 1.0; });
  }
  cluster.run_for(5'000'000);
  std::printf("%6s %8s %6s %10s %12s\n", "event", "kind", "live", "covered",
              "tree-reach");
  std::size_t victim = 1;
  for (unsigned e = 1; e <= events; ++e) {
    if (datd::pending_signal() != 0) break;
    const char* kind;
    if (e % 3 == 0) {
      const auto slot = cluster.add_node();
      if (slot) {
        cluster.dat(*slot).start_aggregate(key, core::AggregateKind::kCount,
                                           chord::RoutingScheme::kBalanced,
                                           []() { return 1.0; });
      }
      kind = "join";
    } else {
      while (victim < cluster.slot_count() && !cluster.is_live(victim)) {
        ++victim;
      }
      if (victim >= cluster.slot_count()) break;  // nobody left to remove
      cluster.remove_node(victim++, e % 2 == 0);
      kind = e % 2 == 0 ? "leave" : "crash";
    }
    cluster.refresh_d0_hints();
    cluster.run_for(8'000'000);
    std::uint64_t covered = 0;
    const Id root_id = cluster.ring_view().successor(key);
    for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
      if (!cluster.is_live(i) || cluster.node(i).id() != root_id) continue;
      if (const auto g = cluster.dat(i).latest(key)) covered = g->state.count;
    }
    const auto stats =
        harness::live_tree_stats(cluster, key, chord::RoutingScheme::kBalanced);
    std::printf("%6u %8s %6zu %10llu %9zu/%zu\n", e, kind,
                cluster.live_count(),
                static_cast<unsigned long long>(covered),
                stats.reaching_root, stats.nodes);
  }
  return 0;
}

obs::ExportFormat parse_format(const std::string& text) {
  if (text == "json") return obs::ExportFormat::kJson;
  if (text == "prom" || text == "prometheus") {
    return obs::ExportFormat::kPrometheus;
  }
  throw std::invalid_argument("unknown format: " + text + " (use json|prom)");
}

int cmd_metrics(CliFlags& flags) {
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const auto run_us =
      static_cast<std::uint64_t>(flags.get_double("run") * 1e6);
  const obs::ExportFormat format = parse_format(flags.get_string("format"));

  // A real cluster on loopback UDP: its telemetry covers every layer
  // (chord, rpc, transport, DAT, and the netio reactor's I/O counters via
  // the cluster registry).
  harness::UdpClusterOptions options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  harness::UdpCluster cluster(n, options);
  cluster.refresh_d0_hints();
  if (!cluster.wait_converged(60'000'000)) {
    std::fprintf(stderr, "overlay failed to converge\n");
    return 1;
  }
  cluster.start_aggregate_everywhere(
      "cpu-usage", core::AggregateKind::kAvg, chord::RoutingScheme::kBalanced,
      [](std::size_t slot) -> core::DatNode::LocalValueFn {
        return [slot] { return static_cast<double>(slot); };
      });
  cluster.run_for(run_us);
  obs::MetricsSnapshot snap = cluster.telemetry_snapshot();
  if (flags.get_bool("rollup")) snap = snap.rollup("node");
  std::fputs(obs::render(snap, format).c_str(), stdout);
  return 0;
}

int cmd_trace(CliFlags& flags) {
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const auto epochs = static_cast<std::uint64_t>(flags.get_int("epochs"));
  const std::string out_path = flags.get_string("out");

  harness::ClusterOptions options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  harness::SimCluster cluster(n, std::move(options));
  if (!cluster.wait_converged(600'000'000)) {
    std::fprintf(stderr, "overlay failed to converge\n");
    return 1;
  }
  const Id key = cluster.start_aggregate_everywhere(
      "cpu-usage", core::AggregateKind::kAvg, chord::RoutingScheme::kBalanced,
      [](std::size_t slot) -> core::DatNode::LocalValueFn {
        return [slot] { return static_cast<double>(slot); };
      });
  cluster.run_for((epochs + 2) * cluster.dat(0).options().epoch_us);

  // The wave to export: the most recent completed aggregation at the root.
  const Id root_id = cluster.ring_view().successor(key);
  std::uint64_t trace_id = 0;
  for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
    if (!cluster.is_live(i) || cluster.node(i).id() != root_id) continue;
    for (const obs::Span& span : cluster.node(i).telemetry().recorder.spans()) {
      if (span.key == key && std::strcmp(span.name, "dat.aggregate") == 0) {
        trace_id = span.trace_id;  // keep the latest
      }
    }
  }
  if (trace_id == 0) {
    std::fprintf(stderr, "no completed aggregation wave recorded at the root\n");
    return 1;
  }

  std::vector<obs::NodeSpans> nodes;
  for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
    if (!cluster.is_live(i)) continue;
    char name[64];
    std::snprintf(name, sizeof(name), "node-%zu (id 0x%llx)", i,
                  static_cast<unsigned long long>(cluster.node(i).id()));
    nodes.push_back(obs::NodeSpans{
        name, i, cluster.node(i).telemetry().recorder.spans()});
  }
  const std::string doc = obs::to_chrome_trace(nodes, trace_id);
  if (out_path.empty()) {
    std::fputs(doc.c_str(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << doc;
    std::fprintf(stderr, "wave trace (trace id 0x%llx) written to %s\n",
                 static_cast<unsigned long long>(trace_id), out_path.c_str());
  }
  return 0;
}

int cmd_rebalance(CliFlags& flags) {
  const auto n = static_cast<std::size_t>(flags.get_int("n"));
  const auto rounds = static_cast<std::size_t>(flags.get_int("rounds"));

  harness::ClusterOptions options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  // Random ids on purpose: the interesting runs start from the unbalanced
  // trees that identifier probing would have prevented.
  options.node.probing_join = flags.get_string("assign") != "random";
  harness::SimCluster cluster(n, std::move(options));
  if (!cluster.wait_converged(600'000'000)) {
    std::fprintf(stderr, "overlay failed to converge\n");
    return 1;
  }

  std::vector<Id> keys;
  const std::uint64_t base_epoch_us = cluster.dat(0).options().epoch_us;
  for (int i = 0; i < 2; ++i) {
    keys.push_back(cluster.start_aggregate_everywhere(
        "cpu-usage#" + std::to_string(i), core::AggregateKind::kAvg,
        chord::RoutingScheme::kBalanced,
        [](std::size_t slot) -> core::DatNode::LocalValueFn {
          return [slot] { return static_cast<double>(slot); };
        }));
  }
  for (int i = 0; i < 2; ++i) {
    keys.push_back(cluster.start_aggregate_everywhere(
        "cpu-usage-hot#" + std::to_string(i), core::AggregateKind::kAvg,
        chord::RoutingScheme::kBalanced,
        [](std::size_t slot) -> core::DatNode::LocalValueFn {
          return [slot] { return static_cast<double>(slot); };
        },
        base_epoch_us / 10));
  }
  cluster.run_for(4 * base_epoch_us);  // let the trees form

  lb::RebalancerOptions lb_options;
  lb_options.epoch_us = base_epoch_us;
  lb::Rebalancer rebalancer(cluster, keys, lb_options);

  std::printf("n=%zu assign=%s rounds=%zu\n", n,
              flags.get_string("assign").c_str(), rounds);
  std::printf("%-6s %-10s %-9s %-11s %-6s %-6s %s\n", "round", "gap_ratio",
              "branching", "migrations", "sheds", "moved", "state");
  for (std::size_t r = 0; r < rounds; ++r) {
    if (datd::pending_signal() != 0) break;
    const lb::RoundReport report = rebalancer.run_round();
    std::printf("%-6zu %-10.2f %-9zu %-11zu %-6zu %-6zu %s\n", report.round,
                report.gap_ratio, report.max_children, report.migrations,
                report.sheds, report.children_moved,
                report.balanced ? "balanced" : "rebalancing");
    cluster.run_for(base_epoch_us);
    if (report.balanced) break;
  }
  return 0;
}

/// The SLO alert table shared by `top` and `remote alerts`.
void print_alerts(const std::vector<obs::Alert>& alerts) {
  if (alerts.empty()) {
    std::printf("alerts: (no rules)\n");
    return;
  }
  std::printf("alerts:\n");
  for (const obs::Alert& a : alerts) {
    std::printf("  %-12s %-7s value=%.1f threshold=%.1f breaches=%llu\n",
                a.rule.c_str(), a.firing ? "FIRING" : "clear", a.value,
                a.threshold,
                static_cast<unsigned long long>(a.breaches));
  }
}

void render_fleet_view(const obs::SelfMonitor::FleetView& view,
                       const obs::SelfMonitor::FleetView* prev) {
  const auto* nodes = view.find("nodes");
  const std::uint64_t up =
      nodes != nullptr ? nodes->state.count : 0;
  std::printf("fleet: %llu", static_cast<unsigned long long>(up));
  if (view.fleet_size > 0) {
    std::printf("/%llu", static_cast<unsigned long long>(view.fleet_size));
  }
  std::printf(" nodes up   epoch %llums\n",
              static_cast<unsigned long long>(view.epoch_us / 1000));
  std::printf("%-14s %-6s %12s %12s %8s %6s\n", "series", "kind", "value",
              "rate/s", "count", "age");
  for (const obs::SelfMonitor::SeriesView& s : view.series) {
    char value[48];
    char rate[32] = "-";
    if (s.state.count == 0) {
      // min/max of an empty aggregate is undefined; the series simply has
      // not converged at this node yet.
      std::snprintf(value, sizeof(value), "-");
    } else if (s.kind == core::AggregateKind::kHistogram) {
      std::snprintf(value, sizeof(value), "p50=%.0f p99=%.0f",
                    s.state.quantile(0.5), s.state.quantile(0.99));
    } else {
      std::snprintf(value, sizeof(value), "%.1f", s.state.result(s.kind));
    }
    // Counters aggregate under kSum; two polls one epoch apart turn the
    // fleet-wide monotonic total into a rate.
    if (prev != nullptr && s.kind == core::AggregateKind::kSum &&
        view.now_us > prev->now_us) {
      if (const auto* old = prev->find(s.name)) {
        const double dt =
            static_cast<double>(view.now_us - prev->now_us) / 1e6;
        std::snprintf(rate, sizeof(rate), "%.1f",
                      (s.state.sum - old->state.sum) / dt);
      }
    }
    const std::uint64_t age_us =
        view.now_us > s.fetched_at_us ? view.now_us - s.fetched_at_us : 0;
    char age[24] = "never";
    if (s.fetched_at_us != 0) {
      std::snprintf(age, sizeof(age), "%llums",
                    static_cast<unsigned long long>(age_us / 1000));
    }
    std::printf("%-14s %-6s %12s %12s %8llu %6s\n", s.name.c_str(),
                core::to_string(s.kind), value, rate,
                static_cast<unsigned long long>(s.state.count), age);
  }
  print_alerts(view.alerts);
}

int cmd_top(CliFlags& flags) {
  const std::string target_text = flags.get_string("target");
  if (target_text.empty()) {
    std::fprintf(stderr,
                 "usage: datctl top --target ip:port [--once] "
                 "[--interval sec]\n");
    return 2;
  }
  const net::Endpoint target = datd::parse_endpoint(target_text);
  datd::AdminClient admin(
      static_cast<std::uint64_t>(flags.get_double("timeout") * 1e6));
  const bool once = flags.get_bool("once");

  // One node answers for the whole fleet: its cached meta-tree roots ARE
  // the fleet view, so rendering costs one RPC regardless of fleet size.
  auto view = admin.fleet(target);
  if (!view) {
    std::fprintf(stderr, "top: %s has no self-monitor or did not answer\n",
                 target_text.c_str());
    return 1;
  }
  // Rates need a second sample one telemetry epoch later.
  const double default_interval =
      view->epoch_us > 0 ? static_cast<double>(view->epoch_us) / 1e6 : 1.0;
  double interval_s = flags.get_double("interval");
  if (interval_s <= 0.0) interval_s = default_interval;

  std::optional<obs::SelfMonitor::FleetView> prev;
  while (datd::pending_signal() == 0) {
    if (prev) {
      if (!once) std::printf("\x1b[H\x1b[2J");  // live mode: redraw in place
      render_fleet_view(*view, &*prev);
      if (once) return 0;
    }
    prev = std::move(view);
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    view = admin.fleet(target);
    if (!view) {
      std::fprintf(stderr, "top: %s stopped answering\n", target_text.c_str());
      return 1;
    }
  }
  return 130;
}

/// Validates a Prometheus text-exposition page: metric-name grammar, known
/// TYPE values, parseable sample values and no duplicate series (same name
/// + label set). This is what CI pipes `datctl metrics --format prom`
/// through, so a malformed or colliding series fails the build instead of
/// the scraper.
int cmd_promcheck(CliFlags& flags) {
  std::string path = flags.get_string("file");
  std::istream* in = &std::cin;
  std::ifstream file;
  if (!path.empty() && path != "-") {
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "promcheck: cannot open %s\n", path.c_str());
      return 2;
    }
    in = &file;
  }
  const auto name_ok = [](const std::string& name) {
    if (name.empty()) return false;
    if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_' &&
        name[0] != ':') {
      return false;
    }
    for (const char c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != ':') {
        return false;
      }
    }
    return true;
  };
  std::unordered_set<std::string> seen_series;
  std::unordered_set<std::string> typed;
  std::size_t errors = 0;
  std::size_t samples = 0;
  std::size_t lineno = 0;
  std::string line;
  const auto fail = [&](const std::string& why) {
    ++errors;
    std::fprintf(stderr, "promcheck: line %zu: %s: %s\n", lineno, why.c_str(),
                 line.c_str());
  };
  while (std::getline(*in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, keyword, name, rest;
      comment >> hash >> keyword >> name;
      if (keyword != "HELP" && keyword != "TYPE") continue;
      if (!name_ok(name)) {
        fail("bad metric name in " + keyword);
        continue;
      }
      if (keyword == "TYPE") {
        std::string type;
        comment >> type;
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          fail("unknown TYPE " + type);
        }
        if (!typed.insert(name).second) fail("duplicate TYPE for " + name);
      }
      continue;
    }
    // Sample line: name[{labels}] value [timestamp]
    const std::size_t brace = line.find('{');
    const std::size_t space = line.find(' ');
    std::string name;
    std::string series;
    std::string value_text;
    if (brace != std::string::npos && (space == std::string::npos ||
                                       brace < space)) {
      const std::size_t close = line.find('}', brace);
      if (close == std::string::npos) {
        fail("unterminated label set");
        continue;
      }
      name = line.substr(0, brace);
      series = line.substr(0, close + 1);
      value_text = line.substr(close + 1);
    } else if (space != std::string::npos) {
      name = line.substr(0, space);
      series = name;
      value_text = line.substr(space);
    } else {
      fail("sample without a value");
      continue;
    }
    if (!name_ok(name)) {
      fail("bad metric name");
      continue;
    }
    std::istringstream values(value_text);
    std::string token;
    if (!(values >> token)) {
      fail("sample without a value");
      continue;
    }
    if (token != "+Inf" && token != "-Inf" && token != "NaN") {
      try {
        std::size_t used = 0;
        (void)std::stod(token, &used);
        if (used != token.size()) throw std::invalid_argument(token);
      } catch (const std::exception&) {
        fail("unparseable sample value " + token);
        continue;
      }
    }
    if (!seen_series.insert(series).second) fail("duplicate series");
    ++samples;
  }
  std::printf("promcheck: %zu samples, %zu errors\n", samples, errors);
  return errors == 0 ? 0 : 1;
}

int cmd_remote(CliFlags& flags) {
  const std::string op =
      flags.positional().empty() ? std::string() : flags.positional().front();
  const std::string target_text = flags.get_string("target");
  const bool known_op = op == "status" || op == "metrics" || op == "leave" ||
                        op == "rebalance" || op == "alerts";
  if (!known_op || target_text.empty()) {
    std::fprintf(stderr,
                 "usage: datctl remote <status|metrics|leave|rebalance|alerts> "
                 "--target ip:port [--json] [--format json|prom]\n");
    return 2;
  }
  const net::Endpoint target = datd::parse_endpoint(target_text);
  datd::AdminClient admin(
      static_cast<std::uint64_t>(flags.get_double("timeout") * 1e6));
  if (op == "status") {
    const auto status = admin.status(target);
    if (!status) {
      std::fprintf(stderr, "remote: %s did not answer\n", target_text.c_str());
      return 1;
    }
    std::printf("%s\n", flags.get_bool("json") ? status->to_json().c_str()
                                               : status->describe().c_str());
    return 0;
  }
  if (op == "metrics") {
    const auto page =
        admin.metrics(target, parse_format(flags.get_string("format")));
    if (!page) {
      std::fprintf(stderr, "remote: %s did not answer\n", target_text.c_str());
      return 1;
    }
    std::fputs(page->c_str(), stdout);
    return 0;
  }
  if (op == "alerts") {
    const auto fleet = admin.fleet(target);
    if (!fleet) {
      std::fprintf(stderr, "remote: %s has no self-monitor or did not answer\n",
                   target_text.c_str());
      return 1;
    }
    print_alerts(fleet->alerts);
    return 0;
  }
  if (op == "leave") {
    if (!admin.leave(target)) {
      std::fprintf(stderr, "remote: %s did not acknowledge the leave\n",
                   target_text.c_str());
      return 1;
    }
    std::printf("leave acknowledged: %s is draining\n", target_text.c_str());
    return 0;
  }
  const auto moved = admin.rebalance(target);
  if (!moved) {
    std::fprintf(stderr, "remote: %s did not answer\n", target_text.c_str());
    return 1;
  }
  std::printf("rebalance: %llu children moved\n",
              static_cast<unsigned long long>(*moved));
  return 0;
}

void print_usage() {
  std::fprintf(
      stderr,
      "usage: datctl "
      "<tree|load|lookup|monitor|churn|inspect|metrics|trace|rebalance|remote"
      "|top|promcheck>"
      " [flags]\n"
      "       datctl <subcommand> --help\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];

  CliFlags flags;
  flags.flag("n", std::int64_t{128}, "number of nodes");
  flags.flag("bits", std::int64_t{32}, "identifier-space bits");
  flags.flag("seed", std::int64_t{42}, "random seed");
  flags.flag("help", false, "print flags and exit");
  if (command == "tree") {
    flags.flag("scheme", std::string("balanced"), "basic|balanced");
    flags.flag("assign", std::string("probed"), "random|probed|even");
    flags.flag("trials", std::int64_t{3}, "independent rings");
    flags.flag("keys", std::int64_t{4}, "rendezvous keys per ring");
  } else if (command == "lookup") {
    flags.flag("queries", std::int64_t{50}, "number of lookups");
    flags.flag("mode", std::string("iterative"), "iterative|recursive");
  } else if (command == "monitor") {
    flags.flag("minutes", 10.0, "measurement length (virtual minutes)");
    flags.flag("epoch", 1.0, "aggregation epoch (seconds)");
  } else if (command == "churn") {
    flags.flag("events", std::int64_t{12}, "churn events");
  } else if (command == "inspect") {
    flags.flag("slot", std::int64_t{0}, "node slot to dump");
  } else if (command == "metrics") {
    flags.flag("run", 2.0, "wall-clock seconds to run before sampling");
    flags.flag("format", std::string("prom"), "json|prom");
    flags.flag("rollup", false, "collapse per-node series into cluster totals");
  } else if (command == "trace") {
    flags.flag("epochs", std::int64_t{8}, "aggregation epochs to record");
    flags.flag("out", std::string(), "output file (stdout when empty)");
  } else if (command == "rebalance") {
    flags.flag("assign", std::string("random"),
               "id assignment at deploy: random|probed");
    flags.flag("rounds", std::int64_t{20}, "rebalancer rounds to run");
  } else if (command == "remote") {
    flags.flag("target", std::string(), "daemon address, ip:port (required)");
    flags.flag("format", std::string("prom"), "metrics format: json|prom");
    flags.flag("json", false, "status as JSON instead of one line");
    flags.flag("timeout", 2.0, "per-call budget (seconds)");
  } else if (command == "top") {
    flags.flag("target", std::string(), "daemon address, ip:port (required)");
    flags.flag("once", false, "two samples one epoch apart, one frame, exit");
    flags.flag("interval", 0.0,
               "refresh period in seconds (0 = the node's telemetry epoch)");
    flags.flag("timeout", 2.0, "per-call budget (seconds)");
  } else if (command == "promcheck") {
    flags.flag("file", std::string(),
               "Prometheus exposition page to lint (empty or - reads stdin)");
  } else if (command != "load") {
    print_usage();
    return 2;
  }

  if (!flags.parse(argc - 2, argv + 2)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.get_bool("help")) {
    std::fprintf(stderr, "datctl %s flags:\n%s", command.c_str(),
                 flags.usage().c_str());
    return 0;
  }

  dat::datd::install_signal_guard();
  try {
    int rc = 2;
    bool handled = true;
    if (command == "tree") {
      rc = cmd_tree(flags);
    } else if (command == "load") {
      rc = cmd_load(flags);
    } else if (command == "lookup") {
      rc = cmd_lookup(flags);
    } else if (command == "monitor") {
      rc = cmd_monitor(flags);
    } else if (command == "churn") {
      rc = cmd_churn(flags);
    } else if (command == "inspect") {
      rc = cmd_inspect(flags);
    } else if (command == "metrics") {
      rc = cmd_metrics(flags);
    } else if (command == "trace") {
      rc = cmd_trace(flags);
    } else if (command == "rebalance") {
      rc = cmd_rebalance(flags);
    } else if (command == "remote") {
      rc = cmd_remote(flags);
    } else if (command == "top") {
      rc = cmd_top(flags);
    } else if (command == "promcheck") {
      rc = cmd_promcheck(flags);
    } else {
      handled = false;
    }
    if (handled) {
      // A latched SIGINT/SIGTERM broke the subcommand's loop early; every
      // cluster/transport already shut down via its destructor above.
      return dat::datd::pending_signal() != 0 ? 130 : rc;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  print_usage();
  return 2;
}
