// Leaf-to-root aggregation benchmark. One run builds a fleet for one
// workload, measures a window of steady aggregation and prints the metrics
// by name and unit; the last stdout line is a JSON result object.
//
//   perfbench --workload deploy64|saturate64|sim256 --seed N --seconds S
//             --trace 0|1 [--git-sha SHA] [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics. --trace 1 puts a TracedTransport
// under every node and prints per-layer metrics from a traced window that
// follows an untraced one on the same fleet.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "dat/tree.hpp"
#include "fleet.hpp"
#include "net/codec.hpp"
#include "tracer.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#undef PERFBENCH_INSTRUMENTED
#define PERFBENCH_INSTRUMENTED 1
#endif

namespace perfbench {
namespace {

using dat::Id;
namespace chord = dat::chord;
namespace core = dat::core;
namespace net = dat::net;

// -- arguments and workloads ------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_dir;
};

struct Spec {
  std::string name;
  bool sim = false;
  std::size_t nodes = 64;
  std::size_t trees = 16;
  std::uint64_t epoch_us = 100'000;
  bool selfmon = false;
  std::uint64_t selfmon_epoch_us = 1'000'000;
  double query_rate = 0.0;  ///< open-loop query_global per second
  std::uint64_t warmup_us = 2'000'000;  ///< substrate time before the window
  FleetOptions fleet;
};

std::optional<Spec> spec_for(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "deploy64") {
    // datd-shaped: default Chord timers, selfmon on, reads beside writes.
    s.trees = 16;
    s.epoch_us = 100'000;
    s.selfmon = true;
    s.query_rate = 2000.0;
    s.warmup_us = 2'000'000;
  } else if (name == "saturate64") {
    // Writes only, offered 64 x 48 / 16 ms = 192k updates/s.
    s.trees = 48;
    s.epoch_us = 16'000;
    s.warmup_us = 1'000'000;
    // Child records live 10 epochs (160 ms) instead of 3 (48 ms): a single
    // 30-75 ms scheduling stall of the pump, seen a few times a minute on a
    // shared 4-core VM, otherwise expires whole subtrees and makes root
    // emissions inexact.
    s.fleet.dat.child_ttl_epochs = 10;
  } else if (name == "sim256") {
    // bench_live_scale's bootstrap options, default 500 ms epoch. 256
    // nodes, not 1024: at 1024 the simulator's 250 MB working set made its
    // CPU per update swing 37% (IQR / median) between runs on a shared VM.
    s.sim = true;
    s.nodes = 256;
    // 16 trees, not 4: the simulator fixes every node's epoch phase, so a
    // tree's freshness barely moves between emissions, and a percentile
    // over 4 trees is the median of 4 numbers that change with the seed.
    s.trees = 16;
    s.epoch_us = 500'000;
    s.warmup_us = 5'000'000;
    s.fleet.join_settle_us = 100'000;
    s.fleet.node.fix_fingers_interval_us = 100'000;
    s.fleet.d0_hint = true;
    s.fleet.converge_timeout_us = 1'200'000'000;
    s.fleet.converge_step_us = 500'000;
  } else {
    return std::nullopt;
  }
  s.fleet.nodes = s.nodes;
  s.fleet.selfmon = s.selfmon;
  s.fleet.selfmon_options.epoch_us = s.selfmon_epoch_us;
  // Root history must hold every emission of warm-up plus the window.
  s.fleet.dat.history_size = 1u << 14;
  return s;
}

// -- small helpers ----------------------------------------------------------

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile capped so that at least ten samples lie beyond
/// it: the highest percentile up to `q_max` the sample count supports.
struct Percentile {
  double value = 0.0;
  double q = 0.0;
  std::size_t n = 0;
};

Percentile tail_percentile(std::vector<double> v, double q_max) {
  Percentile p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  p.q = std::max(0.5, std::min(q_max, (n - 10.0) / n));
  const auto rank = static_cast<std::size_t>(std::ceil(p.q * n));
  p.value = v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
  return p;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

// -- run state ----------------------------------------------------------------

/// Cumulative counters read at a window boundary. Reading them allocates
/// nothing, so the allocation count of a window is exact.
struct Reading {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t allocs = 0;
  std::uint64_t clock_us = 0;
  std::uint64_t updates = 0;
  std::uint64_t leaf_calls = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t truncated = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t maintenance_rpcs = 0;
  std::uint64_t events_fired = 0;
  dat::netio::ReactorCounters reactor;
};

/// Registry-derived counters; reading them allocates, so they are taken
/// outside the CPU/allocation window.
struct RegistryReading {
  double hops_sum = 0;
  double hops_count = 0;
  double parent_switches = 0;
};

struct Query {
  std::uint64_t due_us = 0;
  std::uint64_t done_us = 0;
  bool done = false;
  bool ok = false;
};

/// A window is measured as kSubWindows back-to-back slices; rates and CPU
/// per update come from the slices (see report_end_to_end), so a few
/// hundred milliseconds of host contention move one slice, not the result.
constexpr int kSubWindows = 10;

/// Virtual seconds the simulator runs per requested second.
constexpr double kSimVirtualPerWall = 30.0;

struct Window {
  std::vector<Reading> marks;  ///< slice boundaries, kSubWindows + 1
  Reading begin;
  Reading end;
  RegistryReading reg_begin;
  RegistryReading reg_end;
  Tracer::Totals layer[static_cast<std::size_t>(Layer::kCount)]{};
  std::vector<std::uint32_t> top_callbacks;
};

class Bench {
 public:
  Bench(Spec spec, Args args) : spec_(std::move(spec)), args_(std::move(args)) {}

  int run();

 private:
  std::unique_ptr<Fleet> make_fleet(std::uint64_t seed);
  void start_trees(Fleet& fleet, std::uint64_t seed);
  Reading read(Fleet& fleet);
  RegistryReading read_registries(Fleet& fleet);
  std::uint64_t digest(Fleet& fleet);
  /// Pumps for `seconds` of wall time, issuing due queries; the simulator
  /// runs kSimVirtualPerWall times as many virtual seconds instead.
  void pump_window(Fleet& fleet, double seconds);
  void issue_due_queries(Fleet& fleet, std::uint64_t now);
  Window measure(Fleet& fleet, double seconds);
  void check_emissions(Fleet& fleet, const Window& w);
  void drain_queries(Fleet& fleet);

  void fail(const std::string& what) {
    correct_ = false;
    problems_.push_back(what);
  }
  void report_end_to_end(Fleet& fleet, const Window& w);
  void report_layers(Fleet& fleet, const Window& untraced, const Window& traced);

  Spec spec_;
  Args args_;
  Tracer tracer_;
  std::vector<Id> keys_;
  std::uint64_t leaf_calls_ = 0;
  std::vector<double> setup_s_;
  bool correct_ = true;
  std::vector<std::string> problems_;

  // Open-loop query generator (deploy64).
  dat::Rng query_rng_{0};
  std::vector<Query> queries_;
  std::uint64_t next_due_us_ = 0;
  std::uint64_t query_interval_us_ = 0;
  double lateness_sum_us_ = 0;
  std::uint64_t lateness_max_us_ = 0;
  std::uint64_t lateness_n_ = 0;
  std::uint64_t stalls_ = 0;
  double stall_max_s_ = 0;

  // Correctness accounting over every measured window.
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<double> freshness_ms_;
  std::vector<double> query_us_;

  std::vector<Metric> metrics_;
  std::vector<std::string> table_;
};

std::unique_ptr<Fleet> Bench::make_fleet(std::uint64_t seed) {
  FleetOptions options = spec_.fleet;
  options.seed = seed;
  options.traced = args_.trace;
  std::unique_ptr<Substrate> substrate;
  if (spec_.sim) {
    substrate = std::make_unique<SimSubstrate>(seed);
  } else {
    substrate = std::make_unique<NetioSubstrate>();
  }
  return std::make_unique<Fleet>(std::move(substrate), std::move(options),
                                 tracer_);
}

void Bench::start_trees(Fleet& fleet, std::uint64_t seed) {
  keys_.clear();
  for (std::size_t t = 0; t < spec_.trees; ++t) {
    keys_.push_back(core::rendezvous_key("perfbench:tree:" + std::to_string(t),
                                         fleet.space()));
  }
  // Nodes start their trees spread over one epoch, in a seeded order, the
  // way the processes of a real fleet start at different times. Started
  // together, every epoch timer fires at the same instant and each hop
  // waits exactly one epoch.
  std::vector<std::size_t> order(fleet.size());
  std::iota(order.begin(), order.end(), 0);
  dat::Rng rng(seed * 31 + 7);
  std::shuffle(order.begin(), order.end(), rng.engine());
  Substrate* clock = &fleet.substrate();
  for (const std::size_t i : order) {
    for (const Id key : keys_) {
      // Each leaf reports its own sample time; a MIN tree carries the
      // oldest sample in every emission up to the root.
      fleet.dat(i).start_aggregate(
          key, core::AggregateKind::kMin, chord::RoutingScheme::kBalanced,
          [this, clock] {
            tracer_.note_leaf();
            ++leaf_calls_;
            return static_cast<double>(clock->now_us());
          },
          spec_.epoch_us);
    }
    fleet.pump_for(spec_.epoch_us / fleet.size());
  }
}

Reading Bench::read(Fleet& fleet) {
  Reading r;
  r.wall_s = wall_now_s();
  r.cpu_s = cpu_now_s();
  r.allocs = allocations();
  r.clock_us = fleet.substrate().now_us();
  r.leaf_calls = leaf_calls_;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    core::DatNode& d = fleet.dat(i);
    for (const Id key : keys_) r.updates += d.updates_sent(key);
    const net::TrafficCounters& c = fleet.transport(i).counters();
    r.msgs_sent += c.messages_sent;
    r.bytes_sent += c.bytes_sent;
    r.decode_errors += c.decode_errors;
    r.truncated += c.truncated_datagrams;
    const net::RpcStats& rpc = fleet.node(i).rpc().stats();
    r.retransmits += rpc.retransmits;
    r.timeouts += rpc.timeouts;
    r.maintenance_rpcs += fleet.node(i).maintenance_rpcs();
  }
  if (auto* netio = dynamic_cast<NetioSubstrate*>(&fleet.substrate())) {
    r.reactor = netio->counters();
  }
  if (auto* sim = dynamic_cast<SimSubstrate*>(&fleet.substrate())) {
    r.events_fired = sim->engine().queue().fired();
  }
  return r;
}

RegistryReading Bench::read_registries(Fleet& fleet) {
  RegistryReading r;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const dat::obs::MetricsSnapshot snap =
        fleet.node(i).telemetry().registry.snapshot();
    if (const auto* hops = snap.find("dat_chord_lookup_hops")) {
      r.hops_sum += static_cast<double>(hops->sum);
      r.hops_count += static_cast<double>(hops->count);
    }
    r.parent_switches += snap.value_or_zero("dat_tree_parent_switches_total");
  }
  return r;
}

std::uint64_t Bench::digest(Fleet& fleet) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto bits = [](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };
  if (auto* sim = dynamic_cast<SimSubstrate*>(&fleet.substrate())) {
    mix(sim->engine().queue().fired());
  }
  const chord::RingView ring = fleet.ring_view();
  for (const Id id : ring.ids()) mix(id);
  for (const Id key : keys_) {
    const std::size_t root = fleet.slot_of(ring.successor(key));
    for (const core::GlobalValue& g : fleet.dat(root).history(key)) {
      mix(g.updated_at_us);
      mix(g.state.count);
      mix(bits(g.state.min));
      mix(bits(g.state.sum));
    }
  }
  return h;
}

void Bench::issue_due_queries(Fleet& fleet, std::uint64_t now) {
  if (query_interval_us_ == 0) return;
  while (next_due_us_ <= now) {
    const std::uint64_t due = next_due_us_;
    next_due_us_ += query_interval_us_;
    if (queries_.size() == queries_.capacity()) continue;
    lateness_sum_us_ += static_cast<double>(now - due);
    lateness_max_us_ = std::max(lateness_max_us_, now - due);
    ++lateness_n_;
    const std::size_t node = query_rng_.next_below(fleet.size());
    const Id key = keys_[query_rng_.next_below(keys_.size())];
    const std::size_t index = queries_.size();
    queries_.push_back({due, 0, false, false});
    Substrate* clock = &fleet.substrate();
    const std::uint64_t n = fleet.size();
    auto handler = [this, clock, index, n](
                       net::RpcStatus status,
                       std::optional<core::GlobalValue> value) {
      Query& q = queries_[index];
      q.done = true;
      q.done_us = clock->now_us();
      q.ok = status == net::RpcStatus::kOk && value.has_value() &&
             value->state.count == n;
    };
    if (tracer_.enabled()) {
      tracer_.enter();
      fleet.dat(node).query_global(key, std::move(handler));
      tracer_.leave(Layer::kQuery);
    } else {
      fleet.dat(node).query_global(key, std::move(handler));
    }
  }
}

void Bench::pump_window(Fleet& fleet, double seconds) {
  Substrate& sub = fleet.substrate();
  if (spec_.sim) {
    // A fixed stretch of virtual time, so every run of a seed does the same
    // work and the sim counters repeat exactly; about `seconds` of wall
    // time for sim256 on a 4-core VM.
    const auto steps = static_cast<std::uint64_t>(
        std::llround(seconds * kSimVirtualPerWall * 10.0));
    for (std::uint64_t i = 0; i < steps; ++i) fleet.pump(100'000);
    return;
  }
  const std::uint64_t end =
      sub.now_us() + static_cast<std::uint64_t>(seconds * 1e6);
  for (std::uint64_t now = sub.now_us(); now < end; now = sub.now_us()) {
    issue_due_queries(fleet, now);
    std::uint64_t wait = std::min<std::uint64_t>(end - now, 100'000);
    if (query_interval_us_ != 0 && next_due_us_ > now) {
      wait = std::min(wait, next_due_us_ - now);
    }
    // One reactor iteration runs well under a millisecond here; one that
    // takes 25 ms or more means the process was not scheduled.
    const double t0 = wall_now_s();
    fleet.pump(wait);
    const double took = wall_now_s() - t0;
    if (took >= 0.025) {
      ++stalls_;
      stall_max_s_ = std::max(stall_max_s_, took);
    }
  }
}

Window Bench::measure(Fleet& fleet, double seconds) {
  Window w;
  const std::size_t first_query = queries_.size();
  w.reg_begin = read_registries(fleet);
  tracer_.reset();
  w.marks.push_back(read(fleet));
  for (int k = 0; k < kSubWindows; ++k) {
    pump_window(fleet, seconds / kSubWindows);
    w.marks.push_back(read(fleet));
  }
  w.begin = w.marks.front();
  w.end = w.marks.back();
  for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
    w.layer[l] = tracer_.totals(static_cast<Layer>(l));
  }
  w.top_callbacks = tracer_.top_callbacks();
  w.reg_end = read_registries(fleet);
  check_emissions(fleet, w);
  if (query_interval_us_ != 0) {
    drain_queries(fleet);
    for (std::size_t i = first_query; i < queries_.size(); ++i) {
      const Query& q = queries_[i];
      if (q.due_us < w.begin.clock_us || q.due_us >= w.end.clock_us) continue;
      ++attempted_;
      if (!q.done || !q.ok) {
        ++failed_;
        continue;
      }
      query_us_.push_back(static_cast<double>(q.done_us - q.due_us));
    }
  }
  return w;
}

void Bench::drain_queries(Fleet& fleet) {
  fleet.pump_while(
      [this] {
        return std::any_of(queries_.begin(), queries_.end(),
                           [](const Query& q) { return !q.done; });
      },
      3'000'000);
}

void Bench::check_emissions(Fleet& fleet, const Window& w) {
  const chord::RingView ring = fleet.ring_view();
  const std::uint64_t n = fleet.size();
  for (const Id key : keys_) {
    const std::size_t root = fleet.slot_of(ring.successor(key));
    const std::vector<core::GlobalValue> history = fleet.dat(root).history(key);
    if (history.size() >= spec_.fleet.dat.history_size &&
        history.front().updated_at_us >= w.begin.clock_us) {
      fail("root history overflowed the window");
    }
    std::size_t tree_emitted = 0;
    for (const core::GlobalValue& g : history) {
      if (g.updated_at_us < w.begin.clock_us || g.updated_at_us >= w.end.clock_us) {
        continue;
      }
      ++tree_emitted;
      ++attempted_;
      if (g.state.count != n) {
        ++failed_;
        continue;
      }
      freshness_ms_.push_back(
          (static_cast<double>(g.updated_at_us) - g.state.min) / 1000.0);
    }
    if (tree_emitted == 0) fail("a tree saw no root emission");
  }
}

// -- reporting ------------------------------------------------------------

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit, std::string note = {}) {
  out.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

std::string pct_note(const Percentile& p) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%.4g of %zu samples", p.q * 100.0, p.n);
  return buf;
}

void Bench::report_end_to_end(Fleet& fleet, const Window& w) {
  const double wall = w.end.wall_s - w.begin.wall_s;
  const double updates =
      static_cast<double>(std::max<std::uint64_t>(1, w.end.updates - w.begin.updates));
  const double virt_s = static_cast<double>(w.end.clock_us - w.begin.clock_us) / 1e6;
  // Boots of one seed in the simulator do identical work, so the fastest
  // of them is the program's set-up cost; the rest is the host.
  double setup = setup_s_.front();
  for (std::size_t i = 2; i < setup_s_.size(); i += 2) {
    setup = std::min(setup, setup_s_[i]);
  }
  add(metrics_, "setup_s", setup, "s",
      spec_.sim ? "fastest of the run seed's 3 boots" : "one boot");
  std::vector<double> rate;
  std::vector<double> cpu;
  for (std::size_t k = 0; k + 1 < w.marks.size(); ++k) {
    const Reading& a = w.marks[k];
    const Reading& b = w.marks[k + 1];
    const double u = static_cast<double>(std::max<std::uint64_t>(1, b.updates - a.updates));
    rate.push_back(u / (b.wall_s - a.wall_s));
    cpu.push_back((b.cpu_s - a.cpu_s) * 1e6 / u);
  }
  // A simulator slice covers a fixed stretch of virtual time and never
  // waits on a clock, so a slower slice was slowed by the host: the fastest
  // one is the program's cost. A UDP fleet's slices do uneven work (1 s
  // selfmon ticks and timers land unevenly in them), so there the median.
  const std::string slices =
      (spec_.sim ? "fastest of " : "median of ") + std::to_string(rate.size()) +
      " slices";
  add(metrics_, "updates_per_s",
      spec_.sim ? *std::max_element(rate.begin(), rate.end()) : median(rate),
      "1/s", slices);
  add(metrics_, "cpu_us_per_update",
      spec_.sim ? *std::min_element(cpu.begin(), cpu.end()) : median(cpu), "us",
      slices);
  const std::string clock = spec_.sim ? ", virtual time" : "";
  const Percentile f50 = tail_percentile(freshness_ms_, 0.50);
  const Percentile f90 = tail_percentile(freshness_ms_, 0.90);
  add(metrics_, "freshness_p50_ms", f50.value, "ms", pct_note(f50) + clock);
  add(metrics_, "freshness_p90_ms", f90.value, "ms", pct_note(f90) + clock);
  add(metrics_, "bytes_per_update",
      static_cast<double>(w.end.bytes_sent - w.begin.bytes_sent) / updates, "B",
      spec_.sim ? "message bodies" : "encoded frames");
  add(metrics_, "allocs_per_update",
      static_cast<double>(w.end.allocs - w.begin.allocs) / updates, "count");
  add(metrics_, "rss_kb_per_node",
      static_cast<double>(peak_rss_kb()) / static_cast<double>(fleet.size()),
      "KiB");

  // Printed for every run, not part of the gated JSON metrics: they exist
  // on one workload only, or read 0 by construction.
  char line[160];
  const Percentile f99 = tail_percentile(freshness_ms_, 0.99);
  std::snprintf(line, sizeof line, "freshness_p99_ms = %.6g ms (%s%s)",
                f99.value, pct_note(f99).c_str(), clock.c_str());
  table_.push_back(line);
  std::string cpu_slices = "cpu_us_per_update slices:";
  for (const double c : cpu) {
    std::snprintf(line, sizeof line, " %.4g", c);
    cpu_slices += line;
  }
  table_.push_back(cpu_slices);
  if (query_interval_us_ != 0) {
    const Percentile q50 = tail_percentile(query_us_, 0.50);
    const Percentile q99 = tail_percentile(query_us_, 0.99);
    std::snprintf(line, sizeof line, "query_p50_us = %.6g us (%s)", q50.value,
                  pct_note(q50).c_str());
    table_.push_back(line);
    std::snprintf(line, sizeof line, "query_p99_us = %.6g us (%s)", q99.value,
                  pct_note(q99).c_str());
    table_.push_back(line);
    std::snprintf(line, sizeof line,
                  "query_generator_lateness = mean %.4g us, max %llu us",
                  lateness_n_ ? lateness_sum_us_ / lateness_n_ : 0.0,
                  static_cast<unsigned long long>(lateness_max_us_));
    table_.push_back(line);
  }
  if (spec_.sim) {
    std::snprintf(line, sizeof line, "sim_wall_s_per_virtual_s = %.6g s/s",
                  wall / virt_s);
    table_.push_back(line);
  }
  if (!spec_.sim) {
    std::snprintf(line, sizeof line,
                  "pump_stalls = %llu reactor iterations of 25 ms or more "
                  "(longest %.1f ms)",
                  static_cast<unsigned long long>(stalls_), stall_max_s_ * 1e3);
    table_.push_back(line);
  }
  std::snprintf(line, sizeof line, "failed_frac = %.6g ratio (%llu of %llu)",
                attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
  table_.push_back(line);
}

void Bench::report_layers(Fleet& fleet, const Window& a, const Window& b) {
  const auto span = [&b](Layer l) {
    return b.layer[static_cast<std::size_t>(l)];
  };
  const double updates = static_cast<double>(
      std::max<std::uint64_t>(1, b.end.updates - b.begin.updates));
  const double updates_a = static_cast<double>(
      std::max<std::uint64_t>(1, a.end.updates - a.begin.updates));
  const double cpu_ns = (b.end.cpu_s - b.begin.cpu_s) * 1e9;
  const double wall = b.end.wall_s - b.begin.wall_s;
  const double sub_s = static_cast<double>(b.end.clock_us - b.begin.clock_us) / 1e6;
  const double cpu_us_a = (a.end.cpu_s - a.begin.cpu_s) * 1e6 / updates_a;
  const double cpu_us_b = cpu_ns / 1e3 / updates;
  double covered_ns = 0;
  for (std::size_t l = 1; l < static_cast<std::size_t>(Layer::kCount); ++l) {
    covered_ns += static_cast<double>(b.layer[l].self_ns);
  }
  const double remainder_us = (cpu_ns - covered_ns) / 1e3 / updates;
  const auto per_frame = [](const Tracer::Totals& t) {
    return t.spans ? static_cast<double>(t.self_ns) / 1e3 / t.spans : 0.0;
  };
  const double updates_d = updates;
  const dat::netio::ReactorCounters& r0 = b.begin.reactor;
  const dat::netio::ReactorCounters& r1 = b.end.reactor;
  const bool netio = !spec_.sim;

  // netio
  const double syscalls =
      static_cast<double>((r1.epoll_waits - r0.epoll_waits) +
                          (r1.recv_syscalls - r0.recv_syscalls) +
                          (r1.send_syscalls - r0.send_syscalls));
  const double datagrams = static_cast<double>(r1.datagrams_out - r0.datagrams_out);
  add(metrics_, "netio.syscalls_per_update", netio ? syscalls / updates_d : 0,
      "count");
  add(metrics_, "netio.frames_per_datagram",
      netio && datagrams > 0
          ? static_cast<double>(r1.frames_out - r0.frames_out) / datagrams
          : 0,
      "count");
  add(metrics_, "netio.self_us_per_update", netio ? remainder_us : 0, "us",
      "traced CPU not covered by any span");
  std::vector<double> callbacks(b.top_callbacks.begin(), b.top_callbacks.end());
  const Percentile cb = tail_percentile(std::move(callbacks), 0.999);
  add(metrics_, "netio.callback_p999_us", cb.value / 1e3, "us", pct_note(cb));
  add(metrics_, "netio.drops",
      static_cast<double>((r1.send_errors - r0.send_errors) +
                          (r1.truncated_in - r0.truncated_in)),
      "count");

  // net
  add(metrics_, "net.send_us_per_frame", per_frame(span(Layer::kSend)), "us");
  add(metrics_, "net.recv_us_per_frame", per_frame(span(Layer::kRecv)), "us");
  add(metrics_, "net.frames_per_update",
      static_cast<double>(b.end.msgs_sent - b.begin.msgs_sent) / updates_d,
      "count");
  add(metrics_, "net.rpc_retransmits",
      static_cast<double>(b.end.retransmits - b.begin.retransmits), "count");
  add(metrics_, "net.rpc_timeouts",
      static_cast<double>(b.end.timeouts - b.begin.timeouts), "count");
  add(metrics_, "net.decode_errors",
      static_cast<double>(b.end.decode_errors - b.begin.decode_errors), "count");

  // chord
  add(metrics_, "chord.maintenance_rpcs_per_s",
      static_cast<double>(b.end.maintenance_rpcs - b.begin.maintenance_rpcs) /
          sub_s,
      "1/s", spec_.sim ? "per virtual second" : "");
  add(metrics_, "chord.maintenance_us_per_s",
      static_cast<double>(span(Layer::kChord).self_ns) / 1e3 / sub_s, "us/s",
      spec_.sim ? "per virtual second" : "");
  {
    // Timed outside calls to dat_parent for every (node, tree).
    std::size_t calls = 0;
    std::uint64_t sink = 0;
    const double t0 = wall_now_s();
    for (int rep = 0; rep < 20; ++rep) {
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        for (const Id key : keys_) {
          const auto parent =
              fleet.node(i).dat_parent(key, chord::RoutingScheme::kBalanced);
          sink += parent ? parent->id : 1;
          ++calls;
        }
      }
    }
    const double ns = (wall_now_s() - t0) * 1e9 / static_cast<double>(calls);
    asm volatile("" : : "g"(sink) : "memory");
    add(metrics_, "chord.dat_parent_ns", ns, "ns");
  }
  const double hops_n = b.reg_end.hops_count - b.reg_begin.hops_count;
  add(metrics_, "chord.lookup_hops_mean",
      hops_n > 0 ? (b.reg_end.hops_sum - b.reg_begin.hops_sum) / hops_n : 0,
      "count");

  // dat
  add(metrics_, "dat.epoch_us_per_update",
      static_cast<double>(span(Layer::kDat).self_ns) / 1e3 / updates_d, "us");
  const double offered = static_cast<double>(fleet.size() * keys_.size()) *
                         static_cast<double>(b.end.clock_us - b.begin.clock_us) /
                         static_cast<double>(spec_.epoch_us);
  add(metrics_, "dat.epoch_lag",
      1.0 - static_cast<double>(b.end.leaf_calls - b.begin.leaf_calls) / offered,
      "ratio");
  {
    const chord::RingView ring = fleet.ring_view();
    std::size_t max_branching = 0;
    double height_sum = 0;
    for (const Id key : keys_) {
      const core::Tree tree(ring, key, chord::RoutingScheme::kBalanced);
      max_branching = std::max(max_branching, tree.max_branching());
      height_sum += tree.height();
    }
    add(metrics_, "dat.max_branching", static_cast<double>(max_branching),
        "count");
    add(metrics_, "dat.tree_height_mean",
        height_sum / static_cast<double>(keys_.size()), "count");
  }
  add(metrics_, "dat.parent_switches",
      b.reg_end.parent_switches - b.reg_begin.parent_switches, "count");
  {
    // AggState decode + merge on the workload's own root states.
    const chord::RingView ring = fleet.ring_view();
    std::vector<std::vector<std::uint8_t>> wires;
    for (const Id key : keys_) {
      const auto g = fleet.dat(fleet.slot_of(ring.successor(key))).latest(key);
      if (!g) continue;
      net::Writer w;
      core::write_agg_state(w, g->state);
      wires.push_back(w.take());
    }
    double ns = 0;
    if (!wires.empty()) {
      constexpr int kReps = 200'000;
      core::AggState acc;
      const double t0 = wall_now_s();
      for (int i = 0; i < kReps; ++i) {
        net::Reader r(wires[static_cast<std::size_t>(i) % wires.size()]);
        acc.merge(core::read_agg_state(r));
      }
      ns = (wall_now_s() - t0) * 1e9 / kReps;
      asm volatile("" : : "g"(&acc) : "memory");
    }
    add(metrics_, "dat.merge_ns", ns, "ns");
  }

  // obs
  {
    std::vector<double> us;
    for (int rep = 0; rep < 15; ++rep) {
      const double t0 = wall_now_s();
      const dat::obs::MetricsSnapshot snap =
          fleet.node(0).telemetry().registry.snapshot();
      us.push_back((wall_now_s() - t0) * 1e6);
      asm volatile("" : : "g"(snap.samples.data()) : "memory");
    }
    add(metrics_, "obs.snapshot_us", median(us), "us");
  }
  add(metrics_, "obs.selfmon_us_per_s",
      static_cast<double>(span(Layer::kObs).self_ns) / 1e3 / sub_s, "us/s");

  // sim
  const double events =
      static_cast<double>(b.end.events_fired - b.begin.events_fired);
  std::size_t pending = 0;
  if (auto* sim = dynamic_cast<SimSubstrate*>(&fleet.substrate())) {
    pending = sim->engine().queue().size();
  }
  add(metrics_, "sim.events_fired", events, "count");
  add(metrics_, "sim.events_per_s", events / wall, "1/s");
  add(metrics_, "sim.events_per_update", events / updates_d, "count");
  add(metrics_, "sim.engine_ns_per_event",
      events > 0 ? static_cast<double>(span(Layer::kPump).self_ns) / events : 0,
      "ns", "advance time not covered by spans");
  add(metrics_, "sim.pending_events", static_cast<double>(pending), "count");

  add(metrics_, "trace.overhead_frac", cpu_us_b / cpu_us_a - 1.0, "ratio",
      "traced vs pass-through cpu_us_per_update on the same fleet");

  // The breakdown: span self times plus the uncovered remainder add up to
  // the traced window's CPU per update.
  char line[200];
  std::snprintf(line, sizeof line,
                "layer breakdown (us/update, traced window, %.0f updates):",
                updates_d);
  table_.push_back(line);
  for (std::size_t l = 1; l < static_cast<std::size_t>(Layer::kCount); ++l) {
    std::snprintf(line, sizeof line, "  %-16s %10.4f  (%llu spans)",
                  layer_name(static_cast<Layer>(l)),
                  static_cast<double>(b.layer[l].self_ns) / 1e3 / updates_d,
                  static_cast<unsigned long long>(b.layer[l].spans));
    table_.push_back(line);
  }
  std::snprintf(line, sizeof line, "  %-16s %10.4f  (%s remainder: CPU not in spans)",
                spec_.sim ? "sim.engine" : "netio", remainder_us,
                remainder_us >= 0 ? "non-negative" : "NEGATIVE");
  table_.push_back(line);
  std::snprintf(line, sizeof line, "  %-16s %10.4f  (cpu_us_per_update, traced)",
                "total", cpu_us_b);
  table_.push_back(line);
  std::snprintf(line, sizeof line,
                "  untraced window cpu_us_per_update %.4f; pump self %.4f us/update "
                "(includes idle waits)",
                cpu_us_a,
                static_cast<double>(span(Layer::kPump).self_ns) / 1e3 / updates_d);
  table_.push_back(line);
  if (tracer_.dropped_records() > 0) {
    std::snprintf(line, sizeof line, "  span records kept %zu, beyond cap %llu",
                  tracer_.records().size(),
                  static_cast<unsigned long long>(tracer_.dropped_records()));
    table_.push_back(line);
  }
}

int Bench::run() {
  // The simulator boots five fleets, alternating the run's seed and the
  // next one: fleets of one seed must agree on the event count and the
  // root series, fleets of the two seeds must not. The last fleet built is
  // the measured one. A UDP fleet takes 16 s to boot, so it boots once.
  std::vector<std::uint64_t> seeds = {args_.seed};
  if (spec_.sim) {
    const std::uint64_t s = args_.seed;
    seeds = {s, s + 1, s, s + 1, s};
  }
  std::vector<std::uint64_t> digests;
  std::unique_ptr<Fleet> fleet;
  for (const std::uint64_t seed : seeds) {
    fleet.reset();
    fleet = make_fleet(seed);
    const double t0 = wall_now_s();
    const bool converged = fleet->boot();
    setup_s_.push_back(wall_now_s() - t0);
    if (!converged) {
      fail("fleet did not converge");
      break;
    }
    leaf_calls_ = 0;
    start_trees(*fleet, seed);
    if (spec_.sim) {
      fleet->pump_for(3'000'000);
      digests.push_back(digest(*fleet));
    }
  }
  char line[200];
  if (spec_.sim && digests.size() == seeds.size()) {
    bool same = true;
    bool differs = true;
    for (std::size_t i = 2; i < digests.size(); ++i) {
      same = same && digests[i] == digests[i - 2];
    }
    for (std::size_t i = 1; i < digests.size(); ++i) {
      differs = differs && digests[i] != digests[i - 1];
    }
    std::snprintf(line, sizeof line,
                  "determinism: seeds %llu and %llu, 5 boots -> same seed %s, "
                  "other seed %s",
                  static_cast<unsigned long long>(args_.seed),
                  static_cast<unsigned long long>(args_.seed + 1),
                  same ? "identical" : "DIFFERENT",
                  differs ? "different" : "IDENTICAL");
    table_.push_back(line);
    if (!same) fail("same seed, different run");
    if (!differs) fail("seed argument ignored");
  }

  if (correct_) {
    if (spec_.query_rate > 0) {
      query_interval_us_ = static_cast<std::uint64_t>(1e6 / spec_.query_rate);
      query_rng_ = dat::Rng(args_.seed * 7919 + 17);
      const double horizon_s = static_cast<double>(spec_.warmup_us) / 1e6 +
                               args_.seconds * (args_.trace ? 2 : 1) + 5;
      queries_.reserve(static_cast<std::size_t>(spec_.query_rate * horizon_s));
      next_due_us_ = fleet->substrate().now_us();
    }
    tracer_.set_bands({
        {spec_.epoch_us, spec_.epoch_us, Layer::kDat},
        {spec_.selfmon_epoch_us, spec_.selfmon_epoch_us, Layer::kObs},
        {spec_.fleet.node.stabilize_interval_us,
         spec_.fleet.node.stabilize_interval_us + spec_.fleet.node.start_jitter_us,
         Layer::kChord},
        {spec_.fleet.node.fix_fingers_interval_us,
         spec_.fleet.node.fix_fingers_interval_us + spec_.fleet.node.start_jitter_us,
         Layer::kChord},
        {spec_.fleet.node.check_predecessor_interval_us,
         spec_.fleet.node.check_predecessor_interval_us +
             spec_.fleet.node.start_jitter_us,
         Layer::kChord},
    });
    // Warm-up: trees fill, selfmon meta-trees settle, queries start.
    {
      const std::uint64_t end = fleet->substrate().now_us() + spec_.warmup_us;
      for (std::uint64_t now = fleet->substrate().now_us(); now < end;
           now = fleet->substrate().now_us()) {
        issue_due_queries(*fleet, now);
        fleet->pump(std::min<std::uint64_t>(end - now, spec_.sim ? 100'000 : 1'000));
      }
    }
    const Window untraced = measure(*fleet, args_.seconds);
    if (!args_.trace) {
      report_end_to_end(*fleet, untraced);
    } else {
      tracer_.set_enabled(true);
      const Window traced = measure(*fleet, args_.seconds);
      tracer_.set_enabled(false);
      report_layers(*fleet, untraced, traced);
      if (!args_.trace_dir.empty()) {
        const std::string path = args_.trace_dir + "/spans-" + spec_.name +
                                 "-seed" + std::to_string(args_.seed) + ".csv";
        if (tracer_.write_csv(path)) table_.push_back("spans written to " + path);
      }
    }
  }

  for (const std::string& t : table_) std::printf("%s\n", t.c_str());
  for (const Metric& m : metrics_) {
    std::printf("%-30s %.6g %s%s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  (", m.note.c_str(),
                m.note.empty() ? "" : ")");
  }
  for (const std::string& p : problems_) std::printf("CHECK FAILED: %s\n", p.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics_[i].name.c_str(),
                std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0,
                metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  // Skip the graceful teardown: the process exits and the kernel closes
  // every socket.
  std::_Exit(correct_ ? 0 : 3);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else if (flag == "--trace-dir") {
        args.trace_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload deploy64|saturate64|sim256 "
                 "--seed N --seconds S --trace 0|1 [--git-sha SHA] "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  const auto spec = spec_for(args.workload);
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf(
      "envelope {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"traced\": %s, \"git_sha\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %ld, \"mmsg\": %s, \"compiler\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? "true" : "false", args.git_sha.c_str(),
      PERFBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN),
      dat::netio::mmsg_compiled() ? "true" : "false", __VERSION__);
  if (PERFBENCH_INSTRUMENTED) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a sanitizer, coverage or "
                 "debug build\n");
    return 2;
  }
  if (!alloc_selftest()) {
    std::fprintf(stderr, "perfbench: allocation counter self-test failed\n");
    return 2;
  }
  std::printf("alloc self-test: ok\n");
  try {
    Bench bench(*spec, args);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
