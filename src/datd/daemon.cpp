#include "datd/daemon.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "datd/signals.hpp"
#include "lb/drain.hpp"
#include "obs/export.hpp"
#include "obs/postmortem.hpp"

namespace dat::datd {

namespace {

constexpr std::uint64_t kPumpSliceUs = 50'000;
constexpr std::uint64_t kJoinTimeoutUs = 3'000'000;

}  // namespace

Daemon::Daemon(Config config)
    : config_(std::move(config)),
      space_(config_.bits),
      network_(netio::ReactorOptions{.metrics = &metrics_}) {
  transport_ = &network_.add_node(config_.port);
  chord::NodeOptions node_options;
  node_ = std::make_unique<chord::Node>(space_, *transport_, node_options,
                                        config_.seed);
  core::DatOptions dat_options;
  dat_options.epoch_us = config_.epoch_ms * 1000;
  dat_ = std::make_unique<core::DatNode>(*node_, dat_options);
  runtime_ =
      std::make_unique<obs::ProcessRuntime>(metrics_, config_.incarnation);
  register_admin_handlers();
}

Daemon::~Daemon() {
  // Admin handlers capture `this`; the transport outlives the daemon object
  // only inside network_, which we own, but unregister anyway so a future
  // refactor that detaches the network cannot dispatch into freed memory.
  if (node_) {
    node_->rpc().unregister_method("datd.status");
    node_->rpc().unregister_method("datd.metrics");
    node_->rpc().unregister_method("datd.leave");
    node_->rpc().unregister_method("datd.rebalance");
    node_->rpc().unregister_method("datd.alerts");
    node_->rpc().unregister_method("datd.fleet");
  }
  if (postmortem_installed_) obs::Postmortem::uninstall();
}

bool Daemon::bootstrap() {
  if (config_.create) {
    node_->create();
  } else if (!join_with_retry()) {
    return false;
  }
  aggregate_ = std::make_unique<core::ReplicatedAggregate>(
      *dat_, config_.aggregate, config_.replicas, config_.kind,
      config_.scheme);
  const double value = config_.value;
  aggregate_->start([value] { return value; });
  if (config_.selfmon) {
    obs::SelfMonitorOptions options;
    options.epoch_us = config_.selfmon_epoch_ms * 1000;
    options.fleet_size = config_.fleet_size;
    options.scheme = config_.scheme;
    if (!config_.slo_rules.empty()) {
      std::ifstream rules_in(config_.slo_rules);
      if (!rules_in) {
        std::fprintf(stderr, "datd: cannot open --slo-rules %s\n",
                     config_.slo_rules.c_str());
        return false;
      }
      std::ostringstream text;
      text << rules_in.rdbuf();
      options.rules = obs::SloRuleset::parse(text.str());
    }
    selfmon_ = std::make_unique<obs::SelfMonitor>(*dat_, std::move(options));
  }
  if (!config_.postmortem_dir.empty()) {
    obs::Postmortem::Config pm;
    pm.directory = config_.postmortem_dir;
    pm.recorder = &node_->telemetry().recorder;
    pm.registry = &node_->telemetry().registry;
    postmortem_installed_ = obs::Postmortem::install(std::move(pm));
    if (!postmortem_installed_) {
      std::fprintf(stderr, "datd: postmortem install failed for %s\n",
                   config_.postmortem_dir.c_str());
    }
  }
  return true;
}

bool Daemon::join_with_retry() {
  // Capped decorrelated jitter (the PR-2 backoff shape): each delay is
  // uniform in [base, 3 * previous], clamped to the cap. A cold fleet of 64
  // daemons hammering one seed node decorrelates within a few rounds.
  Rng rng(config_.seed * 7919 + 17);
  std::uint64_t delay_ms = config_.backoff_base_ms;
  for (unsigned attempt = 0; attempt < config_.join_attempts; ++attempt) {
    const std::string& seed_name =
        config_.seeds[attempt % config_.seeds.size()];
    const net::Endpoint bootstrap_ep = parse_endpoint(seed_name);
    bool done = false;
    bool ok = false;
    node_->join(bootstrap_ep, [&](bool joined) {
      done = true;
      ok = joined;
    });
    network_.run_while([&] { return !done; }, kJoinTimeoutUs);
    if (ok) return true;
    // A timed-out join may still be in flight; fail() cancels it (pending
    // callbacks guard on alive_) so the next attempt starts clean.
    node_->fail();
    if (pending_signal() != 0) return false;
    if (attempt + 1 == config_.join_attempts) break;
    const std::uint64_t ceiling =
        std::max<std::uint64_t>(delay_ms * 3, config_.backoff_base_ms + 1);
    delay_ms = std::min(config_.backoff_cap_ms,
                        config_.backoff_base_ms +
                            rng.next_below(ceiling - config_.backoff_base_ms));
    network_.run_for(delay_ms * 1000);
  }
  return false;
}

int Daemon::run() {
  const std::uint64_t dump_period_us = config_.metrics_period_ms * 1000;
  last_dump_us_ = network_.now_us();
  for (;;) {
    network_.run_for(kPumpSliceUs);
    const int sig = consume_signal();
    if (sig == SIGINT || sig == SIGTERM || leave_requested_) {
      const bool clean = drain();
      dump_metrics();
      return clean ? 0 : 1;
    }
    if (network_.now_us() - last_dump_us_ >= dump_period_us) {
      dump_metrics();
      // Keep the crash dump's pre-rendered body current: the handler can
      // only splice in what was rendered before the signal hit.
      if (postmortem_installed_) obs::Postmortem::refresh();
      last_dump_us_ = network_.now_us();
    }
  }
}

bool Daemon::drain() {
  serving_ = false;
  const std::uint64_t deadline =
      network_.now_us() + config_.drain_deadline_ms * 1000;
  const auto remaining = [&]() -> std::uint64_t {
    const std::uint64_t now = network_.now_us();
    return now >= deadline ? 0 : deadline - now;
  };

  // Re-parent every subtree upstream and retract our soft-state records;
  // the entries stay in the table (draining) so stragglers get redirects.
  // ReplicatedAggregate::stop() is deliberately NOT called first — it would
  // erase the entries before they could hand their children off.
  lb::PolicyOptions policy;
  policy.handoff_ttl_us = config_.handoff_ttl_ms * 1000;
  (void)lb::drain_node(*dat_, policy);

  // Let the handoffs, retracts and the children's first re-parented pushes
  // flush — bounded by the hard deadline.
  const std::uint64_t settle_us = std::min<std::uint64_t>(
      remaining(), 2 * config_.epoch_ms * 1000 + 100'000);
  if (settle_us == 0) return false;
  network_.run_for(settle_us);

  if (remaining() == 0) return false;
  node_->leave();
  network_.run_for(std::min<std::uint64_t>(remaining(), 100'000));
  return remaining() > 0;
}

StatusInfo Daemon::status() const {
  StatusInfo info;
  info.pid = static_cast<std::uint64_t>(::getpid());
  info.incarnation = runtime_->incarnation();
  info.uptime_us = runtime_->uptime_us();
  info.serving = serving_ && !dat_->draining();
  info.joined = node_->joined();
  info.self = node_->self();
  info.predecessor = node_->predecessor();
  info.successors = node_->successor_list();
  // Only the payload replica trees: the supervisor's conservation SLO
  // (count == fleet, sum == Σ slot values) holds for these, not for the
  // self-monitoring meta-trees that also live in the DAT table.
  info.aggregate_keys = aggregate_ ? aggregate_->keys()
                                   : std::vector<Id>(dat_->active_keys());
  info.build_sha = obs::build_sha();
  info.build_version = obs::build_version();
  return info;
}

obs::MetricsSnapshot Daemon::telemetry_snapshot() const {
  obs::MetricsSnapshot snapshot = node_->telemetry().registry.snapshot();
  snapshot.merge(metrics_.snapshot());
  return snapshot;
}

void Daemon::dump_metrics() const {
  if (config_.metrics_out.empty()) return;
  const std::string rendered =
      obs::render(telemetry_snapshot(), config_.metrics_format);
  // Write-then-rename so a concurrent scraper never reads a torn file.
  const std::string tmp = config_.metrics_out + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    out << rendered;
  }
  (void)std::rename(tmp.c_str(), config_.metrics_out.c_str());
}

void Daemon::register_admin_handlers() {
  net::RpcManager& rpc = node_->rpc();
  rpc.register_method("datd.status", [this](net::Endpoint, net::Reader&,
                                            net::Writer& reply) {
    status().encode(reply);
  });
  // Chunked scrape: `(format, seq, gen)` in, `(gen, total, seq, chunk)` out.
  // seq 0 renders a fresh page and starts a new generation; continuation
  // requests replay slices of that cached page. A stale `gen` (the page was
  // re-rendered for another scraper meanwhile) answers total=0 and the
  // client restarts from seq 0.
  rpc.register_method("datd.metrics", [this](net::Endpoint, net::Reader& req,
                                             net::Writer& reply) {
    const obs::ExportFormat format = req.u8() == 0
                                         ? obs::ExportFormat::kJson
                                         : obs::ExportFormat::kPrometheus;
    const std::uint32_t seq = req.u32();
    const std::uint64_t gen = req.u64();
    if (seq == 0) {
      metrics_page_ = obs::render(telemetry_snapshot(), format);
      ++metrics_gen_;
    } else if (gen != metrics_gen_) {
      reply.u64(metrics_gen_);
      reply.u32(0);
      reply.u32(seq);
      reply.str(std::string());
      return;
    }
    const std::size_t chunk = config_.metrics_chunk;
    const std::uint32_t total = static_cast<std::uint32_t>(
        metrics_page_.empty() ? 1
                              : (metrics_page_.size() + chunk - 1) / chunk);
    reply.u64(metrics_gen_);
    reply.u32(total);
    reply.u32(seq);
    const std::size_t offset = static_cast<std::size_t>(seq) * chunk;
    reply.str(offset >= metrics_page_.size()
                  ? std::string()
                  : metrics_page_.substr(offset, chunk));
  });
  rpc.register_method("datd.alerts", [this](net::Endpoint, net::Reader&,
                                            net::Writer& reply) {
    reply.boolean(selfmon_ != nullptr);
    obs::write_alerts(reply, selfmon_ ? selfmon_->alerts()
                                      : std::vector<obs::Alert>{});
  });
  rpc.register_method("datd.fleet", [this](net::Endpoint, net::Reader&,
                                           net::Writer& reply) {
    reply.boolean(selfmon_ != nullptr);
    if (selfmon_) obs::write_fleet_view(reply, selfmon_->view());
  });
  rpc.register_method("datd.leave", [this](net::Endpoint, net::Reader&,
                                           net::Writer& reply) {
    // Ack first; run() notices the flag on its next pump slice, after the
    // reply has left the socket.
    leave_requested_ = true;
    reply.boolean(true);
  });
  rpc.register_method("datd.rebalance", [this](net::Endpoint, net::Reader&,
                                               net::Writer& reply) {
    lb::PolicyOptions policy;
    policy.handoff_ttl_us = config_.handoff_ttl_ms * 1000;
    std::uint64_t moved = 0;
    for (const Id key : dat_->active_keys()) {
      moved += dat_->shed_children(key, policy.max_branching,
                                   policy.handoff_ttl_us);
    }
    reply.u64(moved);
  });
}

}  // namespace dat::datd
