#include "obs/selfmon.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace dat::obs {

// -- SLO rules ----------------------------------------------------------------

const char* to_string(SloStat s) noexcept {
  switch (s) {
    case SloStat::kValue: return "value";
    case SloStat::kSum: return "sum";
    case SloStat::kCount: return "count";
    case SloStat::kMin: return "min";
    case SloStat::kMax: return "max";
    case SloStat::kAvg: return "avg";
    case SloStat::kP50: return "p50";
    case SloStat::kP90: return "p90";
    case SloStat::kP99: return "p99";
  }
  return "?";
}

const char* to_string(SloOp o) noexcept {
  switch (o) {
    case SloOp::kLt: return "<";
    case SloOp::kLe: return "<=";
    case SloOp::kGt: return ">";
    case SloOp::kGe: return ">=";
    case SloOp::kEq: return "==";
    case SloOp::kNe: return "!=";
  }
  return "?";
}

namespace {

SloStat stat_from(const std::string& token) {
  for (const SloStat s :
       {SloStat::kValue, SloStat::kSum, SloStat::kCount, SloStat::kMin,
        SloStat::kMax, SloStat::kAvg, SloStat::kP50, SloStat::kP90,
        SloStat::kP99}) {
    if (token == to_string(s)) return s;
  }
  throw std::invalid_argument("slo: unknown stat \"" + token + "\"");
}

SloOp op_from(const std::string& token) {
  for (const SloOp o : {SloOp::kLt, SloOp::kLe, SloOp::kGt, SloOp::kGe,
                        SloOp::kEq, SloOp::kNe}) {
    if (token == to_string(o)) return o;
  }
  throw std::invalid_argument("slo: unknown operator \"" + token + "\"");
}

bool compare(double value, SloOp op, double threshold) noexcept {
  switch (op) {
    case SloOp::kLt: return value < threshold;
    case SloOp::kLe: return value <= threshold;
    case SloOp::kGt: return value > threshold;
    case SloOp::kGe: return value >= threshold;
    case SloOp::kEq: return value == threshold;
    case SloOp::kNe: return value != threshold;
  }
  return false;
}

/// Whether a tree whose updates have `shape` aggregates the fields `stat`
/// reads; any other field at its root holds only the root's own sample.
bool carried(SloStat stat, core::StateShape shape) noexcept {
  switch (stat) {
    case SloStat::kValue:
    case SloStat::kCount: return true;
    case SloStat::kSum:
    case SloStat::kAvg: return shape.sum;
    case SloStat::kMin: return shape.min;
    case SloStat::kMax: return shape.max;
    case SloStat::kP50:
    case SloStat::kP90:
    case SloStat::kP99: return shape.hist;
  }
  return false;
}

/// The statistic a rule reads off a root state; nullopt = not computable
/// yet (empty aggregate, no histogram payload), which skips the evaluation
/// rather than fabricating a breach.
std::optional<double> eval_stat(SloStat stat, const core::AggState& s,
                                core::AggregateKind kind) {
  using core::AggregateKind;
  switch (stat) {
    case SloStat::kValue:
      if (s.empty() && kind != AggregateKind::kSum &&
          kind != AggregateKind::kCount &&
          kind != AggregateKind::kHistogram) {
        return std::nullopt;
      }
      return s.result(kind);
    case SloStat::kSum:
      return s.sum;
    case SloStat::kCount:
      return static_cast<double>(s.count);
    case SloStat::kMin:
      if (s.empty()) return std::nullopt;
      return s.min;
    case SloStat::kMax:
      if (s.empty()) return std::nullopt;
      return s.max;
    case SloStat::kAvg:
      if (s.empty()) return std::nullopt;
      return s.sum / static_cast<double>(s.count);
    case SloStat::kP50:
    case SloStat::kP90:
    case SloStat::kP99: {
      if (s.hist.empty()) return std::nullopt;
      const double q = stat == SloStat::kP50   ? 0.5
                       : stat == SloStat::kP90 ? 0.9
                                               : 0.99;
      return s.quantile(q);
    }
  }
  return std::nullopt;
}

constexpr std::uint32_t kMaxWireList = 256;
/// A cached root view older than this many telemetry epochs is stale and
/// skipped by rule evaluation.
constexpr std::uint64_t kViewTtlEpochs = 4;

}  // namespace

SloRuleset SloRuleset::defaults() {
  SloRuleset set;
  // Coverage: every configured node reports into the meta-tree. Fires when
  // a kill wave drops leaves out, clears once the fleet converges back.
  SloRule coverage;
  coverage.name = "coverage";
  coverage.series = "nodes";
  coverage.stat = SloStat::kCount;
  coverage.op = SloOp::kEq;
  coverage.threshold_is_fleet = true;
  set.rules.push_back(std::move(coverage));
  // Fleet-wide RPC tail latency stays under half a second.
  SloRule p99;
  p99.name = "rpc-p99";
  p99.series = "rpc.latency";
  p99.stat = SloStat::kP99;
  p99.op = SloOp::kLt;
  p99.threshold = 500'000.0;
  set.rules.push_back(std::move(p99));
  return set;
}

SloRuleset SloRuleset::parse(const std::string& text) {
  SloRuleset set;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    SloRule rule;
    std::string stat;
    std::string op;
    std::string threshold;
    fields >> rule.name >> rule.series >> stat >> op >> threshold;
    if (!fields && fields.eof() && threshold.empty()) {
      throw std::invalid_argument("slo: short rule line \"" + line + "\"");
    }
    rule.stat = stat_from(stat);
    rule.op = op_from(op);
    if (threshold == "fleet") {
      rule.threshold_is_fleet = true;
    } else {
      try {
        rule.threshold = std::stod(threshold);
      } catch (const std::exception&) {
        throw std::invalid_argument("slo: bad threshold \"" + threshold +
                                    "\" in \"" + line + "\"");
      }
    }
    std::string word;
    while (fields >> word) {
      unsigned n = 0;
      if (!(fields >> n) || n == 0) {
        throw std::invalid_argument("slo: bad modifier \"" + word +
                                    "\" in \"" + line + "\"");
      }
      if (word == "fire") {
        rule.fire_epochs = n;
      } else if (word == "clear") {
        rule.clear_epochs = n;
      } else {
        throw std::invalid_argument("slo: unknown modifier \"" + word +
                                    "\" in \"" + line + "\"");
      }
    }
    // A name keys the dat_slo_rule_firing gauge and alert_firing().
    for (const SloRule& earlier : set.rules) {
      if (earlier.name == rule.name) {
        throw std::invalid_argument("slo: duplicate rule name \"" +
                                    rule.name + "\"");
      }
    }
    set.rules.push_back(std::move(rule));
  }
  return set;
}

std::string SloRuleset::to_spec() const {
  std::string out;
  for (const SloRule& rule : rules) {
    out += rule.name + " " + rule.series + " " + to_string(rule.stat) + " " +
           to_string(rule.op) + " ";
    if (rule.threshold_is_fleet) {
      out += "fleet";
    } else {
      std::ostringstream num;
      num << rule.threshold;
      out += num.str();
    }
    out += " fire " + std::to_string(rule.fire_epochs) + " clear " +
           std::to_string(rule.clear_epochs) + "\n";
  }
  return out;
}

void write_alerts(net::Writer& w, const std::vector<Alert>& alerts) {
  w.u32(static_cast<std::uint32_t>(alerts.size()));
  for (const Alert& a : alerts) {
    w.str(a.rule);
    w.str(a.series);
    w.boolean(a.firing);
    w.f64(a.value);
    w.f64(a.threshold);
    w.u64(a.since_us);
    w.u64(a.breaches);
  }
}

std::vector<Alert> read_alerts(net::Reader& r) {
  const std::uint32_t n = r.u32();
  if (n > kMaxWireList) {
    throw net::CodecError({net::DecodeErrorCode::kLengthOverflow, r.position()},
                          "read_alerts");
  }
  std::vector<Alert> alerts(n);
  for (Alert& a : alerts) {
    a.rule = r.str();
    a.series = r.str();
    a.firing = r.boolean();
    a.value = r.f64();
    a.threshold = r.f64();
    a.since_us = r.u64();
    a.breaches = r.u64();
  }
  return alerts;
}

// -- SelfMonitor --------------------------------------------------------------

std::vector<SelfMonSeries> SelfMonitor::default_series() {
  using core::AggregateKind;
  return {
      // Coverage: the constant-1 series whose fleet sum/count is the number
      // of nodes currently feeding the meta-tree.
      {"nodes", "", AggregateKind::kSum},
      // Counters -> sum trees (fleet totals; dashboards derive rates).
      {"net.msgs", "dat_net_messages_sent_total", AggregateKind::kSum},
      {"rpc.retries", "dat_rpc_retransmits_total", AggregateKind::kSum},
      // Gauges -> max/min trees.
      {"proc.rss", "dat_daemon_rss_bytes", AggregateKind::kMax},
      {"proc.uptime", "dat_daemon_uptime_us", AggregateKind::kMin},
      // The mergeable histogram aggregate: fleet-wide RPC latency
      // distribution, quantiles read at the root.
      {"rpc.latency", "dat_rpc_latency_us", AggregateKind::kHistogram},
  };
}

SelfMonitor::SelfMonitor(core::DatNode& dat, SelfMonitorOptions options)
    : dat_(dat), options_(std::move(options)) {
  if (options_.epoch_us == 0) options_.epoch_us = 1'000'000;
  series_ = options_.series.empty() ? default_series() : options_.series;
  rules_ = (options_.rules.rules.empty() ? SloRuleset::defaults()
                                         : options_.rules)
               .rules;
  rule_states_.resize(rules_.size());
  publish_.resize(series_.size());
  views_.resize(series_.size());
  for (std::size_t i = 0; i < series_.size(); ++i) {
    views_[i].name = series_[i].name;
    views_[i].kind = series_[i].kind;
  }
  // A rule reads its published series' view, else the watched root of the
  // application tree it names (one view per distinct tree).
  rule_views_.reserve(rules_.size());
  for (const SloRule& rule : rules_) {
    std::size_t v = 0;
    while (v < views_.size() && views_[v].name != rule.series) ++v;
    if (v >= series_.size() && rule.stat == SloStat::kValue) {
      throw std::invalid_argument("slo: rule \"" + rule.name +
                                  "\" reads the value of unpublished tree \"" +
                                  rule.series + "\"");
    }
    if (v == views_.size()) views_.emplace_back().name = rule.series;
    rule_views_.push_back(v);
  }

  MetricsRegistry& reg = dat_.chord().telemetry().registry;
  m_ticks_ = &reg.counter("dat_selfmon_ticks_total");
  m_queries_ = &reg.counter("dat_selfmon_queries_total");
  m_query_failures_ = &reg.counter("dat_selfmon_query_failures_total");
  m_evaluations_ = &reg.counter("dat_slo_evaluations_total");
  m_breaches_ = &reg.counter("dat_slo_breaches_total");
  m_alerts_firing_ = &reg.gauge("dat_slo_alerts_firing");
  m_coverage_ = &reg.gauge("dat_selfmon_coverage");
  rule_gauges_.reserve(rules_.size());
  for (const SloRule& rule : rules_) {
    rule_gauges_.push_back(
        &reg.gauge("dat_slo_rule_firing", {{"rule", rule.name}}));
  }

  keys_.reserve(views_.size());
  for (std::size_t i = 0; i < series_.size(); ++i) {
    keys_.push_back(dat_.start_aggregate_state(
        tree_name(series_[i].name), series_[i].kind, options_.scheme,
        [this, i] { return publish_state(i); }, options_.epoch_us));
  }
  for (std::size_t i = series_.size(); i < views_.size(); ++i) {
    keys_.push_back(core::rendezvous_key(views_[i].name, dat_.chord().space()));
  }
  alive_token_ = std::make_shared<bool>(true);
  arm_tick();
}

SelfMonitor::~SelfMonitor() {
  alive_ = false;
  *alive_token_ = false;
  if (timer_ != 0) dat_.chord().rpc().transport().cancel_timer(timer_);
  // The leaf closures capture `this`; drop the table entries before the
  // captures dangle. Peers' updates re-create passive relay entries as
  // needed.
  for (std::size_t i = 0; i < series_.size(); ++i) {
    dat_.stop_aggregate(keys_[i]);
  }
}

void SelfMonitor::arm_tick() {
  timer_ = dat_.chord().rpc().transport().set_timer(options_.epoch_us,
                                                    [this] {
                                                      if (!alive_) return;
                                                      tick();
                                                      arm_tick();
                                                    });
}

void SelfMonitor::refresh_publish_states(std::uint64_t now_us) {
  if (publish_refreshed_us_ != 0 &&
      now_us - publish_refreshed_us_ < options_.epoch_us) {
    return;
  }
  publish_refreshed_us_ = now_us;
  const MetricsSnapshot snapshot =
      dat_.chord().telemetry().registry.snapshot();
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const SelfMonSeries& spec = series_[i];
    if (spec.metric.empty()) {
      publish_[i] = core::AggState::of(1.0);
      continue;
    }
    const Sample* sample = snapshot.find(spec.metric);
    if (sample == nullptr) {
      publish_[i] = core::AggState::identity();
      continue;
    }
    if (spec.kind == core::AggregateKind::kHistogram) {
      publish_[i] = core::AggState::of_histogram(
          sample->buckets, static_cast<double>(sample->sum));
    } else {
      publish_[i] = core::AggState::of(sample->value);
    }
  }
}

core::AggState SelfMonitor::publish_state(std::size_t index) {
  refresh_publish_states(dat_.chord().rpc().transport().now_us());
  return publish_[index];
}

void SelfMonitor::tick() {
  const std::uint64_t now = dat_.chord().rpc().transport().now_us();
  m_ticks_->inc();
  refresh_publish_states(now);
  if (!dat_.draining()) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      m_queries_->inc();
      dat_.query_global(
          keys_[i],
          [this, i, token = std::weak_ptr<bool>(alive_token_)](
              net::RpcStatus status,
              std::optional<core::GlobalValue> global) {
            const auto alive = token.lock();
            if (!alive || !*alive) return;
            if (status != net::RpcStatus::kOk || !global.has_value()) {
              m_query_failures_->inc();
              return;
            }
            SeriesView& view = views_[i];
            view.state = global->state;
            view.epoch = global->epoch;
            view.updated_at_us = global->updated_at_us;
            view.fetched_at_us = dat_.chord().rpc().transport().now_us();
          });
    }
  }
  evaluate(now);
}

void SelfMonitor::evaluate(std::uint64_t now_us) {
  const std::uint64_t ttl = kViewTtlEpochs * options_.epoch_us;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    RuleState& st = rule_states_[i];
    if (rule.threshold_is_fleet && options_.fleet_size == 0) continue;
    const double threshold = rule.threshold_is_fleet
                                 ? static_cast<double>(options_.fleet_size)
                                 : rule.threshold;
    const SeriesView& view = views_[rule_views_[i]];
    if (view.fetched_at_us == 0 || now_us - view.fetched_at_us > ttl) {
      continue;  // no fresh root data; hold the current alert state
    }
    if (view.epoch == st.seen_epoch &&
        view.updated_at_us == st.seen_updated_at_us) {
      continue;  // this root reading was already counted
    }
    // A published series' kind is known: a stat its updates do not carry
    // would read the root's own sample, so the rule is skipped. A watched
    // application tree's kind is not known here; its rule must name a stat
    // that tree carries.
    const bool published = rule_views_[i] < series_.size();
    if (published && !carried(rule.stat, core::shape_of(view.kind))) continue;
    const std::optional<double> value =
        eval_stat(rule.stat, view.state, view.kind);
    if (!value.has_value()) continue;
    st.seen_epoch = view.epoch;
    st.seen_updated_at_us = view.updated_at_us;
    m_evaluations_->inc();
    st.evaluated = true;
    st.last_value = *value;
    st.last_threshold = threshold;
    if (compare(*value, rule.op, threshold)) {
      ++st.ok_streak;
      st.breach_streak = 0;
      if (st.firing && st.ok_streak >= rule.clear_epochs) st.firing = false;
    } else {
      ++st.breaches;
      m_breaches_->inc();
      ++st.breach_streak;
      st.ok_streak = 0;
      if (!st.firing && st.breach_streak >= rule.fire_epochs) {
        st.firing = true;
        st.since_us = now_us;
      }
    }
    rule_gauges_[i]->set(st.firing ? 1 : 0);
  }
  std::int64_t firing = 0;
  for (const RuleState& st : rule_states_) firing += st.firing ? 1 : 0;
  m_alerts_firing_->set(firing);
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const SeriesView& v = views_[i];
    if (v.name == "nodes" && v.fetched_at_us != 0) {
      m_coverage_->set(static_cast<std::int64_t>(v.state.count));
    }
  }
}

std::vector<Alert> SelfMonitor::alerts() const {
  std::vector<Alert> out;
  out.reserve(rules_.size());
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    const RuleState& st = rule_states_[i];
    Alert a;
    a.rule = rule.name;
    a.series = rule.series;
    a.firing = st.firing;
    a.value = st.last_value;
    a.threshold = st.last_threshold;
    a.since_us = st.since_us;
    a.breaches = st.breaches;
    out.push_back(std::move(a));
  }
  return out;
}

bool SelfMonitor::alert_firing(const std::string& rule) const {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].name == rule) return rule_states_[i].firing;
  }
  return false;
}

SelfMonitor::FleetView SelfMonitor::view() const {
  FleetView out;
  out.now_us = dat_.chord().rpc().transport().now_us();
  out.fleet_size = options_.fleet_size;
  out.epoch_us = options_.epoch_us;
  out.series.assign(views_.begin(), views_.begin() + series_.size());
  for (std::size_t i = 0; i < out.series.size(); ++i) {
    out.series[i].local_children =
        static_cast<std::uint32_t>(dat_.child_count(keys_[i]));
  }
  out.alerts = alerts();
  return out;
}

Id SelfMonitor::series_key(const std::string& name) const {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) return keys_[i];
  }
  return 0;
}

const SelfMonitor::SeriesView* SelfMonitor::FleetView::find(
    const std::string& name) const {
  for (const SeriesView& v : series) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

void write_fleet_view(net::Writer& w, const SelfMonitor::FleetView& view) {
  w.u64(view.now_us);
  w.u64(view.fleet_size);
  w.u64(view.epoch_us);
  w.u32(static_cast<std::uint32_t>(view.series.size()));
  for (const SelfMonitor::SeriesView& v : view.series) {
    w.str(v.name);
    w.u8(static_cast<std::uint8_t>(v.kind));
    core::write_agg_state(w, v.state);
    w.u64(v.epoch);
    w.u64(v.updated_at_us);
    w.u64(v.fetched_at_us);
    w.u32(v.local_children);
  }
  write_alerts(w, view.alerts);
}

SelfMonitor::FleetView read_fleet_view(net::Reader& r) {
  SelfMonitor::FleetView view;
  view.now_us = r.u64();
  view.fleet_size = r.u64();
  view.epoch_us = r.u64();
  const std::uint32_t n = r.u32();
  if (n > kMaxWireList) {
    throw net::CodecError({net::DecodeErrorCode::kLengthOverflow, r.position()},
                          "read_fleet_view");
  }
  view.series.resize(n);
  for (SelfMonitor::SeriesView& v : view.series) {
    v.name = r.str();
    v.kind = core::aggregate_kind_from(r.u8());
    v.state = core::read_agg_state(r);
    v.epoch = r.u64();
    v.updated_at_us = r.u64();
    v.fetched_at_us = r.u64();
    v.local_children = r.u32();
  }
  view.alerts = read_alerts(r);
  return view;
}

}  // namespace dat::obs
