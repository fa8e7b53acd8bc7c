#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dat/aggregate.hpp"
#include "dat/dat_node.hpp"
#include "obs/metrics.hpp"

namespace dat::obs {

// -- SLO rules ----------------------------------------------------------------

/// Statistic a rule reads off a tree root's AggState.
enum class SloStat : std::uint8_t {
  kValue = 0,  ///< AggState::result under the series' aggregate kind
               ///< (published selfmon series only)
  kSum = 1,
  kCount = 2,
  kMin = 3,
  kMax = 4,
  kAvg = 5,
  kP50 = 6,  ///< histogram-payload quantiles
  kP90 = 7,
  kP99 = 8,
};

enum class SloOp : std::uint8_t {
  kLt = 0,
  kLe = 1,
  kGt = 2,
  kGe = 3,
  kEq = 4,
  kNe = 5,
};

[[nodiscard]] const char* to_string(SloStat s) noexcept;
[[nodiscard]] const char* to_string(SloOp o) noexcept;

/// One SLO rule: `stat(series) op threshold` states the GOOD condition
/// (e.g. `p99(rpc.latency) < 500000`); the alert fires after `fire_epochs`
/// consecutive breaching root readings and clears after `clear_epochs`
/// consecutive OK ones — the hysteresis that keeps one noisy reading from
/// flapping the alert. `series` names a published selfmon series; any other
/// name watches the application aggregate of that attribute (e.g.
/// `avg(cpu-usage) < 85`). A tree's updates carry only the fields its kind
/// needs (core::shape_of), so a rule reads a stat its tree carries: sum,
/// avg and count for SUM/AVG, min for MIN, max for MAX, quantiles for a
/// histogram. A rule on a published series that does not is skipped.
struct SloRule {
  std::string name;
  std::string series;
  SloStat stat = SloStat::kValue;
  SloOp op = SloOp::kLt;
  double threshold = 0.0;
  /// Threshold token `fleet`: compare against the configured fleet size
  /// (the coverage rule). Rules with this set are skipped when the fleet
  /// size is unknown (0).
  bool threshold_is_fleet = false;
  unsigned fire_epochs = 2;
  unsigned clear_epochs = 2;
};

/// Rule list plus its text format:
///
///   # comment
///   coverage nodes count == fleet fire 2 clear 2
///   rpc-p99  rpc.latency p99 < 500000
///
/// one rule per line: `<name> <series> <stat> <op> <threshold|fleet>
/// [fire <n>] [clear <n>]`.
struct SloRuleset {
  std::vector<SloRule> rules;

  [[nodiscard]] static SloRuleset defaults();
  /// Parses the text format; throws std::invalid_argument on a bad line or
  /// a repeated rule name.
  [[nodiscard]] static SloRuleset parse(const std::string& text);
  [[nodiscard]] std::string to_spec() const;
};

/// Point-in-time alert status of one rule.
struct Alert {
  std::string rule;
  std::string series;
  bool firing = false;
  double value = 0.0;      ///< last evaluated statistic
  double threshold = 0.0;  ///< resolved threshold (fleet token expanded)
  std::uint64_t since_us = 0;   ///< local clock when it last fired (0 = never)
  std::uint64_t breaches = 0;   ///< breach evaluations since construction
};

void write_alerts(net::Writer& w, const std::vector<Alert>& alerts);
[[nodiscard]] std::vector<Alert> read_alerts(net::Reader& r);

// -- self-monitoring ----------------------------------------------------------

/// One published series: a local metric fed into a dedicated meta-DAT tree
/// named `selfmon:<name>`. Counters/rates go into kSum trees, gauges into
/// kMax/kMin trees, and log2-bucket histograms into a kHistogram tree whose
/// root merges every node's buckets bucket-wise.
struct SelfMonSeries {
  std::string name;    ///< series name, e.g. "rpc.latency"
  std::string metric;  ///< registry sample to read; empty = constant 1
                       ///< (the coverage series)
  core::AggregateKind kind = core::AggregateKind::kSum;
};

struct SelfMonitorOptions {
  /// Telemetry epoch: meta-tree push period, fleet-view refresh period and
  /// SLO evaluation period.
  std::uint64_t epoch_us = 1'000'000;
  /// Configured fleet size for coverage rules; 0 = unknown.
  std::uint64_t fleet_size = 0;
  chord::RoutingScheme scheme = chord::RoutingScheme::kBalanced;
  /// Empty = SloRuleset::defaults().
  SloRuleset rules;
  /// Empty = SelfMonitor::default_series().
  std::vector<SelfMonSeries> series;
};

/// Self-monitoring of the monitoring system (the tentpole of the paper's
/// argument applied to ourselves): each node publishes an allowlist of its
/// own `dat_*` telemetry as leaf updates into meta-aggregation DAT trees,
/// so ANY single node can answer fleet-wide health queries in O(log N)
/// routed hops — no scrape-everyone collector. Each telemetry epoch the
/// node also refreshes a cached fleet view by querying the meta-tree roots
/// (and the root of every application tree a rule watches) and evaluates
/// the SLO ruleset against it, firing/clearing alerts that the `datd.fleet`
/// admin RPC (and the chaos campaign's SLO gates) surface.
class SelfMonitor {
 public:
  /// Throws std::invalid_argument when a rule reads the `value` stat of a
  /// watched application tree: its aggregate kind is unknown here.
  SelfMonitor(core::DatNode& dat, SelfMonitorOptions options);
  ~SelfMonitor();

  SelfMonitor(const SelfMonitor&) = delete;
  SelfMonitor& operator=(const SelfMonitor&) = delete;

  [[nodiscard]] static std::vector<SelfMonSeries> default_series();

  /// Meta-tree name of a series: the attribute the rendezvous key hashes.
  [[nodiscard]] static std::string tree_name(const std::string& series) {
    return "selfmon:" + series;
  }

  /// Cached root state of one meta-tree as last fetched by this node.
  struct SeriesView {
    std::string name;
    core::AggregateKind kind = core::AggregateKind::kSum;
    core::AggState state;
    std::uint64_t epoch = 0;           ///< root's aggregation epoch
    std::uint64_t updated_at_us = 0;   ///< root clock of the global value
    std::uint64_t fetched_at_us = 0;   ///< local clock of the fetch; 0 = never
    std::uint32_t local_children = 0;  ///< branching of this node's tree slot
  };

  /// The single-node answer to "how is the fleet?": every cached series
  /// view plus the current alert states.
  struct FleetView {
    std::uint64_t now_us = 0;
    std::uint64_t fleet_size = 0;  ///< configured; 0 = unknown
    std::uint64_t epoch_us = 0;    ///< telemetry epoch of the polled node
    std::vector<SeriesView> series;
    std::vector<Alert> alerts;

    [[nodiscard]] const SeriesView* find(const std::string& name) const;
  };

  [[nodiscard]] FleetView view() const;
  [[nodiscard]] std::vector<Alert> alerts() const;
  /// True while the named rule's alert is firing.
  [[nodiscard]] bool alert_firing(const std::string& rule) const;

  /// One telemetry epoch, exposed for tests: refresh the published leaf
  /// states, query every meta-tree and watched root, evaluate the ruleset.
  /// Runs automatically on the transport timer.
  void tick();

  [[nodiscard]] const SelfMonitorOptions& options() const noexcept {
    return options_;
  }
  /// Rendezvous key of a series' meta-tree (0 when unknown).
  [[nodiscard]] Id series_key(const std::string& name) const;

 private:
  struct RuleState {
    unsigned breach_streak = 0;
    unsigned ok_streak = 0;
    bool firing = false;
    std::uint64_t since_us = 0;
    std::uint64_t breaches = 0;
    double last_value = 0.0;
    double last_threshold = 0.0;
    bool evaluated = false;  ///< at least one non-skipped evaluation
    /// The root reading last evaluated, as (epoch, updated_at_us) of the
    /// view: hysteresis counts root readings, so a cached view re-read on a
    /// later telemetry epoch is not counted again.
    std::uint64_t seen_epoch = 0;
    std::uint64_t seen_updated_at_us = 0;
  };

  void arm_tick();
  /// Re-reads the local registry into the per-series publish states when
  /// the cache is at least an epoch old: one registry snapshot per epoch
  /// serves every series, the tick and every tree push, whichever grid
  /// point the trees push on.
  void refresh_publish_states(std::uint64_t now_us);
  [[nodiscard]] core::AggState publish_state(std::size_t index);
  void evaluate(std::uint64_t now_us);

  core::DatNode& dat_;
  SelfMonitorOptions options_;
  std::vector<SelfMonSeries> series_;
  /// Root keys and cached root views: one per published series, then one
  /// per watched application tree (published nothing, kept out of view()).
  std::vector<Id> keys_;
  std::vector<SeriesView> views_;
  std::vector<core::AggState> publish_;  ///< cached leaf states
  std::uint64_t publish_refreshed_us_ = 0;
  std::vector<SloRule> rules_;
  std::vector<std::size_t> rule_views_;  ///< index into views_ per rule
  std::vector<RuleState> rule_states_;
  net::TimerId timer_ = 0;
  bool alive_ = true;
  /// Lifetime token captured (weakly) by in-flight query callbacks, so a
  /// response landing after destruction is dropped instead of dereferencing
  /// a dead monitor.
  std::shared_ptr<bool> alive_token_;

  Counter* m_ticks_ = nullptr;
  Counter* m_queries_ = nullptr;
  Counter* m_query_failures_ = nullptr;
  Counter* m_evaluations_ = nullptr;
  Counter* m_breaches_ = nullptr;
  Gauge* m_alerts_firing_ = nullptr;
  Gauge* m_coverage_ = nullptr;
  std::vector<Gauge*> rule_gauges_;  ///< dat_slo_rule_firing{rule=...}
};

void write_fleet_view(net::Writer& w, const SelfMonitor::FleetView& view);
[[nodiscard]] SelfMonitor::FleetView read_fleet_view(net::Reader& r);

}  // namespace dat::obs
