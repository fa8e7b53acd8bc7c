#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "dat/aggregate.hpp"
#include "chord/routing.hpp"
#include "net/endpoint.hpp"
#include "obs/export.hpp"

namespace dat::datd {

/// Everything a datd process needs to boot, collected from a line-based
/// config file ("key value", '#' comments) overridden by command-line
/// flags. The file supplies defaults; any flag given on the command line
/// wins, which is how the supervisor runs a whole fleet off one file plus
/// per-slot --port/--value overrides.
struct Config {
  // -- identity / ring -------------------------------------------------------
  unsigned bits = 16;           ///< identifier-space bits
  std::uint16_t port = 0;       ///< UDP port to bind (0 = OS-assigned)
  bool create = false;          ///< bootstrap a fresh ring instead of joining
  std::vector<std::string> seeds;  ///< "ip:port" join targets, tried in order
  std::uint64_t seed = 1;       ///< rng seed (identifier probing etc.)
  std::uint64_t incarnation = 0;  ///< restart generation, supervisor-managed

  // -- bootstrap retry (PR 2 backoff shape: capped decorrelated jitter) ------
  unsigned join_attempts = 10;
  std::uint64_t backoff_base_ms = 25;
  std::uint64_t backoff_cap_ms = 2000;

  // -- aggregation workload --------------------------------------------------
  std::string aggregate = "cpu-usage";
  unsigned replicas = 1;
  core::AggregateKind kind = core::AggregateKind::kSum;
  chord::RoutingScheme scheme = chord::RoutingScheme::kBalanced;
  double value = 1.0;           ///< this node's fixed local value x_i
  std::uint64_t epoch_ms = 200;  ///< continuous push period

  // -- lifecycle -------------------------------------------------------------
  std::uint64_t drain_deadline_ms = 5000;  ///< SIGTERM hard deadline
  std::uint64_t handoff_ttl_ms = 60'000;   ///< drain redirect freshness

  // -- telemetry -------------------------------------------------------------
  std::string metrics_out;             ///< path; empty disables the dump
  std::uint64_t metrics_period_ms = 1000;
  obs::ExportFormat metrics_format = obs::ExportFormat::kPrometheus;
  /// datd.metrics chunk size: pages larger than this travel as a seq/total
  /// continuation the admin client reassembles. Tunable mostly so tests can
  /// force multi-chunk pages with a small value.
  std::uint64_t metrics_chunk = 48'000;

  // -- self-monitoring -------------------------------------------------------
  bool selfmon = true;                   ///< feed dat_* telemetry into meta-trees
  std::uint64_t selfmon_epoch_ms = 1000;  ///< telemetry epoch
  std::uint64_t fleet_size = 0;  ///< configured fleet size for coverage SLOs
  std::string slo_rules;         ///< SLO ruleset file; empty = built-in defaults
  std::string postmortem_dir;    ///< crash-dump directory; empty = disabled

  /// Declares every config key as a CliFlags flag, seeded with this
  /// config's current values as defaults.
  [[nodiscard]] CliFlags make_flags() const;

  /// Reads every flag back. Throws std::invalid_argument on out-of-range or
  /// unparseable values (bad kind/scheme/format/endpoint, bits outside
  /// [4, 63], replicas == 0, neither --create nor --seeds).
  static Config from_flags(const CliFlags& flags);

  /// Parses a config file into `*this` (later keys override earlier ones).
  /// Keys are the flag names; unknown keys throw std::invalid_argument with
  /// the offending line.
  void load_file(const std::string& path);

  [[nodiscard]] std::string seeds_csv() const;
};

/// Parses "a.b.c.d:port" into a packed loopback/LAN endpoint. Throws
/// std::invalid_argument on malformed input or port 0.
[[nodiscard]] net::Endpoint parse_endpoint(const std::string& hostport);

[[nodiscard]] core::AggregateKind aggregate_kind_from_name(
    const std::string& name);
[[nodiscard]] chord::RoutingScheme routing_scheme_from_name(
    const std::string& name);
[[nodiscard]] obs::ExportFormat export_format_from_name(
    const std::string& name);

}  // namespace dat::datd
