#include "datd/config.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace dat::datd {

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream input(csv);
  while (std::getline(input, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

net::Endpoint parse_endpoint(const std::string& hostport) {
  const auto colon = hostport.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= hostport.size()) {
    throw std::invalid_argument("bad endpoint \"" + hostport +
                                "\" (want a.b.c.d:port)");
  }
  unsigned octets[4] = {0, 0, 0, 0};
  char dot1 = 0;
  char dot2 = 0;
  char dot3 = 0;
  std::istringstream host(hostport.substr(0, colon));
  host >> octets[0] >> dot1 >> octets[1] >> dot2 >> octets[2] >> dot3 >>
      octets[3];
  if (!host || !host.eof() || dot1 != '.' || dot2 != '.' || dot3 != '.' ||
      octets[0] > 255 || octets[1] > 255 || octets[2] > 255 ||
      octets[3] > 255) {
    throw std::invalid_argument("bad endpoint host in \"" + hostport + "\"");
  }
  unsigned long port = 0;
  try {
    port = std::stoul(hostport.substr(colon + 1));
  } catch (const std::exception&) {
    throw std::invalid_argument("bad endpoint port in \"" + hostport + "\"");
  }
  if (port == 0 || port > 65535) {
    throw std::invalid_argument("endpoint port out of range in \"" + hostport +
                                "\"");
  }
  const std::uint32_t ip = (octets[0] << 24) | (octets[1] << 16) |
                           (octets[2] << 8) | octets[3];
  return net::make_udp_endpoint(ip, static_cast<std::uint16_t>(port));
}

core::AggregateKind aggregate_kind_from_name(const std::string& name) {
  if (name == "sum") return core::AggregateKind::kSum;
  if (name == "count") return core::AggregateKind::kCount;
  if (name == "avg") return core::AggregateKind::kAvg;
  if (name == "min") return core::AggregateKind::kMin;
  if (name == "max") return core::AggregateKind::kMax;
  if (name == "variance") return core::AggregateKind::kVariance;
  if (name == "stddev") return core::AggregateKind::kStddev;
  if (name == "histogram") return core::AggregateKind::kHistogram;
  throw std::invalid_argument(
      "unknown aggregate kind \"" + name +
      "\" (valid: sum, count, avg, min, max, variance, stddev, histogram)");
}

chord::RoutingScheme routing_scheme_from_name(const std::string& name) {
  if (name == "balanced") return chord::RoutingScheme::kBalanced;
  if (name == "greedy") return chord::RoutingScheme::kGreedy;
  throw std::invalid_argument("unknown routing scheme \"" + name +
                              "\" (valid: balanced, greedy)");
}

obs::ExportFormat export_format_from_name(const std::string& name) {
  if (name == "prom" || name == "prometheus") {
    return obs::ExportFormat::kPrometheus;
  }
  if (name == "json") return obs::ExportFormat::kJson;
  throw std::invalid_argument("unknown metrics format \"" + name +
                              "\" (valid: prom, json)");
}

std::string Config::seeds_csv() const {
  std::string csv;
  for (const std::string& s : seeds) {
    if (!csv.empty()) csv += ',';
    csv += s;
  }
  return csv;
}

CliFlags Config::make_flags() const {
  const char* kind_name = core::to_string(kind);
  const char* scheme_name = chord::to_string(scheme);
  CliFlags flags;
  flags.flag("config", std::string(), "config file (key value lines)")
      .flag("bits", static_cast<std::int64_t>(bits), "identifier-space bits")
      .flag("port", static_cast<std::int64_t>(port),
            "UDP port to bind (0 = OS-assigned)")
      .flag("create", create, "bootstrap a fresh ring instead of joining")
      .flag("seeds", seeds_csv(), "comma-separated ip:port join targets")
      .flag("seed", static_cast<std::int64_t>(seed), "rng seed")
      .flag("incarnation", static_cast<std::int64_t>(incarnation),
            "restart generation (supervisor-managed)")
      .flag("join-attempts", static_cast<std::int64_t>(join_attempts),
            "bootstrap attempts across the seed list before giving up")
      .flag("backoff-base-ms", static_cast<std::int64_t>(backoff_base_ms),
            "decorrelated-jitter backoff base")
      .flag("backoff-cap-ms", static_cast<std::int64_t>(backoff_cap_ms),
            "decorrelated-jitter backoff cap")
      .flag("aggregate", aggregate, "aggregate attribute name")
      .flag("replicas", static_cast<std::int64_t>(replicas),
            "replica trees per aggregate")
      .flag("kind", std::string(kind_name),
            "aggregate kind: sum|count|avg|min|max|variance|stddev|histogram")
      .flag("scheme", std::string(scheme_name),
            "parent-selection scheme: balanced|greedy")
      .flag("value", value, "this node's local value x_i")
      .flag("epoch-ms", static_cast<std::int64_t>(epoch_ms),
            "continuous push period")
      .flag("drain-deadline-ms",
            static_cast<std::int64_t>(drain_deadline_ms),
            "SIGTERM graceful-drain hard deadline")
      .flag("handoff-ttl-ms", static_cast<std::int64_t>(handoff_ttl_ms),
            "drain handoff redirect freshness")
      .flag("metrics-out", metrics_out,
            "periodic metrics dump path (empty = disabled)")
      .flag("metrics-period-ms",
            static_cast<std::int64_t>(metrics_period_ms),
            "metrics dump period")
      .flag("metrics-format",
            std::string(metrics_format == obs::ExportFormat::kJson ? "json"
                                                                   : "prom"),
            "metrics dump format: prom|json")
      .flag("metrics-chunk", static_cast<std::int64_t>(metrics_chunk),
            "datd.metrics reply chunk size (bytes)")
      .flag("selfmon", selfmon,
            "publish own telemetry into selfmon meta-trees")
      .flag("selfmon-epoch-ms", static_cast<std::int64_t>(selfmon_epoch_ms),
            "self-monitoring telemetry epoch")
      .flag("fleet-size", static_cast<std::int64_t>(fleet_size),
            "configured fleet size for coverage SLO rules (0 = unknown)")
      .flag("slo-rules", slo_rules,
            "SLO ruleset file (empty = built-in defaults)")
      .flag("postmortem-dir", postmortem_dir,
            "crash-dump directory (empty = disabled)");
  return flags;
}

Config Config::from_flags(const CliFlags& flags) {
  Config config;
  const auto uint_flag = [&flags](const char* name, std::int64_t max_value) {
    const std::int64_t v = flags.get_int(name);
    if (v < 0 || v > max_value) {
      throw std::invalid_argument(std::string("--") + name +
                                  " out of range: " + std::to_string(v));
    }
    return static_cast<std::uint64_t>(v);
  };
  config.bits = static_cast<unsigned>(uint_flag("bits", 63));
  if (config.bits < 4) {
    throw std::invalid_argument("--bits must be in [4, 63]");
  }
  config.port = static_cast<std::uint16_t>(uint_flag("port", 65535));
  config.create = flags.get_bool("create");
  config.seeds = split_csv(flags.get_string("seeds"));
  config.seed = uint_flag("seed", std::numeric_limits<std::int64_t>::max());
  config.incarnation =
      uint_flag("incarnation", std::numeric_limits<std::int64_t>::max());
  config.join_attempts =
      static_cast<unsigned>(uint_flag("join-attempts", 1'000'000));
  if (config.join_attempts == 0) {
    throw std::invalid_argument("--join-attempts must be positive");
  }
  config.backoff_base_ms = uint_flag("backoff-base-ms", 3'600'000);
  config.backoff_cap_ms = uint_flag("backoff-cap-ms", 3'600'000);
  if (config.backoff_base_ms == 0 ||
      config.backoff_cap_ms < config.backoff_base_ms) {
    throw std::invalid_argument(
        "--backoff-cap-ms must be >= --backoff-base-ms >= 1");
  }
  config.aggregate = flags.get_string("aggregate");
  if (config.aggregate.empty()) {
    throw std::invalid_argument("--aggregate must be non-empty");
  }
  config.replicas = static_cast<unsigned>(uint_flag("replicas", 64));
  if (config.replicas == 0) {
    throw std::invalid_argument("--replicas must be positive");
  }
  config.kind = aggregate_kind_from_name(flags.get_string("kind"));
  config.scheme = routing_scheme_from_name(flags.get_string("scheme"));
  config.value = flags.get_double("value");
  config.epoch_ms = uint_flag("epoch-ms", 3'600'000);
  if (config.epoch_ms == 0) {
    throw std::invalid_argument("--epoch-ms must be positive");
  }
  config.drain_deadline_ms = uint_flag("drain-deadline-ms", 3'600'000);
  config.handoff_ttl_ms = uint_flag("handoff-ttl-ms", 86'400'000);
  config.metrics_out = flags.get_string("metrics-out");
  config.metrics_period_ms = uint_flag("metrics-period-ms", 3'600'000);
  if (config.metrics_period_ms == 0) {
    throw std::invalid_argument("--metrics-period-ms must be positive");
  }
  config.metrics_format =
      export_format_from_name(flags.get_string("metrics-format"));
  config.metrics_chunk = uint_flag("metrics-chunk", 60'000);
  if (config.metrics_chunk < 256) {
    throw std::invalid_argument("--metrics-chunk must be in [256, 60000]");
  }
  config.selfmon = flags.get_bool("selfmon");
  config.selfmon_epoch_ms = uint_flag("selfmon-epoch-ms", 3'600'000);
  if (config.selfmon_epoch_ms == 0) {
    throw std::invalid_argument("--selfmon-epoch-ms must be positive");
  }
  config.fleet_size = uint_flag("fleet-size", 1'000'000);
  config.slo_rules = flags.get_string("slo-rules");
  config.postmortem_dir = flags.get_string("postmortem-dir");
  if (!config.create && config.seeds.empty()) {
    throw std::invalid_argument(
        "need --create (bootstrap a ring) or --seeds (join one)");
  }
  // Every seed must parse now: a daemon that would only discover a typo
  // after its backoff budget is a deployment error, not a retry case.
  for (const std::string& s : config.seeds) (void)parse_endpoint(s);
  return config;
}

void Config::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open config file: " + path);
  }
  // The file reuses the flag machinery: each "key value" line becomes
  // --key=value, so the two surfaces can never drift apart.
  std::vector<std::string> args;
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string rest;
    fields >> key;
    std::getline(fields, rest);
    const auto value_start = rest.find_first_not_of(" \t");
    rest = value_start == std::string::npos ? "" : rest.substr(value_start);
    const auto value_end = rest.find_last_not_of(" \t\r");
    if (value_end != std::string::npos) rest = rest.substr(0, value_end + 1);
    if (key == "config") {
      throw std::invalid_argument("config files cannot nest: " + line);
    }
    args.push_back("--" + key + (rest.empty() ? "" : "=" + rest));
  }
  CliFlags flags = make_flags();
  if (!flags.parse(args)) {
    throw std::invalid_argument("config file " + path + ": " + flags.error());
  }
  *this = from_flags(flags);
}

}  // namespace dat::datd
