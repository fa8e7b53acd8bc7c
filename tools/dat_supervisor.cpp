// dat_supervisor — process-level chaos against a fleet of real datd
// daemons on loopback.
//
//   dat_supervisor --nodes 64 --seed 7                canonical kill plan
//   dat_supervisor --campaign selfmon --nodes 16      alert + postmortem plan
//   dat_supervisor --plan kills.txt --datd ./datd     scripted plan
//   dat_supervisor --nodes 16 --print-plan            show the timeline
//
// Forks one datd per slot through datd::ProcessFleet (slot 0 bootstraps the
// ring, every other slot joins through it) and runs the plan with
// chaos::Campaign, the same runner dat_chaos uses on in-process clusters:
// sigkill = abrupt crash, sigabrt = crash that leaves an archived
// postmortem, sigterm = graceful drain (exit code asserted 0), restart =
// respawn with a bumped incarnation. Network faults need the simulator, so
// a plan with one is a usage error. At every verify point the campaign
// holds the fleet to one ring cycle, exact replica coverage and
// conservation (count = live daemons, sum = their values), a telemetry
// scrape and, with --check-alerts, the coverage alert, all in one pass
// within 15 s; then it prints the same phase table as dat_chaos. Events
// stream to stderr unless --quiet.
//
// Exit codes: 0 all SLOs met, 1 violations, 2 bad usage, 130 interrupted.

#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/campaign.hpp"
#include "chaos/plan.hpp"
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "datd/process_fleet.hpp"
#include "datd/signals.hpp"

namespace {

/// Default datd path: next to this binary, the layout the build tree and
/// an installed tools/ directory both produce.
std::string sibling_datd(const char* argv0) {
  std::string self(argv0);
  const auto slash = self.rfind('/');
  if (slash == std::string::npos) return "./datd";
  return self.substr(0, slash + 1) + "datd";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dat;

  CliFlags flags;
  flags.flag("nodes", std::int64_t{64}, "fleet size (>= 8)")
      .flag("seed", std::int64_t{7}, "kill-plan seed")
      .flag("plan", std::string{},
            "path to a text plan spec (overrides --nodes/--seed)")
      .flag("campaign", std::string{"canonical"},
            "built-in plan: canonical | selfmon")
      .flag("base-port", std::int64_t{9400}, "slot i binds 127.0.0.1:port+i")
      .flag("datd", std::string{}, "datd binary (default: next to this one)")
      .flag("replicas", std::int64_t{2}, "replica trees per aggregate")
      .flag("epoch-ms", std::int64_t{150}, "daemon push period")
      .flag("drain-deadline-ms", std::int64_t{5000},
            "daemon SIGTERM hard deadline")
      .flag("report", std::string{}, "also write the report to this file")
      .flag("check-alerts", false,
            "verify SLO: probe coverage alert firing iff slots are down "
            "(the selfmon campaign turns this on)")
      .flag("postmortem-dir", std::string{},
            "children dump crash postmortems here; a SIGABRT victim's dump "
            "is archived after reaping")
      .flag("print-plan", false, "print the timeline spec and exit")
      .flag("quiet", false, "do not stream events to stderr")
      .flag("help", false, "print flags and exit");
  if (!flags.parse(argc - 1, argv + 1)) {
    std::fprintf(stderr, "dat_supervisor: %s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.get_bool("help")) {
    std::fprintf(stderr, "dat_supervisor flags:\n%s", flags.usage().c_str());
    return 0;
  }

  try {
    chaos::ChaosPlan plan;
    const std::string plan_path = flags.get_string("plan");
    const std::string campaign_name = flags.get_string("campaign");
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    const auto nodes = static_cast<std::size_t>(flags.get_int("nodes"));
    if (!plan_path.empty()) {
      std::ifstream in(plan_path);
      if (!in) {
        std::fprintf(stderr, "dat_supervisor: cannot open plan file %s\n",
                     plan_path.c_str());
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      plan = chaos::ChaosPlan::parse(text.str());
    } else if (campaign_name == "selfmon") {
      plan = chaos::ChaosPlan::process_selfmon(seed, nodes);
    } else if (campaign_name == "canonical") {
      plan = chaos::ChaosPlan::process_canonical(seed, nodes);
    } else {
      std::fprintf(stderr, "dat_supervisor: unknown --campaign %s\n",
                   campaign_name.c_str());
      return 2;
    }
    if (flags.get_bool("print-plan")) {
      std::fputs(plan.to_spec().c_str(), stdout);
      return 0;
    }

    datd::ProcessFleetOptions fleet_options;
    fleet_options.nodes = plan.nodes;
    fleet_options.base_port =
        static_cast<std::uint16_t>(flags.get_int("base-port"));
    fleet_options.datd_path = flags.get_string("datd");
    if (fleet_options.datd_path.empty()) {
      fleet_options.datd_path = sibling_datd(argv[0]);
    }
    fleet_options.seed = plan.seed;
    fleet_options.epoch_ms =
        static_cast<std::uint64_t>(flags.get_int("epoch-ms"));
    fleet_options.drain_deadline_ms =
        static_cast<std::uint64_t>(flags.get_int("drain-deadline-ms"));
    fleet_options.postmortem_dir = flags.get_string("postmortem-dir");
    datd::ProcessFleet fleet(fleet_options);

    chaos::CampaignOptions options;
    options.replicas = static_cast<unsigned>(flags.get_int("replicas"));
    // Daemons run on their own clocks: no settle window; every SLO of a
    // verify must then hold in one pass within the fleet's 15 s window.
    options.quiesce_us = 0;
    options.check_selfmon =
        flags.get_bool("check-alerts") || campaign_name == "selfmon";
    datd::install_signal_guard();
    options.interrupted = [] { return datd::pending_signal() != 0; };
    if (!flags.get_bool("quiet")) Logger::instance().set_level(LogLevel::kInfo);

    // Rejects an impossible plan, network faults included, before forking.
    chaos::Campaign campaign(fleet, plan, options);
    const chaos::CampaignReport report = campaign.run();

    const std::string report_path = flags.get_string("report");
    if (!report_path.empty()) {
      if (std::FILE* out = std::fopen(report_path.c_str(), "w")) {
        for (const std::string& line : report.event_log) {
          std::fprintf(out, "%s\n", line.c_str());
        }
        chaos::print_report(report, campaign.lb_summary(), out, out);
        std::fclose(out);
      }
    }
    return chaos::print_report(report, campaign.lb_summary(), stdout, stderr);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "dat_supervisor: %s\n", err.what());
    return 2;
  }
}
