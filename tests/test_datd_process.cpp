// Real-process checks for the deployment binaries: exit-code contracts of
// datd / datctl / dat_supervisor on bad invocations, and small end-to-end
// soaks that run chaos::Campaign on a datd::ProcessFleet of actual datd
// daemons on loopback and assert the recovery SLOs.
//
// Binary paths arrive as compile definitions (DATD_BIN etc.) so the tests
// work from any build directory.

#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/plan.hpp"
#include "datd/admin.hpp"
#include "datd/config.hpp"
#include "datd/process_fleet.hpp"
#include "obs/export.hpp"

namespace {

using namespace dat;

/// fork+execv the binary with `args`, returns the raw exit status (what
/// waitpid reports).
int run_binary(const char* path, std::vector<std::string> args) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(path));
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // Quiet the child's stderr: these tests provoke usage errors on purpose.
    ::freopen("/dev/null", "w", stderr);
    ::execv(path, argv.data());
    ::_Exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status)) << path << " did not exit cleanly";
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ------------------------------------------------------ usage exit codes --

TEST(DatdProcess, UnknownFlagIsUsageError) {
  EXPECT_EQ(run_binary(DATD_BIN, {"--create=true", "--frobnicate=1"}), 2);
}

TEST(DatdProcess, MissingBootstrapIsUsageError) {
  // Neither --create nor --seeds: config validation, exit 2.
  EXPECT_EQ(run_binary(DATD_BIN, {}), 2);
}

TEST(DatdProcess, BadBackendFlagIsUsageError) {
  // datd has no transport switch, so --backend is an unknown flag.
  EXPECT_EQ(run_binary(DATD_BIN, {"--create=true", "--backend=netio"}), 2);
}

TEST(DatdProcess, HelpExitsZero) {
  EXPECT_EQ(run_binary(DATD_BIN, {"--help=true"}), 0);
}

TEST(DatctlProcess, UnknownSubcommandIsUsageError) {
  EXPECT_EQ(run_binary(DATCTL_BIN, {"frobnicate"}), 2);
}

TEST(DatctlProcess, UnknownFlagIsUsageError) {
  EXPECT_EQ(run_binary(DATCTL_BIN, {"monitor", "--frobnicate=1"}), 2);
}

TEST(DatctlProcess, RemoteWithoutTargetIsUsageError) {
  EXPECT_EQ(run_binary(DATCTL_BIN, {"remote", "status"}), 2);
}

TEST(DatctlProcess, RemoteUnknownOpIsUsageError) {
  EXPECT_EQ(
      run_binary(DATCTL_BIN, {"remote", "explode", "--target=127.0.0.1:1"}),
      2);
}

TEST(DatChaosProcess, UnknownFlagIsUsageError) {
  EXPECT_EQ(run_binary(DAT_CHAOS_BIN, {"--frobnicate=1"}), 2);
}

TEST(DatChaosProcess, UnknownCampaignIsUsageError) {
  EXPECT_EQ(run_binary(DAT_CHAOS_BIN, {"--campaign=voodoo"}), 2);
}

TEST(SupervisorProcess, UnknownFlagIsUsageError) {
  EXPECT_EQ(run_binary(DAT_SUPERVISOR_BIN, {"--frobnicate=1"}), 2);
}

TEST(SupervisorProcess, PrintPlanIsDeterministic) {
  // --print-plan renders without forking daemons; exercised via exit 0.
  EXPECT_EQ(run_binary(DAT_SUPERVISOR_BIN,
                       {"--nodes=16", "--seed=5", "--print-plan=true"}),
            0);
}

TEST(SupervisorProcess, NetworkFaultPlanIsUsageError) {
  // Loss needs the simulated network: the campaign rejects the plan before
  // a single daemon is forked.
  const std::string path = ::testing::TempDir() + "loss-plan.txt";
  std::ofstream(path, std::ios::trunc) << "nodes 8\n"
                                          "1000 loss 0.2 500\n"
                                          "2000 verify\n";
  EXPECT_EQ(run_binary(DAT_SUPERVISOR_BIN,
                       {"--plan=" + path, "--base-port=29560"}),
            2);
  std::remove(path.c_str());
}

// ----------------------------------------------------------- mini soak ----

/// A process fleet of `plan.nodes` daemons on `base_port`.. for a campaign.
datd::ProcessFleetOptions mini_fleet(const chaos::ChaosPlan& plan,
                                     std::uint16_t base_port) {
  datd::ProcessFleetOptions options;
  options.nodes = plan.nodes;
  options.base_port = base_port;  // away from the tool defaults and others
  options.datd_path = DATD_BIN;
  options.seed = plan.seed;
  // Every SLO of a verify phase must hold in one pass within 20 s.
  options.verify_window_ms = 20'000;
  return options;
}

/// Campaign options for daemons: no settle window.
chaos::CampaignOptions mini_campaign() {
  chaos::CampaignOptions options;
  options.replicas = 2;
  options.quiesce_us = 0;
  return options;
}

void expect_clean(const chaos::CampaignReport& report) {
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << "violation: " << violation;
  }
  if (!report.ok()) {
    for (const std::string& line : report.event_log) ADD_FAILURE() << line;
  }
}

// A compressed process plan: one SIGKILL, one restart, one SIGTERM
// drain, verifies after each wave. Small enough for a unit-test budget but
// it exercises every process action against real forked daemons.
TEST(SupervisorProcess, MiniSoakMeetsSlos) {
  chaos::ChaosPlan plan;
  plan.seed = 11;
  plan.nodes = 8;
  plan.verify(1'000'000);
  plan.sigkill(1'500'000, 3);
  plan.verify(6'000'000);
  plan.restart(7'000'000, 3);
  plan.verify(12'000'000);
  plan.sigterm(13'000'000, 5);
  plan.verify(20'000'000);

  datd::ProcessFleet fleet(mini_fleet(plan, 29'480));
  // Self-monitoring SLO rides along: the probe node's coverage alert must
  // be clear while the fleet is whole, firing after the kill and after the
  // drain (live 7 < fleet 8), clear again after the restart.
  chaos::CampaignOptions options = mini_campaign();
  options.check_selfmon = true;
  chaos::Campaign campaign(fleet, plan, options);
  const chaos::CampaignReport report = campaign.run();
  expect_clean(report);
  EXPECT_TRUE(report.ok());

  ASSERT_EQ(report.phases.size(), 4u);
  const std::size_t expected[] = {8, 7, 8, 7};
  const bool firing[] = {false, true, false, true};
  for (std::size_t i = 0; i < 4; ++i) {
    const chaos::PhaseReport& phase = report.phases[i];
    EXPECT_TRUE(phase.ok()) << "phase " << phase.phase;
    EXPECT_EQ(phase.expected_coverage, expected[i]) << "phase " << i + 1;
    EXPECT_TRUE(phase.selfmon_checked);
    EXPECT_EQ(phase.selfmon_firing, firing[i]) << "phase " << i + 1;
  }
  // The drained daemon exited 0 within its deadline.
  bool drained = false;
  for (const std::string& line : report.event_log) {
    drained = drained || (line.find("sigterm: slot 5") != std::string::npos &&
                          line.find("exited 0") != std::string::npos);
  }
  EXPECT_TRUE(drained) << "no exit-0 line for the SIGTERM victim";
}

// A SIGABRT victim must die by that signal AND leave a crash dump the
// fleet archives from the shared postmortem directory.
TEST(SupervisorProcess, SigabrtLeavesAnArchivedPostmortem) {
  chaos::ChaosPlan plan;
  plan.seed = 13;
  plan.nodes = 8;
  plan.verify(1'000'000);
  plan.sigabrt(1'500'000, 2);
  plan.verify(8'000'000);

  const std::string dump_dir = ::testing::TempDir() + "datd-postmortems";
  std::system(("mkdir -p " + dump_dir).c_str());

  datd::ProcessFleetOptions fleet_options = mini_fleet(plan, 29'520);
  fleet_options.postmortem_dir = dump_dir;
  datd::ProcessFleet fleet(fleet_options);
  chaos::Campaign campaign(fleet, plan, mini_campaign());
  const chaos::CampaignReport report = campaign.run();
  expect_clean(report);
  EXPECT_TRUE(report.ok());

  // The archived dump is named after the victim slot and parses as the
  // postmortem envelope tagged with SIGABRT.
  bool found = false;
  for (const std::string& line : report.event_log) {
    const std::size_t at = line.find("archived-postmortem-slot2-");
    if (at == std::string::npos) continue;
    found = true;
    const std::string path = line.substr(line.find(dump_dir));
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("\"schema\":\"dat.postmortem.v1\""),
              std::string::npos);
    EXPECT_NE(text.str().find("\"signal\":6"), std::string::npos);
    std::remove(path.c_str());
  }
  EXPECT_TRUE(found) << "no archived postmortem in the event log";
}

// ------------------------------------------------- single-daemon scrapes --

/// One datd on loopback, killed (and reaped) on destruction.
class SingleDaemon {
 public:
  SingleDaemon(std::uint16_t port, std::vector<std::string> extra_args) {
    std::vector<std::string> args = {"--create=true",
                                     "--port=" + std::to_string(port),
                                     "--selfmon-epoch-ms=200"};
    for (std::string& a : extra_args) args.push_back(std::move(a));
    pid_ = ::fork();
    if (pid_ == 0) {
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(DATD_BIN));
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::freopen("/dev/null", "w", stderr);
      ::execv(DATD_BIN, argv.data());
      ::_Exit(127);
    }
    endpoint_ = net::make_udp_endpoint(0x7F000001u, port);
  }
  ~SingleDaemon() {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  [[nodiscard]] net::Endpoint endpoint() const { return endpoint_; }

  /// Polls datd.status until the daemon serves (joined its own ring).
  [[nodiscard]] bool wait_up(datd::AdminClient& admin) const {
    for (int i = 0; i < 200; ++i) {
      const auto status = admin.status(endpoint_);
      if (status && status->joined) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
  net::Endpoint endpoint_{};
};

TEST(DatdScrape, TinyChunksReassembleTheFullMetricsPage) {
  // --metrics-chunk=300 forces the page (a few KB) to span many chunks;
  // the AdminClient must reassemble them into one coherent document.
  SingleDaemon daemon(29'541, {"--metrics-chunk=300"});
  datd::AdminClient admin(2'000'000);
  ASSERT_TRUE(daemon.wait_up(admin));

  const auto page =
      admin.metrics(daemon.endpoint(), obs::ExportFormat::kPrometheus);
  ASSERT_TRUE(page.has_value());
  EXPECT_GT(page->size(), 900u);  // definitely more than three chunks
  EXPECT_NE(page->find("dat_daemon_uptime_us"), std::string::npos);
  EXPECT_NE(page->find("dat_build_info"), std::string::npos);
  // The reassembled page ends exactly where the exposition ends: the last
  // line is complete (terminated), not a mid-chunk truncation.
  EXPECT_EQ(page->back(), '\n');

  // The status RPC carries the build stamp the dat_build_info gauge labels.
  const auto status = admin.status(daemon.endpoint());
  ASSERT_TRUE(status.has_value());
  EXPECT_FALSE(status->build_version.empty());
}

TEST(DatdScrape, AlertsAndFleetAnswerOnANodeWithSelfmonDisabled) {
  SingleDaemon daemon(29'542, {"--selfmon=false"});
  datd::AdminClient admin(2'000'000);
  ASSERT_TRUE(daemon.wait_up(admin));
  // Well-formed "not enabled" answers, not timeouts.
  EXPECT_FALSE(admin.fleet(daemon.endpoint()).has_value());
}

TEST(DatdScrape, TopOnceRendersAFleetViewFromOneNode) {
  SingleDaemon daemon(29'543, {"--fleet-size=1"});
  datd::AdminClient admin(2'000'000);
  ASSERT_TRUE(daemon.wait_up(admin));
  // Give the self-monitor a few 200ms epochs to converge its meta-trees.
  std::this_thread::sleep_for(std::chrono::seconds(2));
  const auto fleet = admin.fleet(daemon.endpoint());
  ASSERT_TRUE(fleet.has_value());
  EXPECT_EQ(fleet->fleet_size, 1u);
  ASSERT_NE(fleet->find("nodes"), nullptr);
  EXPECT_EQ(fleet->find("nodes")->state.count, 1u);

  EXPECT_EQ(run_binary(DATCTL_BIN,
                       {"top", "--target=127.0.0.1:29543", "--once=true"}),
            0);
}

TEST(DatctlProcess, PromcheckAcceptsARealScrapeAndRejectsGarbage) {
  SingleDaemon daemon(29'544, {});
  datd::AdminClient admin(2'000'000);
  ASSERT_TRUE(daemon.wait_up(admin));
  const auto page =
      admin.metrics(daemon.endpoint(), obs::ExportFormat::kPrometheus);
  ASSERT_TRUE(page.has_value());

  const std::string good_path = ::testing::TempDir() + "page-good.prom";
  std::ofstream(good_path, std::ios::trunc) << *page;
  EXPECT_EQ(run_binary(DATCTL_BIN, {"promcheck", "--file=" + good_path}), 0);

  const std::string bad_path = ::testing::TempDir() + "page-bad.prom";
  std::ofstream(bad_path, std::ios::trunc)
      << "dat_x_total 1\n"
         "dat_x_total 2\n"            // duplicate series
         "9bad_name 1\n"              // name grammar
         "dat_y_total notanumber\n";  // unparseable value
  EXPECT_EQ(run_binary(DATCTL_BIN, {"promcheck", "--file=" + bad_path}), 1);
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

}  // namespace
