#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace dat::obs {

/// Git revision and semantic version baked in at configure time (CMake
/// passes DAT_BUILD_SHA / DAT_BUILD_VERSION; "unknown" / "dev" otherwise).
[[nodiscard]] const char* build_sha() noexcept;
[[nodiscard]] const char* build_version() noexcept;

/// Process-level runtime telemetry for a daemon: registers a snapshot-time
/// collector emitting
///
///   dat_daemon_uptime_us     gauge  microseconds since construction
///   dat_daemon_incarnation   gauge  restart generation (supervisor-managed)
///   dat_daemon_pid           gauge  OS process id
///   dat_daemon_rss_bytes     gauge  resident set size (0 if unreadable)
///   dat_build_info           gauge  constant 1 with sha/version labels
///                                   (mixed-version fleets show up as
///                                   distinct label sets during rolling
///                                   restarts)
///
/// Process chaos campaigns read these to tell a restarted daemon from the
/// incarnation it replaced, and the health snapshot reports uptime from the
/// same clock. Unregisters itself on destruction.
class ProcessRuntime {
 public:
  ProcessRuntime(MetricsRegistry& registry, std::uint64_t incarnation);
  ~ProcessRuntime();

  ProcessRuntime(const ProcessRuntime&) = delete;
  ProcessRuntime& operator=(const ProcessRuntime&) = delete;

  [[nodiscard]] std::uint64_t uptime_us() const;
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }

 private:
  MetricsRegistry& registry_;
  std::uint64_t incarnation_;
  std::uint64_t start_us_;
  std::uint64_t collector_id_;
};

/// Resident set size of the calling process in bytes, via /proc/self/statm;
/// 0 when the proc filesystem is unavailable.
[[nodiscard]] std::uint64_t process_rss_bytes();

}  // namespace dat::obs
