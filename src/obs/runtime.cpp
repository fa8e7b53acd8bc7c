#include "obs/runtime.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>

#ifndef DAT_BUILD_SHA
#define DAT_BUILD_SHA "unknown"
#endif
#ifndef DAT_BUILD_VERSION
#define DAT_BUILD_VERSION "dev"
#endif

namespace dat::obs {

const char* build_sha() noexcept { return DAT_BUILD_SHA; }
const char* build_version() noexcept { return DAT_BUILD_VERSION; }

namespace {
std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

std::uint64_t process_rss_bytes() {
  // statm field 2 is resident pages; multiplied out here so consumers never
  // need the page size. Collector-path code: runs at scrape cadence only.
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long total_pages = 0;
  unsigned long long resident_pages = 0;
  const int fields =
      std::fscanf(statm, "%llu %llu", &total_pages, &resident_pages);
  std::fclose(statm);
  if (fields != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return static_cast<std::uint64_t>(resident_pages) *
         static_cast<std::uint64_t>(page);
}

ProcessRuntime::ProcessRuntime(MetricsRegistry& registry,
                               std::uint64_t incarnation)
    : registry_(registry),
      incarnation_(incarnation),
      start_us_(steady_now_us()) {
  collector_id_ = registry_.add_collector([this](MetricsSnapshot& out) {
    const auto add = [&out](const char* name, double value) {
      Sample s;
      s.name = name;
      s.type = MetricType::kGauge;
      s.value = value;
      out.samples.push_back(std::move(s));
    };
    add("dat_daemon_uptime_us", static_cast<double>(uptime_us()));
    add("dat_daemon_incarnation", static_cast<double>(incarnation_));
    add("dat_daemon_pid", static_cast<double>(::getpid()));
    add("dat_daemon_rss_bytes", static_cast<double>(process_rss_bytes()));
    Sample info;
    info.name = "dat_build_info";
    info.type = MetricType::kGauge;
    info.labels = canonical_labels(
        {{"sha", build_sha()}, {"version", build_version()}});
    info.value = 1.0;
    out.samples.push_back(std::move(info));
  });
}

ProcessRuntime::~ProcessRuntime() { registry_.remove_collector(collector_id_); }

std::uint64_t ProcessRuntime::uptime_us() const {
  return steady_now_us() - start_us_;
}

}  // namespace dat::obs
