#pragma once

// Minimal machine-readable output for the plain-main() benchmarks: an
// ordered JSON object builder plus the BENCH_<suite>.json writing
// convention (suite name, git sha, build type, core count, config,
// metrics) shared by CI's perf-smoke job and EXPERIMENTS.md.
// google-benchmark binaries use their own JSONReporter instead (bench_micro
// adds the same envelope fields to its context); this is for the
// harness-style benches.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef DAT_GIT_SHA
#define DAT_GIT_SHA "unknown"
#endif
#ifndef DAT_BUILD_TYPE
#define DAT_BUILD_TYPE "unknown"
#endif

namespace dat::benchjson {

inline std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Insertion-ordered JSON object; values are serialized on insertion so the
/// builder stays a flat list of key/text pairs.
class Object {
 public:
  Object& put(const std::string& key, const std::string& value) {
    return raw(key, "\"" + escape(value) + "\"");
  }
  Object& put(const std::string& key, const char* value) {
    return put(key, std::string(value));
  }
  Object& put(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  Object& put(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Object& put(const std::string& key, unsigned value) {
    return raw(key, std::to_string(value));
  }
  Object& put(const std::string& key, int value) {
    return raw(key, std::to_string(value));
  }
  Object& put(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(6);
    os << std::fixed << value;
    return raw(key, os.str());
  }
  Object& put(const std::string& key, const Object& value) {
    return raw(key, value.dump());
  }
  Object& put(const std::string& key, const std::vector<Object>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) text += ",";
      text += values[i].dump();
    }
    text += "]";
    return raw(key, text);
  }

  [[nodiscard]] std::string dump() const {
    std::string text = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) text += ",";
      text += "\"" + escape(fields_[i].first) + "\":" + fields_[i].second;
    }
    text += "}";
    return text;
  }

 private:
  Object& raw(const std::string& key, std::string serialized) {
    fields_.emplace_back(key, std::move(serialized));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The fields every BENCH_<suite>.json opens with: which suite, commit and
/// build type produced it, on how many cores.
inline Object envelope(const std::string& suite) {
  Object root;
  root.put("suite", suite)
      .put("git_sha", DAT_GIT_SHA)
      .put("build_type", DAT_BUILD_TYPE)
      .put("nproc", std::thread::hardware_concurrency());
  return root;
}

/// Writes `BENCH_<suite>.json` into the working directory; returns the path.
inline std::string write_suite(const std::string& suite, const Object& root) {
  const std::string path = "BENCH_" + suite + ".json";
  std::ofstream out(path);
  out << root.dump() << "\n";
  return path;
}

}  // namespace dat::benchjson
