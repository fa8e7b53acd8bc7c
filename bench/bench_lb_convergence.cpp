// Runtime rebalancing convergence: how many epochs the measurement-driven
// rebalancer needs to bring an unbalanced deployment (random identifiers,
// max branching 7-12+ per Fig. 7a) back to the balanced-tree SLO of max
// branching <= 4, and what the repair costs in messages, under workloads of
// increasing skew. Writes BENCH_lb.json with the per-round convergence
// curve for each skew profile.
//
//   bench_lb_convergence [--nodes 24] [--seed 7]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "json_out.hpp"
#include "harness/sim_cluster.hpp"
#include "lb/rebalancer.hpp"

namespace {

using namespace dat;

constexpr std::uint64_t kEpochUs = 200'000;
constexpr unsigned kMaxRounds = 20;
constexpr std::size_t kSloBranching = 4;

struct Profile {
  const char* name;
  unsigned cold;  ///< trees at the base epoch period
  unsigned hot;   ///< trees pushed at base/10 (10x the update volume each)
};

struct RoundRow {
  unsigned round = 0;
  double gap_ratio = 0.0;
  std::size_t max_branching = 0;
  std::size_t migrations = 0;
  std::size_t sheds = 0;
};

struct ProfileResult {
  std::string name;
  double hot_share = 0.0;  ///< fraction of update volume from hot trees
  std::size_t initial_branching = 0;
  std::size_t final_branching = 0;
  bool converged = false;
  unsigned epochs = 0;
  std::uint64_t rpc_attempts = 0;  ///< messages spent while rebalancing
  std::size_t migrations = 0;
  std::size_t sheds = 0;
  std::vector<RoundRow> curve;
};

ProfileResult run_profile(const Profile& profile, std::size_t nodes,
                          std::uint64_t seed) {
  harness::ClusterOptions options;
  options.seed = seed;
  options.dat.epoch_us = kEpochUs;
  options.node.probing_join = false;  // random ids: the unbalanced shape
  harness::SimCluster cluster(nodes, std::move(options));

  const auto local = [](std::size_t slot) -> core::DatNode::LocalValueFn {
    return [slot] { return static_cast<double>(slot + 1); };
  };
  std::vector<Id> keys;
  for (unsigned i = 0; i < profile.cold; ++i) {
    keys.push_back(cluster.start_aggregate_everywhere(
        "cpu#" + std::to_string(i), core::AggregateKind::kSum,
        chord::RoutingScheme::kBalanced, local));
  }
  for (unsigned i = 0; i < profile.hot; ++i) {
    keys.push_back(cluster.start_aggregate_everywhere(
        "cpu-hot#" + std::to_string(i), core::AggregateKind::kSum,
        chord::RoutingScheme::kBalanced, local, kEpochUs / 10));
  }
  cluster.run_for(4 * kEpochUs);  // let the trees form

  const auto measure = [&] {
    std::size_t max_children = 0;
    for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
      if (!cluster.is_live(i)) continue;
      for (const Id key : keys) {
        max_children = std::max(max_children, cluster.dat(i).child_count(key));
      }
    }
    return max_children;
  };
  // Per-slot message baseline; a slot rebooted by a migration restarts its
  // counters, so a post-loop reading below the baseline means "count from
  // zero", not "negative traffic".
  const auto attempts_of = [&](std::size_t i) {
    return cluster.is_live(i) ? cluster.node(i).rpc().stats().attempts
                              : std::uint64_t{0};
  };
  std::vector<std::uint64_t> baseline(cluster.slot_count());
  for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
    baseline[i] = attempts_of(i);
  }

  ProfileResult result;
  result.name = profile.name;
  const double volume =
      profile.cold * 1.0 + profile.hot * 10.0;  // relative updates/epoch
  result.hot_share = volume > 0 ? profile.hot * 10.0 / volume : 0.0;
  result.initial_branching = measure();

  lb::RebalancerOptions lb_options;
  lb_options.epoch_us = kEpochUs;
  lb::Rebalancer rebalancer(cluster, keys, lb_options);

  std::size_t branching = result.initial_branching;
  while (result.epochs < kMaxRounds) {
    const lb::RoundReport round = rebalancer.run_round();
    cluster.run_for(kEpochUs);
    ++result.epochs;
    branching = measure();
    result.migrations += round.migrations;
    result.sheds += round.sheds;
    RoundRow row;
    row.round = round.round;
    row.gap_ratio = round.gap_ratio;
    row.max_branching = branching;
    row.migrations = round.migrations;
    row.sheds = round.sheds;
    result.curve.push_back(row);
    if (branching <= kSloBranching) {
      result.converged = true;
      break;
    }
  }
  result.final_branching = branching;
  for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
    const std::uint64_t now = attempts_of(i);
    result.rpc_attempts += now >= baseline[i] ? now - baseline[i] : now;
  }
  return result;
}

benchjson::Object to_json(const ProfileResult& r) {
  std::vector<benchjson::Object> curve;
  curve.reserve(r.curve.size());
  for (const RoundRow& row : r.curve) {
    benchjson::Object o;
    o.put("round", row.round)
        .put("gap_ratio", row.gap_ratio)
        .put("max_branching", static_cast<std::uint64_t>(row.max_branching))
        .put("migrations", static_cast<std::uint64_t>(row.migrations))
        .put("sheds", static_cast<std::uint64_t>(row.sheds));
    curve.push_back(std::move(o));
  }
  benchjson::Object o;
  o.put("profile", r.name)
      .put("hot_share", r.hot_share)
      .put("initial_max_branching",
           static_cast<std::uint64_t>(r.initial_branching))
      .put("final_max_branching", static_cast<std::uint64_t>(r.final_branching))
      .put("converged", r.converged)
      .put("epochs_to_converge", r.epochs)
      .put("rpc_attempts", r.rpc_attempts)
      .put("migrations", static_cast<std::uint64_t>(r.migrations))
      .put("sheds", static_cast<std::uint64_t>(r.sheds))
      .put("curve", curve);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t nodes = 24;
  std::uint64_t seed = 7;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--nodes") == 0) nodes = std::stoul(argv[i + 1]);
    if (std::strcmp(argv[i], "--seed") == 0) seed = std::stoull(argv[i + 1]);
  }

  const Profile profiles[] = {
      {"uniform", 5, 0},  // every tree at the base period
      {"70/30", 4, 1},    // one hot tree: ~71% of the volume
      {"90/10", 3, 2},    // two hot trees: ~87% of the volume
  };

  std::printf("# Rebalancer convergence, n=%zu seed=%llu (random ids, "
              "SLO: max branching <= %zu within %u epochs)\n",
              nodes, static_cast<unsigned long long>(seed), kSloBranching,
              kMaxRounds);
  std::printf("%-10s %-10s %-10s %-10s %-8s %-10s %-10s %-8s\n", "profile",
              "hot_share", "initial", "final", "epochs", "migrations", "sheds",
              "msgs");

  std::vector<benchjson::Object> rows;
  bool all_converged = true;
  for (const Profile& profile : profiles) {
    const ProfileResult r = run_profile(profile, nodes, seed);
    all_converged = all_converged && r.converged;
    std::printf("%-10s %-10.2f %-10zu %-10zu %-8u %-10zu %-10zu %-8llu\n",
                r.name.c_str(), r.hot_share, r.initial_branching,
                r.final_branching, r.epochs, r.migrations, r.sheds,
                static_cast<unsigned long long>(r.rpc_attempts));
    rows.push_back(to_json(r));
  }

  benchjson::Object config;
  config.put("nodes", static_cast<std::uint64_t>(nodes))
      .put("seed", seed)
      .put("epoch_us", kEpochUs)
      .put("max_rounds", kMaxRounds)
      .put("slo_max_branching", static_cast<std::uint64_t>(kSloBranching))
      .put("id_assignment", "random");
  benchjson::Object root = benchjson::envelope("lb_convergence");
  root.put("config", config)
      .put("results", rows)
      .put("all_converged", all_converged);
  const std::string path = benchjson::write_suite("lb", root);
  std::printf("wrote %s\n", path.c_str());
  return all_converged ? 0 : 1;
}
