#include "lb/rebalancer.hpp"

#include <cstdio>

namespace dat::lb {

std::string RoundReport::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "round %zu: gap_ratio=%.2f max_children=%zu migrations=%zu"
                "%s sheds=%zu moved=%zu%s",
                round, gap_ratio, max_children, migrations,
                migration_failures != 0 ? "(!)" : "", sheds, children_moved,
                balanced ? " [balanced]" : "");
  return buf;
}

Rebalancer::Rebalancer(harness::Fleet& fleet, std::vector<Id> keys,
                       RebalancerOptions options,
                       obs::MetricsRegistry* registry)
    : fleet_(fleet),
      keys_(std::move(keys)),
      options_(options),
      registry_(registry != nullptr ? registry : &own_registry_),
      m_rounds_(&registry_->counter("dat_lb_rounds_total")),
      m_migrations_(&registry_->counter("dat_lb_migrations_total")),
      m_migration_failures_(
          &registry_->counter("dat_lb_migration_failures_total")),
      m_sheds_(&registry_->counter("dat_lb_sheds_total")),
      m_children_moved_(&registry_->counter("dat_lb_children_moved_total")),
      m_gap_ratio_x1000_(&registry_->gauge("dat_lb_gap_ratio_x1000")),
      m_max_branching_(&registry_->gauge("dat_lb_max_branching")) {}

RoundReport Rebalancer::run_round() {
  RoundReport report;
  report.round = history_.size();

  // Measure.
  ClusterLoad load = collect_load(fleet_, keys_);
  for (NodeLoad& n : load.nodes) {
    for (KeyLoad& k : n.keys) {
      const auto handle = std::make_pair(n.slot, k.key);
      const auto it = last_updates_.find(handle);
      // A fresh or restarted node's counter starts over; clamp the delta to
      // zero instead of reading a huge negative rate.
      if (it != last_updates_.end() && k.updates_in >= it->second) {
        k.update_rate = static_cast<double>(k.updates_in - it->second);
      }
      last_updates_[handle] = k.updates_in;
      n.total_rate += k.update_rate;
    }
  }
  report.gap_ratio = load.gap_ratio;
  report.max_children = load.max_children;

  // Decide.
  const RebalancePlan plan =
      plan_rebalance(load, fleet_.space(), options_.policy);
  report.balanced = plan.empty();

  // Apply.
  for (const Migration& m : plan.migrations) {
    if (!fleet_.is_live(m.slot)) continue;
    if (fleet_.migrate_node(m.slot, m.to_id)) {
      ++report.migrations;
      // The new incarnation restarts its counters from zero.
      for (const Id key : keys_) {
        last_updates_.erase({m.slot, key & fleet_.space().mask()});
      }
    } else {
      ++report.migration_failures;
    }
  }
  for (const Shed& s : plan.sheds) {
    if (!fleet_.is_live(s.slot)) continue;
    const std::size_t moved = fleet_.dat(s.slot).shed_children(
        s.key, s.keep, options_.policy.handoff_ttl_us);
    if (moved != 0) {
      ++report.sheds;
      report.children_moved += moved;
    }
  }

  m_rounds_->inc();
  m_migrations_->inc(report.migrations);
  m_migration_failures_->inc(report.migration_failures);
  m_sheds_->inc(report.sheds);
  m_children_moved_->inc(report.children_moved);
  m_gap_ratio_x1000_->set(static_cast<std::int64_t>(report.gap_ratio * 1000));
  m_max_branching_->set(static_cast<std::int64_t>(report.max_children));

  history_.push_back(report);
  return report;
}

}  // namespace dat::lb
