#include "flow/flow_plan.hpp"

#include <mutex>
#include <queue>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"
#include "common/instrument.hpp"

namespace lcn {

std::shared_ptr<const FlowPlan> FlowPlan::analyze(const CoolingNetwork& net) {
  const Grid2D& grid = net.grid();
  auto plan = std::make_shared<FlowPlan>();

  plan->liquid_cells = net.liquid_cells();
  const std::size_t n = plan->liquid_cells.size();
  if (n == 0) throw RuntimeError("flow solve: network has no liquid cells");
  plan->n = n;
  plan->liquid_index.assign(grid.cell_count(), -1);
  for (std::size_t i = 0; i < n; ++i) {
    plan->liquid_index[plan->liquid_cells[i]] = static_cast<std::int32_t>(i);
  }

  // Every liquid component must carry at least one port, or pressures on it
  // are undefined and G is singular.
  {
    std::vector<char> reached(n, 0);
    std::queue<std::size_t> frontier;
    for (const Port& port : net.ports()) {
      const std::int32_t idx =
          plan->liquid_index[grid.index(port.row, port.col)];
      LCN_CHECK(idx >= 0, "port must open into a liquid cell");
      if (!reached[static_cast<std::size_t>(idx)]) {
        reached[static_cast<std::size_t>(idx)] = 1;
        frontier.push(static_cast<std::size_t>(idx));
      }
    }
    std::size_t count = frontier.size();
    while (!frontier.empty()) {
      const std::size_t i = frontier.front();
      frontier.pop();
      const CellCoord cc = grid.coord(plan->liquid_cells[i]);
      const int dr[] = {1, -1, 0, 0};
      const int dc[] = {0, 0, 1, -1};
      for (int k = 0; k < 4; ++k) {
        const int nr = cc.row + dr[k];
        const int nc = cc.col + dc[k];
        if (!grid.in_bounds(nr, nc)) continue;
        const std::int32_t jdx = plan->liquid_index[grid.index(nr, nc)];
        if (jdx < 0 || reached[static_cast<std::size_t>(jdx)]) continue;
        reached[static_cast<std::size_t>(jdx)] = 1;
        frontier.push(static_cast<std::size_t>(jdx));
        ++count;
      }
    }
    if (count != n) {
      throw RuntimeError(
          "flow solve: a liquid component has no inlet/outlet (singular "
          "pressure system)");
    }
  }

  // Capture the emission pattern: cell-to-cell conductances (east and south
  // neighbors cover each pair once), then ports.
  std::vector<sparse::Triplet> emissions;
  for (std::size_t i = 0; i < n; ++i) {
    const CellCoord cc = grid.coord(plan->liquid_cells[i]);
    const int neighbors[2][2] = {{cc.row, cc.col + 1}, {cc.row + 1, cc.col}};
    for (const auto& nb : neighbors) {
      if (!grid.in_bounds(nb[0], nb[1])) continue;
      const std::int32_t jdx = plan->liquid_index[grid.index(nb[0], nb[1])];
      if (jdx < 0) continue;
      const auto j = static_cast<std::size_t>(jdx);
      const std::size_t cell_i = plan->liquid_cells[i];
      const std::size_t cell_j = plan->liquid_cells[j];
      plan->slots.push_back({cell_i, cell_j, FlowPlan::SlotKind::kPair});
      emissions.push_back({i, i, 0.0});
      plan->slots.push_back({cell_i, cell_j, FlowPlan::SlotKind::kPair});
      emissions.push_back({j, j, 0.0});
      plan->slots.push_back({cell_i, cell_j, FlowPlan::SlotKind::kPairNeg});
      emissions.push_back({i, j, 0.0});
      plan->slots.push_back({cell_i, cell_j, FlowPlan::SlotKind::kPairNeg});
      emissions.push_back({j, i, 0.0});
    }
  }
  for (const Port& port : net.ports()) {
    const std::size_t cell = grid.index(port.row, port.col);
    const std::int32_t idx = plan->liquid_index[cell];
    const auto i = static_cast<std::size_t>(idx);
    plan->slots.push_back({cell, cell, FlowPlan::SlotKind::kPort});
    emissions.push_back({i, i, 0.0});
    if (port.kind == PortKind::kInlet) plan->inlet_ops.push_back({i, cell});
  }

  plan->pattern = sparse::SparsityPlan::analyze(n, n, emissions);
  return plan;
}

namespace {

/// The process-wide plan cache, keyed by CoolingNetwork::content_hash().
/// Thread-safe: lookups and inserts serialize on an internal mutex; plans
/// are immutable and handed out as shared_ptr, so clear() under concurrent
/// readers is safe — a reader either resolved its plan before the clear
/// (and keeps it alive through its shared_ptr) or rebuilds after it; it
/// never observes a half-cleared entry.
class FlowPlanCache {
 public:
  std::shared_ptr<const FlowPlan> plan_for(const CoolingNetwork& net);
  void clear();

 private:
  std::mutex mutex_;
  /// Hash bucket -> (network copy, plan). The copy disambiguates collisions.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<CoolingNetwork,
                                           std::shared_ptr<const FlowPlan>>>>
      entries_;
};

std::shared_ptr<const FlowPlan> FlowPlanCache::plan_for(
    const CoolingNetwork& net) {
  const std::uint64_t key = net.content_hash();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      for (const auto& [stored, plan] : it->second) {
        if (stored == net) {
          instrument::add(instrument::Counter::flow_plan_hits);
          return plan;
        }
      }
    }
  }
  instrument::add(instrument::Counter::flow_plan_misses);
  // Analyze outside the lock: plans for distinct networks build in parallel,
  // and a throwing analysis leaves the cache untouched.
  std::shared_ptr<const FlowPlan> plan = FlowPlan::analyze(net);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& bucket = entries_[key];
    for (const auto& [stored, existing] : bucket) {
      if (stored == net) return existing;  // lost a benign race; reuse theirs
    }
    bucket.emplace_back(net, plan);
  }
  return plan;
}

void FlowPlanCache::clear() {
  // Move the map out under the lock and destroy it after releasing: entry
  // destruction (network copies, plan refcounts) happens off the hot path,
  // and a concurrent plan_for() blocks only for the swap. Readers that
  // already resolved a plan keep it alive through their shared_ptr.
  decltype(entries_) doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    doomed.swap(entries_);
  }
}

FlowPlanCache& global_flow_plan_cache() {
  static FlowPlanCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const FlowPlan> flow_plan_for(const CoolingNetwork& net) {
  return global_flow_plan_cache().plan_for(net);
}

void flow_plan_cache_clear() { global_flow_plan_cache().clear(); }

}  // namespace lcn
