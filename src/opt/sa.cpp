#include "opt/sa.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/log.hpp"
#include "common/task_context.hpp"
#include "common/trace.hpp"
#include "network/design_rules.hpp"
#include "opt/islands.hpp"

namespace lcn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

int scaled(int value, double scale) {
  return std::max(1, static_cast<int>(std::lround(value * scale)));
}

EvalMode full_mode(DesignObjective objective) {
  return objective == DesignObjective::kPumpingPower ? EvalMode::kFullP1
                                                     : EvalMode::kFullP2;
}

}  // namespace

std::vector<SaStage> default_p1_stages(double scale) {
  // Paper §6: stages of 60/40/40/30 iterations and 8/4/2/1 rounds, 64
  // neighbors, 2RM for stages 1-3 and 4RM for stage 4. The default scale
  // shrinks the schedule for a single-core box; LCN_SA_SCALE restores it.
  const SimConfig fast{ThermalModelKind::k2RM, 4};
  const SimConfig accurate{ThermalModelKind::k4RM, 1};
  std::vector<SaStage> stages;
  stages.push_back({"s1-fixedP", scaled(60, scale), scaled(3, scale),
                    scaled(8, scale), 12, fast, true, 1});
  stages.push_back({"s2-coarse", scaled(24, scale), scaled(2, scale),
                    scaled(6, scale), 12, fast, false, 1});
  stages.push_back({"s3-fine", scaled(16, scale), 1, scaled(6, scale), 4,
                    fast, false, 1});
  stages.push_back({"s4-signoff", scaled(2, scale), 1, 2, 2, accurate,
                    false, 1});
  return stages;
}

std::vector<SaStage> default_p2_stages(double scale) {
  // Paper §6: 80/20/20 iterations, 8/2/1 rounds; stage 1 of Problem 1 is
  // dropped and grouped evaluation makes 4RM affordable earlier (§5).
  const SimConfig fast{ThermalModelKind::k2RM, 4};
  const SimConfig accurate{ThermalModelKind::k4RM, 1};
  std::vector<SaStage> stages;
  stages.push_back({"g1-coarse", scaled(40, scale), scaled(3, scale),
                    scaled(8, scale), 12, fast, false, 4});
  stages.push_back({"g2-fine", scaled(20, scale), scaled(2, scale),
                    scaled(8, scale), 4, fast, false, 4});
  stages.push_back({"g3-signoff", scaled(3, scale), 1, 2, 2, accurate, false,
                    4});
  return stages;
}

StageLabels stage_labels(const SaStage& stage) {
  return {stage.sim.model == ThermalModelKind::k4RM
              ? "4RM"
              : strfmt("2RM m=%d", stage.sim.thermal_cell),
          stage.fixed_pressure_cost
              ? "dT @ fixed P"
              : (stage.group_size > 1 ? strfmt("grouped/%d", stage.group_size)
                                      : "full eval")};
}

std::string format_stages(const std::vector<SaStage>& stages) {
  TextTable table({"stage", "iterations", "rounds", "neighbors", "step",
                   "model", "cost"});
  for (const SaStage& s : stages) {
    StageLabels labels = stage_labels(s);
    table.add_row({s.name, cell_int(s.iterations), cell_int(s.rounds),
                   cell_int(s.neighbors), cell_int(s.step),
                   std::move(labels.model), std::move(labels.cost)});
  }
  return table.str();
}

TreeTopologyOptimizer::TreeTopologyOptimizer(const BenchmarkCase& bench,
                                             DesignObjective objective,
                                             std::uint64_t seed)
    : bench_(bench), constraints_(bench.constraints), seed_(seed),
      full_mode_(full_mode(objective)) {
  rules_.forbidden = bench_.forbidden;
  if (objective == DesignObjective::kThermalGradient &&
      constraints_.w_pump_max <= 0.0) {
    constraints_.w_pump_max = problem2_pump_budget(bench);
  }
  // 4RM probes are ~40x pricier; keep the search frugal but accurate enough
  // for the metrics reported.
  search_options_.rel_precision = 1e-2;
  search_options_.max_probes = 60;
}

CoolingNetwork TreeTopologyOptimizer::realize(const TreeLayout& layout,
                                              int direction) const {
  CoolingNetwork net = make_tree_network(bench_.problem.grid, layout)
                           .transformed(D4Transform(direction));
  if (!bench_.forbidden.empty()) {
    apply_forbidden_region(net, bench_.forbidden);
  }
  return net;
}

EvalResult TreeTopologyOptimizer::evaluate_network(
    const CoolingNetwork& network, const SimConfig& sim,
    std::optional<EvalMode> mode, double pressure,
    std::uint64_t* design) const {
  if (!check_design_rules(network, rules_).ok()) {
    if (design != nullptr) *design = 0;
    return EvalResult::infeasible_result();
  }
  const EvalMode resolved = mode.value_or(full_mode_);
  const EvalCacheKey key = make_eval_key(network, sim, resolved, pressure);
  if (design != nullptr) *design = key.network;
  if (const auto cached = cache_.find(key)) return *cached;
  const EvalResult result = evaluate(bench_.problem, network, constraints_,
                                     resolved, sim, search_options_, pressure);
  cache_.store(key, result);
  return result;
}

TreeLayout TreeTopologyOptimizer::initial_layout() const {
  const Grid2D& grid = bench_.problem.grid;
  int b1 = grid.cols() / 3;
  int b2 = 2 * grid.cols() / 3;
  b1 -= b1 % 2;
  b2 -= b2 % 2;
  return make_uniform_layout(grid, b1, b2);
}

TreeLayout TreeTopologyOptimizer::mutate(const TreeLayout& layout, int step,
                                         Rng& rng) const {
  TreeLayout out = layout;
  for (TreeSpec& spec : out.trees) {
    // Each parameter moves by ±step or stays, with equal probability (§4.4).
    for (int* param : {&spec.b1, &spec.b2}) {
      if (rng.next_bool()) continue;
      *param += rng.next_bool() ? step : -step;
    }
    legalize_tree_spec(bench_.problem.grid, spec);
  }
  return out;
}

int TreeTopologyOptimizer::pick_direction(const TreeLayout& probe_layout,
                                          const SimConfig& sim,
                                          std::size_t* evaluations) const {
  const trace::Span span("sa_direction_sweep");
  double best_score = kInf;
  int best_dir = 0;
  for (int dir = 0; dir < D4Transform::kCount; ++dir) {
    throw_if_cancelled();
    const EvalResult result =
        evaluate_network(realize(probe_layout, dir), sim);
    if (evaluations != nullptr) ++*evaluations;
    LCN_INFO() << bench_.name << ": direction " << dir << " score "
               << result.score;
    if (result.score < best_score) {
      best_score = result.score;
      best_dir = dir;
    }
  }
  return best_dir;
}

DesignOutcome TreeTopologyOptimizer::run(const std::vector<SaStage>& stages) {
  // The annealing loop itself lives in the island engine (opt/islands.cpp):
  // running it with one island and communication off IS the plain
  // single-chain SA, so there is exactly one trajectory implementation and
  // the K=1 equivalence contract of DESIGN.md §S21 holds by construction.
  return detail::run_islands(*this, stages, IslandOptions{}).best;
}

BaselineOutcome best_straight_baseline(const BenchmarkCase& bench,
                                       DesignObjective objective,
                                       const SimConfig& signoff) {
  DesignConstraints limits = bench.constraints;
  if (objective == DesignObjective::kThermalGradient &&
      limits.w_pump_max <= 0.0) {
    limits.w_pump_max = problem2_pump_budget(bench);
  }
  DesignRules rules;
  rules.forbidden = bench.forbidden;

  PressureSearchOptions options;
  options.rel_precision = 1e-2;

  BaselineOutcome best;
  best.eval = EvalResult::infeasible_result();
  const CoolingNetwork canonical = make_straight_channels(bench.problem.grid);
  const EvalMode mode = full_mode(objective);
  // Straight channels are invariant under the row mirror, so only the four
  // rotations are distinct directions. Select with the fast model, then sign
  // off the winner with the accurate one.
  const SimConfig fast{ThermalModelKind::k2RM, 4};
  for (int dir = 0; dir < 4; ++dir) {
    CoolingNetwork net = canonical.transformed(D4Transform(dir));
    if (!bench.forbidden.empty()) apply_forbidden_region(net, bench.forbidden);
    if (!check_design_rules(net, rules).ok()) continue;
    const EvalResult result =
        evaluate(bench.problem, net, limits, mode, fast, options);
    if (result.score < best.eval.score) {
      best.eval = result;
      best.network = net;
      best.direction = dir;
      best.feasible = result.feasible;
    }
  }
  if (best.feasible || best.eval.p_sys > 0.0) {
    best.eval =
        evaluate(bench.problem, best.network, limits, mode, signoff, options);
    best.feasible = best.eval.feasible;
  }
  return best;
}

}  // namespace lcn
