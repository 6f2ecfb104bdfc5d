// Tests for network evaluation (Algorithm 2 / §5) and the SA topology
// optimizer (S10, S12) on reduced-size problems.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/instrument.hpp"
#include "network/design_rules.hpp"
#include "network/generators.hpp"
#include "opt/evaluator.hpp"
#include "opt/sa.hpp"
#include "reliability/fault_model.hpp"

namespace lcn {
namespace {

BenchmarkCase small_case(double watts = 8.0, double delta_t_star = 12.0,
                         double t_max_star = 400.0) {
  BenchmarkCase bench;
  bench.id = 99;
  bench.name = "unit-small";
  bench.problem.grid = Grid2D(31, 31, 100e-6);
  bench.problem.stack = make_interlayer_stack(2, 200e-6);
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 0.55 * watts, 11));
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 0.45 * watts, 12));
  bench.constraints.delta_t_max = delta_t_star;
  bench.constraints.t_max = t_max_star;
  return bench;
}

SimConfig fast_sim() { return SimConfig{ThermalModelKind::k2RM, 3}; }

TEST(SystemEvaluator, ProbeCachesByPressure) {
  const BenchmarkCase bench = small_case();
  SystemEvaluator eval(bench.problem,
                       make_straight_channels(bench.problem.grid), fast_sim());
  const ThermalProbe a = eval.probe(2000.0);
  const ThermalProbe b = eval.probe(2000.0);
  EXPECT_EQ(eval.simulations(), 1u);
  EXPECT_DOUBLE_EQ(a.delta_t, b.delta_t);
  eval.probe(3000.0);
  EXPECT_EQ(eval.simulations(), 2u);
}

TEST(SystemEvaluator, PumpingPowerMatchesResistance) {
  const BenchmarkCase bench = small_case();
  SystemEvaluator eval(bench.problem,
                       make_straight_channels(bench.problem.grid), fast_sim());
  const double r = eval.system_resistance();
  EXPECT_NEAR(eval.pumping_power(4000.0), 4000.0 * 4000.0 / r,
              eval.pumping_power(4000.0) * 1e-9);
}

TEST(EvaluateP1, FeasibleSolutionSatisfiesConstraints) {
  const BenchmarkCase bench = small_case();
  SystemEvaluator eval(bench.problem,
                       make_straight_channels(bench.problem.grid), fast_sim());
  const EvalResult result = evaluate_p1(eval, bench.constraints);
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.at_p.delta_t, bench.constraints.delta_t_max * 1.001);
  EXPECT_LE(result.at_p.t_max, bench.constraints.t_max * 1.001);
  EXPECT_NEAR(result.score, result.w_pump, result.w_pump * 1e-12);
  EXPECT_GT(result.p_sys, 0.0);
}

TEST(EvaluateP1, ImpossibleGradientIsInfeasible) {
  const BenchmarkCase bench = small_case(8.0, /*delta_t_star=*/0.01);
  SystemEvaluator eval(bench.problem,
                       make_straight_channels(bench.problem.grid), fast_sim());
  const EvalResult result = evaluate_p1(eval, bench.constraints);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(std::isinf(result.score));
}

TEST(EvaluateP1, TightPeakTemperatureRaisesPressure) {
  const BenchmarkCase loose = small_case(8.0, 12.0, 400.0);
  const BenchmarkCase tight = small_case(8.0, 12.0, 316.0);
  SystemEvaluator eval_loose(loose.problem,
                             make_straight_channels(loose.problem.grid),
                             fast_sim());
  SystemEvaluator eval_tight(tight.problem,
                             make_straight_channels(tight.problem.grid),
                             fast_sim());
  const EvalResult a = evaluate_p1(eval_loose, loose.constraints);
  const EvalResult b = evaluate_p1(eval_tight, tight.constraints);
  ASSERT_TRUE(a.feasible);
  if (b.feasible) {
    EXPECT_GE(b.p_sys, a.p_sys);
    EXPECT_LE(b.at_p.t_max, 316.0 * 1.001);
  }
}

TEST(EvaluateP2, RespectsPumpBudget) {
  BenchmarkCase bench = small_case();
  bench.constraints.w_pump_max = 1e-3 * bench.problem.total_power();
  SystemEvaluator eval(bench.problem,
                       make_straight_channels(bench.problem.grid), fast_sim());
  const EvalResult result = evaluate_p2(eval, bench.constraints);
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.w_pump, bench.constraints.w_pump_max * 1.001);
  EXPECT_NEAR(result.score, result.at_p.delta_t, 1e-12);
}

TEST(EvaluateP2, LargerBudgetNeverWorse) {
  BenchmarkCase bench = small_case();
  SystemEvaluator eval(bench.problem,
                       make_straight_channels(bench.problem.grid), fast_sim());
  bench.constraints.w_pump_max = 0.5e-3 * bench.problem.total_power();
  const EvalResult small_budget = evaluate_p2(eval, bench.constraints);
  bench.constraints.w_pump_max = 8e-3 * bench.problem.total_power();
  const EvalResult large_budget = evaluate_p2(eval, bench.constraints);
  ASSERT_TRUE(small_budget.feasible);
  ASSERT_TRUE(large_budget.feasible);
  EXPECT_LE(large_budget.score, small_budget.score * 1.02);
}

TEST(EvaluateP2At, OverBudgetPressureIsInfeasible) {
  BenchmarkCase bench = small_case();
  bench.constraints.w_pump_max = 1e-6;
  SystemEvaluator eval(bench.problem,
                       make_straight_channels(bench.problem.grid), fast_sim());
  const EvalResult result =
      evaluate_p2_at(eval, bench.constraints, 1e6);
  EXPECT_FALSE(result.feasible);
}

void expect_same_result(const EvalResult& got, const EvalResult& want) {
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.p_sys, want.p_sys);
  EXPECT_EQ(got.w_pump, want.w_pump);
  EXPECT_EQ(got.at_p.delta_t, want.at_p.delta_t);
  EXPECT_EQ(got.at_p.t_max, want.at_p.t_max);
}

/// The one evaluation entry point, per EvalMode: evaluate() reproduces the
/// SystemEvaluator sequence it replaced bit for bit and counts a solver
/// failure once; evaluate_network() rejects DRC violations before the cache
/// and otherwise caches exactly what evaluate() returns.
class EvaluateEntryPoint : public ::testing::TestWithParam<EvalMode> {};

TEST_P(EvaluateEntryPoint, MatchesHandWrittenSequenceAndCachedPath) {
  const EvalMode mode = GetParam();
  BenchmarkCase bench = small_case();
  bench.constraints.w_pump_max = 2e-3 * bench.problem.total_power();
  const CoolingNetwork net = make_tree_network(
      bench.problem.grid, make_uniform_layout(bench.problem.grid, 8, 16));
  const double pressure = 3000.0;
  PressureSearchOptions search;
  search.rel_precision = 1e-2;

  SystemEvaluator eval(bench.problem, net, fast_sim());
  EvalResult want;
  switch (mode) {
    case EvalMode::kFullP1:
      want = evaluate_p1(eval, bench.constraints, search);
      break;
    case EvalMode::kFullP2:
      want = evaluate_p2(eval, bench.constraints, search);
      break;
    case EvalMode::kP2Follower:
      want = evaluate_p2_at(eval, bench.constraints, pressure);
      break;
    case EvalMode::kFixedPressure:
      want.feasible = true;
      want.p_sys = pressure;
      want.w_pump = eval.pumping_power(pressure);
      want.at_p = eval.probe(pressure);
      want.score = want.at_p.delta_t;
      break;
  }
  ASSERT_TRUE(want.feasible);
  expect_same_result(evaluate(bench.problem, net, bench.constraints, mode,
                              fast_sim(), search, pressure),
                     want);

  // Every inlet blocked: the flow solve throws, and the one catch scores
  // the design infeasible and counts the failure exactly once.
  CoolingNetwork serpentine = make_serpentine(bench.problem.grid);
  const Port inlet = serpentine.ports().front().kind == PortKind::kInlet
                         ? serpentine.ports().front()
                         : serpentine.ports().back();
  FaultScenario blockage;
  blockage.faults.push_back({FaultKind::kChannelBlockage, inlet.row,
                             inlet.col, 0, /*severity=*/1.0, 0.0, -1});
  const DegradedSystem broken =
      apply_scenario(bench.problem, serpentine, blockage);
  const std::uint64_t failures = instrument::snapshot().eval_failures;
  expect_same_result(evaluate(broken.problem, broken.network,
                              bench.constraints, mode, fast_sim(), search,
                              pressure),
                     EvalResult::infeasible_result());
  EXPECT_EQ(instrument::snapshot().eval_failures, failures + 1);

  // The optimizer's cached path: a DRC reject never reaches the cache, and
  // a clean design caches the evaluate() result.
  TreeTopologyOptimizer opt(bench, DesignObjective::kPumpingPower, 3);

  CoolingNetwork dirty(bench.problem.grid, /*alternating_tsvs=*/false);
  for (int c = 0; c < 31; ++c) dirty.set_liquid(1, c);  // odd row: TSV row
  dirty.add_port({1, 0, Side::kWest, PortKind::kInlet});
  dirty.add_port({1, 30, Side::kEast, PortKind::kOutlet});
  std::uint64_t design = 1;
  expect_same_result(
      opt.evaluate_network(dirty, fast_sim(), mode, pressure, &design),
      EvalResult::infeasible_result());
  EXPECT_EQ(design, 0u);
  EXPECT_EQ(opt.cache().misses(), 0u);
  EXPECT_EQ(opt.cache().hits(), 0u);

  // The optimizer's own search options (TreeTopologyOptimizer constructor).
  search.max_probes = 60;
  const EvalResult nominal = evaluate(bench.problem, net, opt.constraints(),
                                      mode, fast_sim(), search, pressure);
  const EvalResult cached =
      opt.evaluate_network(net, fast_sim(), mode, pressure, &design);
  EXPECT_EQ(design, net.content_hash());
  EXPECT_EQ(opt.cache().misses(), 1u);
  expect_same_result(cached, nominal);
  expect_same_result(
      opt.evaluate_network(net, fast_sim(), mode, pressure, &design), nominal);
  EXPECT_EQ(opt.cache().hits(), 1u);
}

std::string mode_name(const ::testing::TestParamInfo<EvalMode>& info) {
  static const char* const kNames[] = {"FullP1", "FullP2", "FixedPressure",
                                       "P2Follower"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(Modes, EvaluateEntryPoint,
                         ::testing::Values(EvalMode::kFullP1,
                                           EvalMode::kFullP2,
                                           EvalMode::kFixedPressure,
                                           EvalMode::kP2Follower),
                         mode_name);

TEST(Baseline, PicksBestDirectionAndSatisfiesConstraints) {
  const BenchmarkCase bench = small_case();
  const BaselineOutcome base = best_straight_baseline(
      bench, DesignObjective::kPumpingPower, fast_sim());
  ASSERT_TRUE(base.feasible);
  EXPECT_LE(base.eval.at_p.delta_t, bench.constraints.delta_t_max * 1.001);
  EXPECT_TRUE(check_design_rules(base.network).ok());
}

TEST(TreeOptimizer, RealizeAppliesDirectionAndForbiddenRegion) {
  BenchmarkCase bench = small_case();
  bench.forbidden = CellRect{12, 12, 18, 18};
  TreeTopologyOptimizer opt(bench, DesignObjective::kPumpingPower, 3);
  const TreeLayout layout = make_uniform_layout(bench.problem.grid, 8, 16);
  for (int dir = 0; dir < D4Transform::kCount; ++dir) {
    const CoolingNetwork net = opt.realize(layout, dir);
    DesignRules rules;
    rules.forbidden = bench.forbidden;
    EXPECT_TRUE(check_design_rules(net, rules).ok()) << "dir " << dir;
  }
}

TEST(TreeOptimizer, EvaluateNetworkRejectsDirtyDesigns) {
  const BenchmarkCase bench = small_case();
  TreeTopologyOptimizer opt(bench, DesignObjective::kPumpingPower, 3);
  // A network violating the TSV keep-out must score +inf.
  CoolingNetwork dirty(bench.problem.grid, /*alternating_tsvs=*/false);
  for (int c = 0; c < 31; ++c) dirty.set_liquid(1, c);  // odd row: TSV row
  dirty.add_port({1, 0, Side::kWest, PortKind::kInlet});
  dirty.add_port({1, 30, Side::kEast, PortKind::kOutlet});
  const EvalResult result = opt.evaluate_network(dirty, fast_sim());
  EXPECT_FALSE(result.feasible);
}

TEST(TreeOptimizer, SaImprovesOrMatchesInitialLayout) {
  const BenchmarkCase bench = small_case();
  TreeTopologyOptimizer opt(bench, DesignObjective::kPumpingPower, 5);

  // Score of the uniform initial layout (direction 0 for comparability).
  const TreeLayout init = make_uniform_layout(bench.problem.grid, 10, 20);
  const EvalResult init_eval =
      opt.evaluate_network(opt.realize(init, 0), fast_sim());

  std::vector<SaStage> stages;
  stages.push_back({"test", 6, 1, 3, 4, fast_sim(), false, 1});
  const DesignOutcome outcome = opt.run(stages);
  ASSERT_TRUE(outcome.feasible);
  // The sign-off model differs (4RM), so compare loosely: the optimized
  // design must not be drastically worse than the uniform start.
  EXPECT_LT(outcome.eval.score, init_eval.score * 1.5);
  EXPECT_TRUE(check_design_rules(outcome.network).ok());
  EXPECT_GT(outcome.evaluations, 8u);
}

TEST(TreeOptimizer, ThermalGradientObjectiveProducesFeasibleDesign) {
  BenchmarkCase bench = small_case();
  bench.constraints.w_pump_max = 2e-3 * bench.problem.total_power();
  TreeTopologyOptimizer opt(bench, DesignObjective::kThermalGradient, 5);
  std::vector<SaStage> stages;
  stages.push_back({"test", 4, 1, 2, 4, fast_sim(), false, 2});
  const DesignOutcome outcome = opt.run(stages);
  ASSERT_TRUE(outcome.feasible);
  EXPECT_LE(outcome.eval.w_pump, bench.constraints.w_pump_max * 1.001);
}

TEST(Schedules, DefaultStagesAreWellFormed) {
  for (double scale : {0.2, 1.0, 2.0}) {
    for (const auto& stages :
         {default_p1_stages(scale), default_p2_stages(scale)}) {
      ASSERT_FALSE(stages.empty());
      for (const SaStage& s : stages) {
        EXPECT_GE(s.iterations, 1);
        EXPECT_GE(s.rounds, 1);
        EXPECT_GE(s.neighbors, 1);
        EXPECT_GT(s.step, 0);
        EXPECT_EQ(s.step % 2, 0);
        EXPECT_GE(s.group_size, 1);
      }
      // The last stage signs off with the accurate model.
      EXPECT_EQ(stages.back().sim.model, ThermalModelKind::k4RM);
    }
  }
}

}  // namespace
}  // namespace lcn
