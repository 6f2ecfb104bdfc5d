// Reliability engine (DESIGN.md §S17): fault-model semantics, graceful
// degradation, and the Monte-Carlo sweep's determinism contract — identical
// statistics, bit for bit, at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/instrument.hpp"
#include "common/thread_pool.hpp"
#include "geom/benchmarks.hpp"
#include "network/generators.hpp"
#include "opt/sa.hpp"
#include "reliability/fault_model.hpp"
#include "reliability/sweep.hpp"

namespace lcn {
namespace {

CoolingProblem small_problem() {
  CoolingProblem problem;
  problem.grid = Grid2D(31, 31, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  problem.source_power.push_back(
      synthesize_power_map(problem.grid, 4.0, 31));
  problem.source_power.push_back(
      synthesize_power_map(problem.grid, 3.2, 32));
  return problem;
}

CoolingNetwork tree_network(const CoolingProblem& problem) {
  return make_tree_network(problem.grid,
                           make_uniform_layout(problem.grid, 10, 20));
}

DesignConstraints loose_limits() {
  DesignConstraints limits;
  limits.delta_t_max = 40.0;
  limits.t_max = 500.0;
  return limits;
}

SweepOptions small_sweep_options(int scenarios = 24) {
  SweepOptions options;
  options.scenarios = scenarios;
  options.seed = 77;
  options.sim = SimConfig{ThermalModelKind::k2RM, 4};
  options.search.rel_precision = 1e-2;
  options.search.max_probes = 40;
  return options;
}

TEST(FaultModelTest, ZeroMagnitudeScenarioReproducesNominalProbeExactly) {
  const CoolingProblem problem = small_problem();
  const CoolingNetwork net = tree_network(problem);
  SystemEvaluator nominal(problem, net, SimConfig{ThermalModelKind::k2RM, 4});
  const ThermalProbe reference = nominal.probe(5000.0);

  FaultScenario zero;
  zero.faults.push_back(
      {FaultKind::kChannelBlockage, 8, 8, 1, /*severity=*/0.0, 0.0, -1});
  zero.faults.push_back({FaultKind::kPumpDroop, 0, 0, 0, 0.0, 0.0, -1});
  zero.faults.push_back({FaultKind::kInletDrift, 0, 0, 0, 0.0, 0.0, -1});
  zero.faults.push_back({FaultKind::kPowerExcursion, 0, 0, 0, 0.0, 0.0, -1});
  const DegradedSystem degraded = apply_scenario(problem, net, zero);

  EXPECT_EQ(degraded.network, net);
  EXPECT_EQ(degraded.pressure_derate, 1.0);
  EXPECT_TRUE(degraded.problem.flow_options.cell_conductance_scale.empty());
  SystemEvaluator eval(degraded.problem, degraded.network,
                       SimConfig{ThermalModelKind::k2RM, 4});
  const ThermalProbe probe = eval.probe(5000.0);
  EXPECT_EQ(reference.delta_t, probe.delta_t);
  EXPECT_EQ(reference.t_max, probe.t_max);
}

TEST(FaultModelTest, PartialBlockageRaisesResistanceAndPeakTemperature) {
  const CoolingProblem problem = small_problem();
  const CoolingNetwork net = tree_network(problem);
  SystemEvaluator nominal(problem, net, SimConfig{ThermalModelKind::k2RM, 4});
  const ThermalProbe ref = nominal.probe(5000.0);
  const double w_ref = nominal.pumping_power(5000.0);

  // Clog the west half, where every tree's trunk enters: with all trunks
  // throttled the network must run hotter at the same pressure.
  FaultScenario scenario;
  scenario.faults.push_back(
      {FaultKind::kChannelBlockage, 15, 0, 15, /*severity=*/0.9, 0.0, -1});
  const DegradedSystem degraded = apply_scenario(problem, net, scenario);
  ASSERT_FALSE(degraded.problem.flow_options.cell_conductance_scale.empty());
  EXPECT_EQ(degraded.network, net);  // partial blockage keeps the geometry

  SystemEvaluator eval(degraded.problem, degraded.network,
                       SimConfig{ThermalModelKind::k2RM, 4});
  // Higher hydraulic resistance => less coolant at the same pressure =>
  // lower pumping power and a hotter chip.
  EXPECT_LT(eval.pumping_power(5000.0), w_ref);
  EXPECT_GT(eval.probe(5000.0).t_max, ref.t_max);
}

TEST(FaultModelTest, FullyBlockedInletBranchIsInfeasible) {
  const CoolingProblem problem = small_problem();
  // A serpentine has exactly one inlet; fully blocking its cell leaves a
  // liquid network whose pump is decoupled — no flow, no evaluation.
  CoolingNetwork net = make_serpentine(problem.grid);
  ASSERT_EQ(net.ports().size(), 2u);
  const Port inlet = net.ports().front().kind == PortKind::kInlet
                         ? net.ports().front()
                         : net.ports().back();

  FaultScenario scenario;
  scenario.faults.push_back({FaultKind::kChannelBlockage, inlet.row,
                             inlet.col, 0, /*severity=*/1.0, 0.0, -1});
  const DegradedSystem degraded = apply_scenario(problem, net, scenario);
  EXPECT_LT(degraded.network.liquid_count(), net.liquid_count());

  const SweepOptions options = small_sweep_options();
  const ScenarioOutcome outcome = evaluate_scenario(
      evaluate_nominal(problem, net, 5000.0, options.sim), scenario,
      loose_limits(), options);
  EXPECT_FALSE(outcome.evaluated);
  EXPECT_FALSE(outcome.feasible);
  EXPECT_EQ(outcome.recovery, RecoveryKind::kUnrecoverable);
}

TEST(FaultModelTest, PumpDroopAndDriftComposeIntoDegradedSystem) {
  const CoolingProblem problem = small_problem();
  const CoolingNetwork net = tree_network(problem);
  FaultScenario scenario;
  scenario.faults.push_back({FaultKind::kPumpDroop, 0, 0, 0, 0.2, 0.0, -1});
  scenario.faults.push_back({FaultKind::kPumpDroop, 0, 0, 0, 0.5, 0.0, -1});
  scenario.faults.push_back({FaultKind::kInletDrift, 0, 0, 0, 0.0, 5.0, -1});
  scenario.faults.push_back(
      {FaultKind::kPowerExcursion, 0, 0, 0, 0.0, 0.25, 1});
  const DegradedSystem degraded = apply_scenario(problem, net, scenario);
  EXPECT_DOUBLE_EQ(degraded.pressure_derate, 0.8 * 0.5);
  EXPECT_DOUBLE_EQ(degraded.delivered_pressure(1000.0), 400.0);
  EXPECT_DOUBLE_EQ(degraded.problem.inlet_temperature,
                   problem.inlet_temperature + 5.0);
  EXPECT_NEAR(degraded.problem.source_power[1].total(),
              1.25 * problem.source_power[1].total(), 1e-9);
  EXPECT_DOUBLE_EQ(degraded.problem.source_power[0].total(),
                   problem.source_power[0].total());
  // The nominal inputs are untouched.
  EXPECT_DOUBLE_EQ(problem.inlet_temperature, 300.0);
}

TEST(FaultModelTest, ScenarioSamplingIsAPureFunctionOfSeedAndIndex) {
  FaultDistribution dist;
  dist.p_blockage = 1.0;  // scenarios always non-empty, so seeds can't alias
  const Grid2D grid(31, 31, 100e-6);
  for (const std::size_t index : {std::size_t{0}, std::size_t{7}}) {
    Rng a = scenario_rng(123, index);
    Rng b = scenario_rng(123, index);
    const FaultScenario sa = sample_scenario(dist, grid, 2, a);
    const FaultScenario sb = sample_scenario(dist, grid, 2, b);
    EXPECT_EQ(sa.faults, sb.faults);
  }
  Rng a = scenario_rng(123, 0);
  Rng b = scenario_rng(124, 0);
  const FaultScenario sa = sample_scenario(dist, grid, 2, a);
  const FaultScenario sb = sample_scenario(dist, grid, 2, b);
  EXPECT_NE(sa.faults, sb.faults);
}

TEST(SweepTest, DroopOnlyScenarioIsRecoverableWithHigherCommand) {
  const CoolingProblem problem = small_problem();
  const CoolingNetwork net = tree_network(problem);
  DesignConstraints limits;
  limits.delta_t_max = 12.0;
  limits.t_max = 400.0;

  // Find the nominal operating point, then starve the pump by 40%: the
  // delivered pressure falls below the feasibility threshold and the planner
  // must find a higher command that restores it.
  const SweepOptions options = small_sweep_options();
  SystemEvaluator eval(problem, net, SimConfig{ThermalModelKind::k2RM, 4});
  const EvalResult nominal = evaluate_p1(eval, limits, options.search);
  ASSERT_TRUE(nominal.feasible);

  FaultScenario scenario;
  scenario.faults.push_back({FaultKind::kPumpDroop, 0, 0, 0, 0.4, 0.0, -1});
  const ScenarioOutcome outcome = evaluate_scenario(
      evaluate_nominal(problem, net, nominal.p_sys, options.sim), scenario,
      limits, options);
  ASSERT_TRUE(outcome.evaluated);
  EXPECT_FALSE(outcome.feasible);
  ASSERT_EQ(outcome.recovery, RecoveryKind::kRecovered);
  // The recovery command exceeds the nominal one (it must out-shout the
  // droop) and its pumping power is at least the nominal operating cost.
  EXPECT_GT(outcome.recovery_p_sys, nominal.p_sys);
  EXPECT_GE(outcome.recovery_w_pump, nominal.w_pump * (1.0 - 1e-6));
}

TEST(SweepTest, ReportStatisticsAreConsistent) {
  const CoolingProblem problem = small_problem();
  const CoolingNetwork net = tree_network(problem);
  const SweepReport report = run_sweep(problem, net, loose_limits(), 5000.0,
                                       small_sweep_options(16));
  ASSERT_EQ(report.outcomes.size(), 16u);
  EXPECT_GE(report.p_exceed_t_max, 0.0);
  EXPECT_LE(report.p_exceed_t_max, 1.0);
  EXPECT_GE(report.p_exceed_delta_t, 0.0);
  EXPECT_LE(report.p_exceed_delta_t, 1.0);
  EXPECT_EQ(report.infeasible,
            report.recovered + report.unrecoverable);
  EXPECT_GE(report.worst_scenario, 0);
  EXPECT_LT(report.worst_scenario, 16);
  EXPECT_GE(report.t_margin_q90, report.t_margin_q50);
  EXPECT_GE(report.t_margin_q50, report.t_margin_q10);
  // The loose limits keep the nominal design feasible.
  EXPECT_LT(report.nominal.t_max, loose_limits().t_max);
}

TEST(SweepTest, SweepBumpsInstrumentationCounters) {
  const CoolingProblem problem = small_problem();
  const CoolingNetwork net = tree_network(problem);
  const instrument::Snapshot before = instrument::snapshot();
  const SweepReport report = run_sweep(problem, net, loose_limits(), 5000.0,
                                       small_sweep_options(12));
  const instrument::Snapshot delta =
      instrument::delta(before, instrument::snapshot());
  EXPECT_EQ(delta.scenarios_evaluated, 12u);
  EXPECT_EQ(delta.scenarios_infeasible,
            static_cast<std::uint64_t>(report.infeasible));
  EXPECT_GE(delta.recovery_searches,
            static_cast<std::uint64_t>(report.recovered));
  // The new counters are part of the JSON record schema.
  EXPECT_NE(delta.json().find("\"scenarios_evaluated\":12"),
            std::string::npos);
}

// A sweep applies drift and power excursions as a boundary on the nominal
// model, starts every scenario from the nominal field and enters the
// recovery search at the delivered pressure. None of that may change a
// verdict: each scenario must classify, and recover at the same command and
// pumping power, bit for bit as a cold Algorithm 2 on a fresh evaluator of
// apply_scenario()'s degraded copy; the margins move only by solver
// tolerance.
TEST(SweepTest, RecoveryMatchesAColdSearch) {
  const BenchmarkCase bench = make_iccad_case(1);
  const Grid2D& grid = bench.problem.grid;
  const int b1 = grid.cols() / 3 - (grid.cols() / 3) % 2;
  const int b2 = 2 * grid.cols() / 3 - (2 * grid.cols() / 3) % 2;
  const CoolingNetwork net =
      make_tree_network(grid, make_uniform_layout(grid, b1, b2));
  const DesignConstraints& limits = bench.constraints;
  SweepOptions options;
  options.scenarios = 16;
  options.seed = 1;
  SystemEvaluator nominal_eval(bench.problem, net, options.sim);
  const EvalResult nominal =
      evaluate_p1(nominal_eval, limits, options.search);
  ASSERT_TRUE(nominal.feasible);

  const instrument::Snapshot before = instrument::snapshot();
  const SweepReport report =
      run_sweep(bench.problem, net, limits, nominal.p_sys, options);
  const instrument::Snapshot delta =
      instrument::delta(before, instrument::snapshot());
  ASSERT_EQ(report.outcomes.size(), 16u);
  EXPECT_GT(report.recovered, 0u);
  // Every recovery search entered at its hint.
  EXPECT_GT(delta.recovery_searches, 0u);
  EXPECT_EQ(delta.search_entries, delta.recovery_searches);

  for (std::size_t k = 0; k < report.outcomes.size(); ++k) {
    const ScenarioOutcome& out = report.outcomes[k];
    const DegradedSystem degraded =
        apply_scenario(bench.problem, net, out.scenario);
    EXPECT_EQ(out.p_delivered, degraded.delivered_pressure(nominal.p_sys))
        << "scenario " << k;
    bool evaluated = false;
    RecoveryKind recovery = RecoveryKind::kUnrecoverable;
    double recovery_p_sys = 0.0;
    double recovery_w_pump = 0.0;
    try {
      SystemEvaluator cold(degraded.problem, degraded.network, options.sim);
      const ThermalProbe at_p = cold.probe(out.p_delivered);
      evaluated = true;
      EXPECT_EQ(out.w_pump, cold.pumping_power(out.p_delivered))
          << "scenario " << k;
      EXPECT_NEAR(out.at_p.delta_t, at_p.delta_t, 1e-5 * at_p.delta_t)
          << "scenario " << k;
      EXPECT_NEAR(out.at_p.t_max, at_p.t_max, 1e-5 * at_p.t_max)
          << "scenario " << k;
      if (at_p.t_max <= limits.t_max && at_p.delta_t <= limits.delta_t_max) {
        recovery = RecoveryKind::kNotNeeded;
      } else {
        SystemEvaluator fresh(degraded.problem, degraded.network,
                              options.sim);
        const EvalResult cold_search =
            evaluate_p1(fresh, limits, options.search);
        if (cold_search.feasible) {
          recovery = RecoveryKind::kRecovered;
          recovery_p_sys = cold_search.p_sys / degraded.pressure_derate;
          recovery_w_pump = cold_search.w_pump;
        }
      }
    } catch (const RuntimeError&) {
    }
    EXPECT_EQ(out.evaluated, evaluated) << "scenario " << k;
    EXPECT_EQ(out.recovery, recovery) << "scenario " << k;
    EXPECT_EQ(out.recovery_p_sys, recovery_p_sys) << "scenario " << k;
    EXPECT_EQ(out.recovery_w_pump, recovery_w_pump) << "scenario " << k;
  }
}

// A scenario without a blockage evaluates on the nominal model: no flow
// solve (so no flow-plan lookup) and no symbolic assembly of its own, not
// even in its recovery search. Partial blockages keep the network, so their
// flow plan is a cache hit and each costs exactly one thermal plan.
TEST(SweepTest, BoundaryOnlyScenariosBuildNoModel) {
  const CoolingProblem problem = small_problem();
  const CoolingNetwork net = tree_network(problem);
  DesignConstraints limits;
  limits.delta_t_max = 12.0;
  limits.t_max = 400.0;
  // At the Algorithm-2 operating point every droop, drift or excursion
  // breaks a limit, so the recovery searches run too.
  SystemEvaluator eval(problem, net, SimConfig{ThermalModelKind::k2RM, 4});
  const EvalResult nominal_point =
      evaluate_p1(eval, limits, small_sweep_options().search);
  ASSERT_TRUE(nominal_point.feasible);
  struct Builds {
    SweepReport report;
    std::uint64_t symbolic = 0;
    std::uint64_t flow_lookups = 0;
  };
  auto sweep = [&](const SweepOptions& options) {
    const instrument::Snapshot before = instrument::snapshot();
    Builds out{
        run_sweep(problem, net, limits, nominal_point.p_sys, options)};
    const instrument::Snapshot delta =
        instrument::delta(before, instrument::snapshot());
    out.symbolic = delta.assemblies_symbolic;
    out.flow_lookups = delta.flow_plan_hits + delta.flow_plan_misses;
    return out;
  };
  SweepOptions nominal_only = small_sweep_options(0);
  sweep(nominal_only);  // warms the flow-plan cache
  const Builds nominal = sweep(nominal_only);
  EXPECT_EQ(nominal.symbolic, 1u);

  SweepOptions boundary_only = small_sweep_options(16);
  boundary_only.distribution.p_blockage = 0.0;
  const Builds faults = sweep(boundary_only);
  std::size_t faulted = 0;
  for (const ScenarioOutcome& out : faults.report.outcomes) {
    if (!out.scenario.empty()) ++faulted;
  }
  EXPECT_GT(faulted, 0u);
  EXPECT_GT(faults.report.infeasible, 0u);
  EXPECT_EQ(faults.symbolic, nominal.symbolic);
  EXPECT_EQ(faults.flow_lookups, nominal.flow_lookups);

  SweepOptions mixed = small_sweep_options(16);
  mixed.distribution.full_blockage_fraction = 0.0;
  const Builds both = sweep(mixed);
  std::uint64_t blocked = 0;
  for (const ScenarioOutcome& out : both.report.outcomes) {
    for (const Fault& fault : out.scenario.faults) {
      if (fault.kind == FaultKind::kChannelBlockage) {
        ++blocked;
        break;
      }
    }
  }
  EXPECT_GT(blocked, 0u);
  EXPECT_LT(blocked, 16u);
  EXPECT_EQ(both.symbolic, 1 + blocked);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts (the PR-1 contract extended to sweeps).

class ReliabilityParallel : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { set_global_pool_threads(GetParam()); }
  static void TearDownTestSuite() { set_global_pool_threads(0); }
};

void expect_reports_identical(const SweepReport& a, const SweepReport& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t k = 0; k < a.outcomes.size(); ++k) {
    const ScenarioOutcome& x = a.outcomes[k];
    const ScenarioOutcome& y = b.outcomes[k];
    EXPECT_EQ(x.scenario.faults, y.scenario.faults) << "scenario " << k;
    EXPECT_EQ(x.evaluated, y.evaluated) << "scenario " << k;
    EXPECT_EQ(x.feasible, y.feasible) << "scenario " << k;
    EXPECT_EQ(x.p_delivered, y.p_delivered) << "scenario " << k;
    EXPECT_EQ(x.w_pump, y.w_pump) << "scenario " << k;
    EXPECT_EQ(x.at_p.t_max, y.at_p.t_max) << "scenario " << k;
    EXPECT_EQ(x.at_p.delta_t, y.at_p.delta_t) << "scenario " << k;
    EXPECT_EQ(x.recovery, y.recovery) << "scenario " << k;
    EXPECT_EQ(x.recovery_p_sys, y.recovery_p_sys) << "scenario " << k;
    EXPECT_EQ(x.recovery_w_pump, y.recovery_w_pump) << "scenario " << k;
  }
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.unrecoverable, b.unrecoverable);
  EXPECT_EQ(a.p_exceed_t_max, b.p_exceed_t_max);
  EXPECT_EQ(a.p_exceed_delta_t, b.p_exceed_delta_t);
  EXPECT_EQ(a.t_margin_q10, b.t_margin_q10);
  EXPECT_EQ(a.t_margin_q50, b.t_margin_q50);
  EXPECT_EQ(a.t_margin_q90, b.t_margin_q90);
  EXPECT_EQ(a.dt_margin_q10, b.dt_margin_q10);
  EXPECT_EQ(a.dt_margin_q50, b.dt_margin_q50);
  EXPECT_EQ(a.dt_margin_q90, b.dt_margin_q90);
  EXPECT_EQ(a.worst_scenario, b.worst_scenario);
  EXPECT_EQ(a.mean_recovery_w_extra, b.mean_recovery_w_extra);
}

TEST_P(ReliabilityParallel, SweepStatisticsIndependentOfThreadCount) {
  const CoolingProblem problem = small_problem();
  const CoolingNetwork net = tree_network(problem);
  DesignConstraints limits;
  limits.delta_t_max = 12.0;
  limits.t_max = 380.0;

  static const SweepReport reference = [&] {
    set_global_pool_threads(1);
    return run_sweep(problem, net, limits, 5000.0, small_sweep_options());
  }();
  set_global_pool_threads(GetParam());
  const SweepReport report =
      run_sweep(problem, net, limits, 5000.0, small_sweep_options());
  expect_reports_identical(reference, report);
}

INSTANTIATE_TEST_SUITE_P(Threads, ReliabilityParallel,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lcn
