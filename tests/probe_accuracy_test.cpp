// The accuracy contract of the pressure searches (DESIGN.md §S9): search
// probes are solved loosely, verdicts and reported numbers tightly, and the
// guard band is sized from the measured loose-vs-tight error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "geom/benchmarks.hpp"
#include "network/generators.hpp"
#include "opt/evaluator.hpp"
#include "opt/sa.hpp"

namespace lcn {
namespace {

CoolingNetwork uniform_tree(const BenchmarkCase& bench) {
  return make_tree_network(bench.problem.grid,
                           make_uniform_layout(bench.problem.grid, 8, 16));
}

TEST(SystemEvaluator, LooseAndTightProbesAreCachedApart) {
  const BenchmarkCase bench = make_iccad_case(1);
  SystemEvaluator eval(bench.problem, uniform_tree(bench),
                       SimConfig{ThermalModelKind::k2RM, 4});
  const ThermalProbe loose = eval.probe(5000.0, ProbeAccuracy::kSearch);
  EXPECT_EQ(eval.simulations(), 1u);
  EXPECT_EQ(eval.probe(5000.0, ProbeAccuracy::kSearch).delta_t,
            loose.delta_t);
  EXPECT_EQ(eval.simulations(), 1u);

  // A verdict at the same pressure is a second, tighter solve ...
  const ThermalProbe tight = eval.probe(5000.0);
  EXPECT_EQ(eval.simulations(), 2u);
  EXPECT_NE(tight.delta_t, loose.delta_t);
  EXPECT_NEAR(tight.delta_t, loose.delta_t,
              kProbeGuardBand / 3.0 * tight.delta_t);
  // ... and from then on answers search probes there too.
  EXPECT_EQ(eval.probe(5000.0, ProbeAccuracy::kSearch).delta_t,
            tight.delta_t);
  EXPECT_EQ(eval.probe(5000.0).delta_t, tight.delta_t);
  EXPECT_EQ(eval.simulations(), 2u);
}

TEST(SystemEvaluator, RejectsPressuresTheOrderedStoreCannotHold) {
  const BenchmarkCase bench = make_iccad_case(1);
  SystemEvaluator eval(bench.problem, uniform_tree(bench),
                       SimConfig{ThermalModelKind::k2RM, 4});
  for (const double p : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 0.0, -0.0,
                         -5000.0}) {
    EXPECT_THROW(eval.probe(p, ProbeAccuracy::kSearch), ContractError) << p;
    EXPECT_THROW(eval.probe(p), ContractError) << p;
  }
  EXPECT_EQ(eval.simulations(), 0u);
}

// The guard band must exceed the loose error with margin. On the uniform
// tree, for both models, on a two-die and the three-die case, over the
// pressures the searches visit, from a cold start, warm-started from a
// neighbouring probe (0.8 P, as a bisection step leaves it) and from the 1/P
// interpolation of the probes at 0.8 P and 1.25 P: the relative error of a
// loose probe in ΔT and in T_max − T_in stays within a third of the band.
TEST(ProbeAccuracy, LooseErrorStaysWithinAThirdOfTheGuardBand) {
  double worst = 0.0;
  for (const int id : {1, 4}) {
    const BenchmarkCase bench = make_iccad_case(id);
    const CoolingNetwork net = uniform_tree(bench);
    const double t_in = bench.problem.inlet_temperature;
    for (const SimConfig sim : {SimConfig{ThermalModelKind::k2RM, 4},
                                SimConfig{ThermalModelKind::k4RM, 1}}) {
      for (const double p : {3e3, 1e4, 3e4}) {
        SystemEvaluator tight(bench.problem, net, sim);
        const ThermalProbe want = tight.probe(p);
        SystemEvaluator cold(bench.problem, net, sim);
        SystemEvaluator warm(bench.problem, net, sim);
        warm.probe(0.8 * p, ProbeAccuracy::kSearch);
        SystemEvaluator interpolated(bench.problem, net, sim);
        interpolated.probe(0.8 * p, ProbeAccuracy::kSearch);
        interpolated.probe(1.25 * p, ProbeAccuracy::kSearch);
        for (SystemEvaluator* loose : {&cold, &warm, &interpolated}) {
          const char* start = loose == &cold   ? " cold"
                              : loose == &warm ? " warm"
                                               : " interpolated";
          const ThermalProbe got = loose->probe(p, ProbeAccuracy::kSearch);
          const double dt_err =
              std::abs(got.delta_t - want.delta_t) / want.delta_t;
          const double rise_err =
              std::abs(got.t_max - want.t_max) / (want.t_max - t_in);
          EXPECT_LE(dt_err, kProbeGuardBand / 3.0)
              << "case " << id << " model " << static_cast<int>(sim.model)
              << " P " << p << start;
          EXPECT_LE(rise_err, kProbeGuardBand / 3.0)
              << "case " << id << " model " << static_cast<int>(sim.model)
              << " P " << p << start;
          worst = std::max({worst, dt_err, rise_err});
        }
      }
    }
  }
  // The loose probes are loose: a tolerance that already solved tightly
  // would pass the bound above without measuring anything.
  EXPECT_GT(worst, 1e-6);
}

// Entering Algorithm 3 at the 2RM crossing skips the cold grid's probes
// below it and leaves the 4RM Problem-1 result bit for bit where the cold
// search puts it.
TEST(ProbeAccuracy, TwoRmHintLeavesProblemOneResultBitIdentical) {
  for (const int id : {1, 4}) {
    const BenchmarkCase bench = make_iccad_case(id);
    const CoolingNetwork net = uniform_tree(bench);
    const SimConfig fine{ThermalModelKind::k4RM, 1};
    const double hint =
        p1_entry_hint(bench.problem, net, bench.constraints, {});
    ASSERT_GT(hint, 0.0) << "case " << id;
    SystemEvaluator cold(bench.problem, net, fine);
    SystemEvaluator hinted(bench.problem, net, fine);
    const EvalResult want = evaluate_p1(cold, bench.constraints);
    const EvalResult got = evaluate_p1(hinted, bench.constraints, {}, hint);
    EXPECT_TRUE(want.feasible) << "case " << id;
    EXPECT_EQ(got.feasible, want.feasible) << "case " << id;
    EXPECT_EQ(got.p_sys, want.p_sys) << "case " << id;
    EXPECT_EQ(got.w_pump, want.w_pump) << "case " << id;
    EXPECT_LT(hinted.simulations(), cold.simulations()) << "case " << id;
  }
}

TEST(ProbeAccuracy, FourRmProblemOneEvaluationEntersAtTheHint) {
  const BenchmarkCase bench = make_iccad_case(1);
  const instrument::Snapshot before = instrument::snapshot();
  const EvalResult r =
      evaluate(bench.problem, uniform_tree(bench), bench.constraints,
               EvalMode::kFullP1, SimConfig{ThermalModelKind::k4RM, 1}, {});
  const instrument::Snapshot used =
      instrument::delta(before, instrument::snapshot());
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(used.search_entries, 1u);
  EXPECT_EQ(used.search_entry_fallbacks, 0u);
  EXPECT_EQ(used.eval_failures, 0u);
}

/// One 2RM iteration, then a one-neighbour 4RM sign-off.
std::vector<SaStage> tiny_schedule(int group_size) {
  return {{"coarse", 1, 1, 2, 12, SimConfig{ThermalModelKind::k2RM, 4}, false,
           group_size},
          {"signoff", 1, 1, 1, 2, SimConfig{ThermalModelKind::k4RM, 1}, false,
           1}};
}

TEST(ProbeAccuracy, CaseOneProblemOneRunHasNoResidualViolations) {
  const BenchmarkCase bench = make_iccad_case(1);
  const instrument::Snapshot before = instrument::snapshot();
  TreeTopologyOptimizer opt(bench, DesignObjective::kPumpingPower, 7);
  const DesignOutcome out = opt.run(tiny_schedule(1));
  const instrument::Snapshot used =
      instrument::delta(before, instrument::snapshot());
  ASSERT_TRUE(out.feasible);
  EXPECT_GT(used.steady_solves, 0u);
  EXPECT_EQ(used.residual_violations, 0u);
  EXPECT_EQ(used.steady_solve_failures, 0u);
  EXPECT_EQ(used.eval_failures, 0u);
}

// Problem 2 reads loose probes in golden-section comparisons, where a wrong
// order moves the optimum; the guard must keep the signed-off design and its
// ΔT where tight probes everywhere put them.
TEST(ProbeAccuracy, CaseOneProblemTwoSignsOffAsWithEveryProbeTight) {
  BenchmarkCase bench = make_iccad_case(1);
  bench.constraints.w_pump_max = problem2_pump_budget(bench);
  const auto design = [&bench] {
    TreeTopologyOptimizer opt(bench, DesignObjective::kThermalGradient, 7);
    return opt.run(tiny_schedule(2));
  };
  const DesignOutcome loose = design();
  DesignOutcome tight;
  {
    const ScopedTightSearchProbes every_probe_tight;
    tight = design();
  }
  ASSERT_TRUE(loose.feasible);
  ASSERT_TRUE(tight.feasible);
  EXPECT_EQ(loose.network.content_hash(), tight.network.content_hash());
  EXPECT_NEAR(loose.eval.at_p.delta_t, tight.eval.at_p.delta_t,
              1e-4 * tight.eval.at_p.delta_t);
}

}  // namespace
}  // namespace lcn
