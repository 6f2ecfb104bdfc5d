// Tests for the exhaustive uniform-layout search, including the SA
// cross-validation it exists for.
#include <gtest/gtest.h>

#include "exhaustive.hpp"

namespace lcn {
namespace {

BenchmarkCase small_case() {
  BenchmarkCase bench;
  bench.id = 98;
  bench.name = "unit-exhaustive";
  bench.problem.grid = Grid2D(21, 21, 100e-6);
  bench.problem.stack = make_interlayer_stack(2, 200e-6);
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 3.0, 31));
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 2.0, 32));
  bench.constraints.delta_t_max = 12.0;
  bench.constraints.t_max = 400.0;
  return bench;
}

TEST(Exhaustive, FindsFeasibleOptimumOnSmallCase) {
  const BenchmarkCase bench = small_case();
  const SimConfig sim{ThermalModelKind::k2RM, 3};
  const ExhaustiveResult result = exhaustive_uniform_search(
      bench, DesignObjective::kPumpingPower, sim, /*stride=*/4);
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.evaluations, 4u);
  EXPECT_LT(result.b1, result.b2);
  EXPECT_LE(result.eval.at_p.delta_t, bench.constraints.delta_t_max * 1.001);
}

TEST(Exhaustive, StrideValidation) {
  const BenchmarkCase bench = small_case();
  const SimConfig sim{ThermalModelKind::k2RM, 3};
  EXPECT_THROW(exhaustive_uniform_search(
                   bench, DesignObjective::kPumpingPower, sim, 3),
               ContractError);
}

TEST(Exhaustive, SaIsNotMuchWorseThanExhaustive) {
  // Cross-validation: SA (which also moves per-tree parameters) should reach
  // a score within a modest factor of the exhaustive *uniform* optimum.
  const BenchmarkCase bench = small_case();
  const SimConfig sim{ThermalModelKind::k2RM, 3};
  const ExhaustiveResult exact = exhaustive_uniform_search(
      bench, DesignObjective::kPumpingPower, sim, /*stride=*/2);
  ASSERT_TRUE(exact.feasible);

  TreeTopologyOptimizer opt(bench, DesignObjective::kPumpingPower, 13);
  std::vector<SaStage> stages;
  stages.push_back({"x", 8, 1, 4, 4, sim, false, 1});
  const DesignOutcome sa = opt.run(stages);
  ASSERT_TRUE(sa.feasible);
  // Different sign-off model (4RM) => compare loosely.
  EXPECT_LT(sa.eval.score, exact.eval.score * 1.6);
}

}  // namespace
}  // namespace lcn
