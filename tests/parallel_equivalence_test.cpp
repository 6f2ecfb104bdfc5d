// Thread-count independence of the coarse parallel loops (DESIGN.md §S1):
// the pool has the requested width, and an SA run — whose neighbours are
// scored across the pool — follows the same trajectory at any width. The
// numerical kernels under those loops run on the calling thread, so they
// have no width to vary. The suite is parameterized over {1, 2, 4, 8}
// workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "geom/benchmarks.hpp"
#include "opt/sa.hpp"

namespace lcn {
namespace {

class ParallelEquivalence : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { set_global_pool_threads(GetParam()); }
  static void TearDownTestSuite() { set_global_pool_threads(0); }
};

TEST_P(ParallelEquivalence, PoolHasRequestedWidth) {
  EXPECT_EQ(global_pool_threads(), GetParam());
}

struct SaRunResult {
  std::uint64_t network_hash = 0;
  double score = 0.0;
  double p_sys = 0.0;
  std::size_t evaluations = 0;
};

SaRunResult run_small_sa() {
  BenchmarkCase bench;
  bench.id = 98;
  bench.name = "parallel-equivalence";
  bench.problem.grid = Grid2D(31, 31, 100e-6);
  bench.problem.stack = make_interlayer_stack(2, 200e-6);
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 4.4, 21));
  bench.problem.source_power.push_back(
      synthesize_power_map(bench.problem.grid, 3.6, 22));
  bench.constraints.delta_t_max = 12.0;
  bench.constraints.t_max = 400.0;

  TreeTopologyOptimizer opt(bench, DesignObjective::kPumpingPower, 5);
  std::vector<SaStage> stages;
  stages.push_back(
      {"equiv", 4, 2, 3, 4, SimConfig{ThermalModelKind::k2RM, 3}, false, 1});
  const DesignOutcome outcome = opt.run(stages);
  SaRunResult result;
  result.network_hash = outcome.network.content_hash();
  result.score = outcome.eval.score;
  result.p_sys = outcome.eval.p_sys;
  result.evaluations = outcome.evaluations;
  return result;
}

TEST_P(ParallelEquivalence, SaTrajectoryIndependentOfThreadCount) {
  // Per-neighbor rng streams + index-ordered reductions make the whole SA
  // trajectory — accepted moves, final network, evaluation count — a pure
  // function of the seed, regardless of how many threads score the pool.
  static const SaRunResult reference = [] {
    set_global_pool_threads(1);
    return run_small_sa();
  }();
  set_global_pool_threads(GetParam());
  const SaRunResult run = run_small_sa();
  EXPECT_EQ(reference.network_hash, run.network_hash);
  EXPECT_EQ(reference.evaluations, run.evaluations);
  EXPECT_DOUBLE_EQ(reference.score, run.score);
  EXPECT_DOUBLE_EQ(reference.p_sys, run.p_sys);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lcn
