#include "exhaustive.hpp"

#include "common/thread_pool.hpp"

namespace lcn {

ExhaustiveResult exhaustive_uniform_search(const BenchmarkCase& bench,
                                           DesignObjective objective,
                                           const SimConfig& sim, int stride,
                                           int direction) {
  LCN_REQUIRE(stride >= 2 && stride % 2 == 0,
              "stride must be even and >= 2");
  TreeTopologyOptimizer opt(bench, objective, /*seed=*/1);

  const int lo = min_branch_col(bench.problem.grid);
  const int hi = max_branch_col(bench.problem.grid);
  std::vector<std::pair<int, int>> grid_points;
  for (int b1 = lo; b1 + 2 <= hi; b1 += stride) {
    for (int b2 = b1 + 2; b2 <= hi; b2 += stride) {
      grid_points.emplace_back(b1, b2);
    }
  }

  std::vector<EvalResult> scores(grid_points.size());
  global_pool().parallel_for(grid_points.size(), [&](std::size_t i) {
    const TreeLayout layout = make_uniform_layout(
        bench.problem.grid, grid_points[i].first, grid_points[i].second);
    scores[i] = opt.evaluate_network(opt.realize(layout, direction), sim);
  });

  ExhaustiveResult best;
  best.eval = EvalResult::infeasible_result();
  best.evaluations = grid_points.size();
  for (std::size_t i = 0; i < grid_points.size(); ++i) {
    if (scores[i].score < best.eval.score) {
      best.eval = scores[i];
      best.b1 = grid_points[i].first;
      best.b2 = grid_points[i].second;
      best.feasible = scores[i].feasible;
    }
  }
  return best;
}

}  // namespace lcn
