// Exhaustive grid search over *uniform* tree layouts: every legal (b1, b2)
// pair (optionally strided) with the same value for all trees.
//
// The uniform subspace is small (O(cols²/4) points), so it can be swept
// exactly — the oracle that cross-validates the SA optimizer on small cases.
#pragma once

#include "geom/benchmarks.hpp"
#include "opt/sa.hpp"

namespace lcn {

struct ExhaustiveResult {
  bool feasible = false;
  int b1 = 0;
  int b2 = 0;
  EvalResult eval;
  std::size_t evaluations = 0;
};

/// Sweep uniform layouts (b1, b2) with the given stride (even, >= 2) for a
/// fixed direction, scoring with the objective's full network evaluation.
ExhaustiveResult exhaustive_uniform_search(const BenchmarkCase& bench,
                                           DesignObjective objective,
                                           const SimConfig& sim,
                                           int stride = 8, int direction = 0);

}  // namespace lcn
