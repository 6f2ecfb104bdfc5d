// Multi-stage simulated-annealing topology optimization (paper Algorithm 1,
// §4.4 for pumping power, §5 for thermal gradient).
//
// The outer SA searches the per-tree branch positions (b1, b2) of the
// hierarchical tree-like network. Stages go from rough-and-fast to
// accurate-and-slow: a fixed-pressure ΔT stage (one simulation per
// candidate), full lowest-feasible-pumping-power stages on the 2RM model
// with large then small steps, and a final 4RM stage. Problem 2 replaces the
// cost with ΔT, drops the first stage, and groups consecutive iterations so
// only group leaders run the full pressure search (§5 changes 1-4).
//
// The eight global flow directions (Fig. 8(a)) are the D4 symmetries of the
// square die: candidates are generated in a canonical west-to-east frame and
// mapped through the chosen transform; all eight are scored and the best is
// kept, as in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geom/benchmarks.hpp"
#include "network/design_rules.hpp"
#include "network/generators.hpp"
#include "opt/eval_cache.hpp"
#include "opt/evaluator.hpp"

namespace lcn {

namespace detail {
class IslandEngine;  // opt/islands.cpp: the K-chain generalization of run()
}  // namespace detail

enum class DesignObjective {
  kPumpingPower,    ///< Problem 1: min W_pump s.t. ΔT*, T*_max
  kThermalGradient  ///< Problem 2: min ΔT s.t. W*_pump, T*_max
};

struct SaStage {
  std::string name;
  int iterations = 10;
  int rounds = 1;
  int neighbors = 4;  ///< candidates evaluated per iteration (paper: 64)
  int step = 8;       ///< branch-position move size, basic cells (even)
  SimConfig sim;      ///< thermal model used by this stage
  /// Stage-1 style single-simulation cost (ΔT at a fixed pressure) vs the
  /// full network evaluation (Algorithm 2 / §5).
  bool fixed_pressure_cost = false;
  /// Problem-2 grouped iterations: leaders run the full pressure search,
  /// followers reuse the leader's optimal pressure (1 = no grouping).
  int group_size = 1;
};

/// The paper's four-stage Problem-1 schedule (60/40/40/30 iterations at
/// 8/4/2/1 rounds, 64-wide) scaled by `scale`; the default scale targets a
/// single-core machine (see DESIGN.md §4, substitution 3).
std::vector<SaStage> default_p1_stages(double scale = 1.0);

/// The paper's three-stage Problem-2 schedule (80/20/20 iterations at 8/2/1
/// rounds) scaled by `scale`.
std::vector<SaStage> default_p2_stages(double scale = 1.0);

/// A stage's "model" and "cost" labels: format_stages columns and sa_stage
/// trace-span args.
struct StageLabels {
  std::string model;
  std::string cost;
};
StageLabels stage_labels(const SaStage& stage);

/// Render a stage schedule as an aligned table (the paper's Table 1).
std::string format_stages(const std::vector<SaStage>& stages);

struct DesignOutcome {
  bool feasible = false;
  CoolingNetwork network;  ///< chip frame, restricted region applied
  TreeLayout layout;       ///< canonical frame
  int direction = 0;       ///< D4 code
  EvalResult eval;         ///< final sign-off evaluation
  double seconds = 0.0;
  std::size_t evaluations = 0;   ///< candidate networks scored
  std::size_t cache_hits = 0;    ///< evaluator-cache hits over the run
  std::size_t cache_misses = 0;  ///< evaluator-cache misses over the run
};

class TreeTopologyOptimizer {
 public:
  TreeTopologyOptimizer(const BenchmarkCase& bench, DesignObjective objective,
                        std::uint64_t seed = 1);

  /// Full flow: direction sweep, staged SA, 4RM sign-off.
  DesignOutcome run(const std::vector<SaStage>& stages);

  /// Realize a canonical layout in the chip frame (transform + restricted
  /// region).
  CoolingNetwork realize(const TreeLayout& layout, int direction) const;

  /// The one cached evaluation path (DESIGN.md §S10): DRC, cache, then
  /// evaluate(). `mode` defaults to the objective's full search; `design`,
  /// when given, receives the network's content hash (0 for a DRC reject).
  /// Infeasible designs, DRC rejects and hydraulically broken ones score
  /// +inf.
  EvalResult evaluate_network(const CoolingNetwork& network,
                              const SimConfig& sim,
                              std::optional<EvalMode> mode = std::nullopt,
                              double pressure = 0.0,
                              std::uint64_t* design = nullptr) const;

  const DesignConstraints& constraints() const { return constraints_; }

  /// The run's evaluator cache (DESIGN.md §S10); exposed for tests and
  /// bench instrumentation.
  const EvaluatorCache& cache() const { return cache_; }

 private:
  /// The island engine (opt/islands.cpp) runs K generalized copies of this
  /// optimizer's annealing loop over its private evaluation context; run()
  /// itself delegates there with K=1, so single-chain and island SA share
  /// one trajectory implementation by construction.
  friend class detail::IslandEngine;

  TreeLayout initial_layout() const;
  TreeLayout mutate(const TreeLayout& layout, int step, Rng& rng) const;
  int pick_direction(const TreeLayout& probe_layout, const SimConfig& sim,
                     std::size_t* evaluations) const;

  const BenchmarkCase& bench_;
  DesignConstraints constraints_;
  std::uint64_t seed_;
  EvalMode full_mode_;  ///< kFullP1 or kFullP2, from the objective
  DesignRules rules_;   ///< DRC with the case's restricted region
  PressureSearchOptions search_options_;
  mutable EvaluatorCache cache_;
};

struct BaselineOutcome {
  bool feasible = false;
  CoolingNetwork network;
  int direction = 0;
  EvalResult eval;
};

/// The paper's baseline: regular straight channels, best global direction
/// (evaluated with the sign-off model).
BaselineOutcome best_straight_baseline(const BenchmarkCase& bench,
                                       DesignObjective objective,
                                       const SimConfig& signoff = {
                                           ThermalModelKind::k4RM, 1});

}  // namespace lcn
