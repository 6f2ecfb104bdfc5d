// Robust (worst-case-over-faults) network evaluation (DESIGN.md §S17).
//
// The SA optimizer normally scores a candidate under pristine conditions;
// robust mode re-scores it as the *worst case* over a small fixed fault
// sample, so the search prefers designs that keep working when a channel
// clogs or the pump droops. The sample is drawn once per run from the grid
// (blockage centers map to each candidate's nearest liquid cells at apply
// time), so every candidate faces the same faults and scores stay
// comparable; its fingerprint is mixed into the evaluator-cache problem
// fingerprint so robust and nominal probes can never alias.
#pragma once

#include <cstdint>
#include <vector>

#include "opt/evaluator.hpp"
#include "reliability/fault_model.hpp"

namespace lcn {

struct RobustOptions {
  /// Fault sample size. Every full network evaluation costs (1 + scenarios)
  /// nominal evaluations, so keep it small for SA (the default quadruples
  /// the cost, not more).
  int scenarios = 3;
  std::uint64_t seed = 0x0b0b5eedu;
  FaultDistribution distribution;
};

/// The fixed fault sample of one robust run.
class RobustSample {
 public:
  RobustSample() = default;
  RobustSample(const Grid2D& grid, int source_layers,
               const RobustOptions& options);

  const std::vector<FaultScenario>& scenarios() const { return scenarios_; }
  bool empty() const { return scenarios_.empty(); }

  /// Mixed into the eval-cache problem fingerprint (opt/eval_cache.hpp).
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  std::vector<FaultScenario> scenarios_;
  std::uint64_t fingerprint_ = 0;
};

/// Worst-case evaluation: the nominal system and every degraded variant are
/// scored with evaluate_p1 (mode kFullP1) or evaluate_p2 (kFullP2); the
/// result is the highest (worst) score, and the design is feasible only when
/// every variant is. Runs serially over the sample — robust evaluations are
/// invoked from inside SA neighbor tasks, where the inner kernels already
/// stay serial by the nesting guard.
EvalResult robust_evaluate(const CoolingProblem& nominal,
                           const CoolingNetwork& network,
                           const DesignConstraints& limits, EvalMode mode,
                           const SimConfig& sim,
                           const PressureSearchOptions& search,
                           const RobustSample& sample);

}  // namespace lcn
