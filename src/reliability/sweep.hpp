// Monte-Carlo degradation sweeps and graceful-degradation planning
// (DESIGN.md §S17).
//
// Given a finished design — a network plus its nominal operating pressure —
// the sweep samples N fault scenarios from a FaultDistribution, evaluates the
// degraded system at the *delivered* pressure each scenario leaves the pump
// able to command, and reduces the outcomes into exceedance probabilities
// P(T_max > T*_max) / P(ΔT > ΔT*), margin quantiles, and the worst offending
// scenario. For every scenario that violates the limits, the planner reuses
// the Algorithm-2 pressure search to find the minimum command that restores
// feasibility, classifying the fault as recoverable (with its recovery
// pumping-power cost) or unrecoverable.
//
// Determinism: scenario k is sampled from an rng stream keyed by
// (seed, k) and each scenario's evaluation runs on the one pool worker that
// draws it, so fanning the sweep over the LCN_THREADS pool and reducing in
// scenario order yields bit-identical statistics for
// LCN_THREADS ∈ {1, 2, 4, 8, ...}.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "opt/evaluator.hpp"
#include "opt/pressure_search.hpp"
#include "reliability/fault_model.hpp"

namespace lcn {

enum class RecoveryKind : std::uint8_t {
  kNotNeeded = 0,     ///< scenario meets the limits at the delivered pressure
  kRecovered = 1,     ///< a higher pump command restores feasibility
  kUnrecoverable = 2  ///< no command in the search range is feasible
};

const char* recovery_kind_name(RecoveryKind kind);

struct ScenarioOutcome {
  FaultScenario scenario;
  /// False when the degraded flow system could not be evaluated at all
  /// (e.g. a blockage decoupled every inlet) — counted as exceeding both
  /// limits and as unrecoverable.
  bool evaluated = false;
  bool feasible = false;
  double p_delivered = 0.0;  ///< Pa actually reaching the network
  double w_pump = 0.0;       ///< W at the delivered pressure
  ThermalProbe at_p;         ///< metrics at the delivered pressure
  double t_margin = 0.0;     ///< T*_max - T_max, K (negative = violation)
  double dt_margin = 0.0;    ///< ΔT* - ΔT, K

  RecoveryKind recovery = RecoveryKind::kNotNeeded;
  double recovery_p_sys = 0.0;   ///< commanded Pa restoring feasibility
  double recovery_w_pump = 0.0;  ///< W at the recovery operating point
};

struct SweepOptions {
  int scenarios = 64;
  std::uint64_t seed = 0x5eedfau;
  SimConfig sim{ThermalModelKind::k2RM, 4};
  FaultDistribution distribution;
  /// Run the graceful-degradation planner on infeasible scenarios.
  bool plan_recovery = true;
  PressureSearchOptions search;
};

struct SweepReport {
  /// Nominal (fault-free) reference at the commanded pressure.
  double p_nominal = 0.0;
  double w_nominal = 0.0;
  ThermalProbe nominal;

  std::vector<ScenarioOutcome> outcomes;  ///< scenario order (index = k)

  std::size_t evaluated = 0;
  std::size_t infeasible = 0;      ///< violate limits at delivered pressure
  std::size_t recovered = 0;
  std::size_t unrecoverable = 0;

  /// Exceedance probabilities over all N scenarios (unevaluable scenarios
  /// count as exceeding).
  double p_exceed_t_max = 0.0;
  double p_exceed_delta_t = 0.0;
  double p_infeasible = 0.0;

  /// T_max / ΔT margin quantiles over the evaluated scenarios (K).
  double t_margin_q10 = 0.0, t_margin_q50 = 0.0, t_margin_q90 = 0.0;
  double dt_margin_q10 = 0.0, dt_margin_q50 = 0.0, dt_margin_q90 = 0.0;

  /// Index of the worst offending scenario (smallest T_max margin;
  /// unevaluable scenarios rank worst of all), -1 when N = 0.
  int worst_scenario = -1;

  double seconds = 0.0;

  /// Mean extra pumping power across recovered scenarios (W), 0 when none.
  double mean_recovery_w_extra = 0.0;
};

/// The design a sweep degrades, evaluated once at its commanded pressure.
/// Every scenario reuses it: a scenario without a blockage evaluates on
/// `model` itself (its flow solution and assembly plan), and each scenario's
/// first solve starts from `temperatures` shifted by its inlet drift.
struct NominalDesign {
  CoolingProblem problem;
  CoolingNetwork network;
  SimConfig sim;
  double p_command = 0.0;
  std::shared_ptr<const ThermalModel> model;
  ThermalProbe at_p;  ///< verdict probe at p_command
  double w_pump = 0.0;
  std::vector<double> temperatures;  ///< node temperatures at p_command
};

/// Build and probe the nominal design. Throws when it cannot be evaluated —
/// a design that cannot be simulated has no business being swept.
NominalDesign evaluate_nominal(const CoolingProblem& problem,
                               const CoolingNetwork& network,
                               double p_command, const SimConfig& sim);

/// Evaluate one scenario at the nominal commanded pressure (the scenario's
/// droop decides what is delivered), planning recovery when asked. The
/// scenario is applied as split_scenario() splits it: blockages build a
/// degraded model, droop derates the pump, drift and power excursions are
/// the evaluator's BoundaryState. The recovery search enters Algorithm 3 at
/// the delivered pressure, which leaves its result that of a cold search.
/// Exposed for tests and for custom (non-Monte-Carlo) what-if studies.
ScenarioOutcome evaluate_scenario(const NominalDesign& nominal,
                                  const FaultScenario& scenario,
                                  const DesignConstraints& limits,
                                  const SweepOptions& options);

/// Run the full sweep. `p_nominal` is the design's commanded operating
/// pressure (e.g. EvalResult::p_sys from evaluate_p1). Throws when the
/// *nominal* system itself cannot be evaluated.
SweepReport run_sweep(const CoolingProblem& problem,
                      const CoolingNetwork& network,
                      const DesignConstraints& limits, double p_nominal,
                      const SweepOptions& options);

}  // namespace lcn
