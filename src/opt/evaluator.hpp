// Cooling-system evaluation (paper §4.2 Algorithm 2 and §5).
//
// SystemEvaluator binds a cooling problem to one candidate network (shared
// across all channel layers, which also satisfies the case-4 matched
// inlet/outlet rule by construction), builds the flow field once, and serves
// cached ΔT/T_max probes at any P_sys, loose for search steps and tight for
// verdicts (DESIGN.md §S9). evaluate_p1/evaluate_p2 implement the
// two-step network evaluations that score a network by its lowest feasible
// pumping power (Problem 1) or its lowest achievable thermal gradient under
// a pumping budget (Problem 2). Their searches read loose probes through the
// guard band; the operating point they report is solved tightly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "network/cooling_network.hpp"
#include "opt/pressure_search.hpp"
#include "thermal/boundary.hpp"
#include "thermal/model_2rm.hpp"
#include "thermal/model_4rm.hpp"
#include "thermal/problem.hpp"

namespace lcn {

enum class ThermalModelKind { k2RM, k4RM };

struct SimConfig {
  ThermalModelKind model = ThermalModelKind::k2RM;
  /// Thermal cell size in basic cells (2RM only). 4 => 400 µm cells on the
  /// benchmark grid, the paper's accuracy/runtime sweet spot.
  int thermal_cell = 4;
};

/// A thermal model of one network: its flow solution and, once built, its
/// assembly plan. Evaluators over the same model share both.
using ThermalModel = std::variant<Thermal2RM, Thermal4RM>;

/// The `config` model of `network` on every channel layer (one flow solve;
/// the assembly plan is built on the first probe).
ThermalModel make_thermal_model(const CoolingProblem& problem,
                                const CoolingNetwork& network,
                                const SimConfig& config);

struct ThermalProbe {
  double delta_t = 0.0;
  double t_max = 0.0;
};

/// How tightly a probe is solved (DESIGN.md §S9).
enum class ProbeAccuracy : std::uint8_t {
  /// Relative residual kVerdictTolerance: reported numbers, fixed-pressure
  /// scores and every search decision inside the guard band.
  kVerdict = 0,
  /// kSearchProbeTolerance: search steps away from any decision.
  kSearch = 1,
};

/// Relative residual of a verdict probe.
inline constexpr double kVerdictTolerance = 1e-9;

class SystemEvaluator {
 public:
  /// Throws (flow solve) when the network is hydraulically singular —
  /// evaluate() scores construction failure as an infeasible design.
  SystemEvaluator(const CoolingProblem& problem, const CoolingNetwork& network,
                  const SimConfig& config);

  /// An evaluator over an existing model — its flow solution and assembly
  /// plan, so no flow solve and no symbolic build — whose probes assemble
  /// under `boundary` (inlet temperature, per-layer power scale; §S23). The
  /// first solve starts from `first_guess` when its size matches the system.
  SystemEvaluator(std::shared_ptr<const ThermalModel> model,
                  BoundaryState boundary,
                  std::vector<double> first_guess = {});

  /// ΔT and T_max at a positive, finite pressure (cached; one linear solve
  /// per new P_sys and accuracy). A search probe at a pressure already solved
  /// tightly returns the tight result. A new solve warm-starts from the loose
  /// field at the same pressure, else from the 1/P interpolation of the
  /// nearest solved fields below and above, else from the nearest solved
  /// field, else from the first guess, else from T_in.
  ThermalProbe probe(double p_sys,
                     ProbeAccuracy accuracy = ProbeAccuracy::kVerdict);

  double delta_t(double p_sys) { return probe(p_sys).delta_t; }
  double t_max(double p_sys) { return probe(p_sys).t_max; }

  double pumping_power(double p_sys) const;
  double system_resistance() const;
  double inlet_temperature() const { return boundary_.inlet_temperature; }

  /// Full-resolution field (for maps); bypasses the cache.
  ThermalField field(double p_sys) const;

  /// The model every probe assembles from.
  const std::shared_ptr<const ThermalModel>& model() const { return model_; }

  /// Node temperatures of the field solved at exactly `p_sys`; empty when
  /// that pressure was never probed.
  std::vector<double> solved_temperatures(double p_sys) const;

  /// Linear solves so far, at either accuracy.
  std::size_t simulations() const { return simulations_; }

 private:
  struct Solved {
    ThermalProbe probe;
    ProbeAccuracy accuracy;
    std::vector<double> temperatures;  ///< warm starts for later solves
  };

  /// The warm start of a new solve at p_sys (DESIGN.md §S9); empty = T_in.
  std::vector<double> initial_guess(double p_sys) const;

  /// A new system at p_sys under the evaluator's boundary.
  AssembledThermal assemble(double p_sys) const;

  std::shared_ptr<const ThermalModel> model_;
  BoundaryState boundary_;
  std::vector<double> first_guess_;
  /// Every solved pressure, in order. Exact-match memoization: the searches
  /// re-probe exact values (bracket endpoints, final operating points). A
  /// tight entry answers both accuracies; a tight solve replaces a loose one.
  std::map<double, Solved> solved_;
  /// Preconditioner + Krylov scratch carried across probes (all probe
  /// matrices share the assembly plan's sparsity pattern).
  SteadyWorkspace workspace_;
  std::size_t simulations_ = 0;
};

/// Outcome of a network evaluation: the evaluation score (W'_pump in W for
/// Problem 1, ΔT in K for Problem 2; +inf when infeasible) plus the operating
/// point that realizes it.
struct EvalResult {
  double score = 0.0;
  bool feasible = false;
  double p_sys = 0.0;
  double w_pump = 0.0;
  ThermalProbe at_p;  ///< ΔT / T_max at p_sys

  static EvalResult infeasible_result();
};

/// Problem 1 (Algorithm 2): lowest feasible pumping power under ΔT* and
/// T*_max. An `entry_hint` > 0 is passed to the ΔT search
/// (minimize_pressure_for_target), whose result it leaves unchanged.
EvalResult evaluate_p1(SystemEvaluator& eval, const DesignConstraints& limits,
                       const PressureSearchOptions& options = {},
                       double entry_hint = 0.0);

/// Where a 4RM Problem-1 search enters Algorithm 3 (paper §4.2, Fig. 9: 2RM
/// tracks 4RM closely): the P_sys a 2RM (SimConfig{}) ΔT search of the same
/// network returns. 0, no hint, when that search fails; a failure counts as
/// a search_entry_fallbacks and never becomes a verdict.
double p1_entry_hint(const CoolingProblem& problem,
                     const CoolingNetwork& network,
                     const DesignConstraints& limits,
                     const PressureSearchOptions& search);

/// Problem 2 (§5): lowest ΔT under W*_pump and T*_max. The pumping budget
/// bounds the pressure at P* = sqrt(W*·R_sys); golden-section finds min f on
/// (0, P*] unless P* already sits on the falling side.
EvalResult evaluate_p2(SystemEvaluator& eval, const DesignConstraints& limits,
                       const PressureSearchOptions& options = {});

/// Problem-2 follower evaluation (§5 change 2): score ΔT with one simulation
/// at a fixed pressure inherited from the group leader; enforces the same
/// constraints.
EvalResult evaluate_p2_at(SystemEvaluator& eval,
                          const DesignConstraints& limits, double p_sys);

/// How a network is scored; part of the evaluator-cache key because the same
/// network yields different EvalResults under different evaluation protocols.
enum class EvalMode : std::uint8_t {
  kFullP1 = 0,        ///< evaluate_p1 (Algorithm 2 pressure search)
  kFullP2 = 1,        ///< evaluate_p2 (golden-section under budget)
  kFixedPressure = 2, ///< ΔT at a fixed P_sys (SA stage-1 cost)
  kP2Follower = 3,    ///< evaluate_p2_at (grouped-iteration follower)
};

/// Test seam: while one is alive, search probes are solved at
/// kVerdictTolerance, so every value a search reads is tight. Process-wide;
/// lets a test compare a run with loose probes against one without them.
class ScopedTightSearchProbes {
 public:
  ScopedTightSearchProbes();
  ~ScopedTightSearchProbes();
  ScopedTightSearchProbes(const ScopedTightSearchProbes&) = delete;
  ScopedTightSearchProbes& operator=(const ScopedTightSearchProbes&) = delete;
};

/// The one way to score a candidate: builds its SystemEvaluator and runs
/// `mode` (`pressure` is the operating point of kFixedPressure, which checks
/// no constraint, and kP2Follower). A 4RM kFullP1 search enters at
/// p1_entry_hint. A network the solvers cannot evaluate scores
/// infeasible_result() and bumps the eval_failures counter.
EvalResult evaluate(const CoolingProblem& problem,
                    const CoolingNetwork& network,
                    const DesignConstraints& limits, EvalMode mode,
                    const SimConfig& sim, const PressureSearchOptions& search,
                    double pressure = 0.0);

}  // namespace lcn
