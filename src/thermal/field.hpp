// Assembled thermal RC system and the resulting temperature field + metrics.
//
// Both the 4RM and 2RM simulators produce an AssembledThermal; the steady
// solver, the transient integrator and the metric extraction are shared.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/solvers.hpp"

namespace lcn {

/// Linear steady-state system A·T = b plus per-node heat capacities (for
/// transient stepping) and the bookkeeping needed to compute metrics.
struct AssembledThermal {
  sparse::CsrMatrix matrix;
  sparse::Vector rhs;
  sparse::Vector capacitance;  ///< J/K per node

  /// Per source layer: node ids in row-major map order.
  std::vector<std::vector<std::size_t>> source_nodes;
  int map_rows = 0;  ///< dimensions of each source-layer map
  int map_cols = 0;

  /// (node, volumetric flow) for every outlet opening — used for the energy
  /// balance diagnostics (advected heat = Σ C_v·Q·(T_node − T_in)).
  std::vector<std::pair<std::size_t, double>> outlet_terms;
  double inlet_flow_total = 0.0;
  double volumetric_heat = 0.0;   ///< coolant C_v
  double inlet_temperature = 0.0;
};

/// Temperature field with the paper's metrics: peak temperature T_max and
/// thermal gradient ΔT = max_i range(T over source layer i) (§3).
struct ThermalField {
  std::vector<double> temperatures;  ///< all nodes, K

  std::vector<std::vector<double>> source_maps;  ///< per source layer
  int map_rows = 0;
  int map_cols = 0;

  double t_max = 0.0;
  double delta_t = 0.0;
  std::vector<double> per_layer_delta;  ///< ΔT_i per source layer
};

/// Extract maps and metrics from a solved temperature vector.
ThermalField make_field(const AssembledThermal& system,
                        std::vector<double> temperatures);

/// Heat carried out by the coolant, W: Σ_outlets C_v·Q·(T − T_in).
/// With adiabatic boundaries this equals the injected power at steady state.
double advected_heat(const AssembledThermal& system,
                     const std::vector<double>& temperatures);

/// The true-residual check after every steady solve: ‖b − A·x‖/‖b‖ within
/// 10× `rel_tolerance`. The Krylov solvers stop on a recurrence that can
/// drift from the true residual; one SpMV catches that. A failed check
/// counts one residual_violations.
bool true_residual_ok(const sparse::CsrMatrix& matrix,
                      const sparse::Vector& rhs, const sparse::Vector& x,
                      double rel_tolerance);

/// The one preconditioner set-up and solve path shared by solve_steady() and
/// TransientStepper: an ILU(0) preconditioner plus the Krylov scratch, kept
/// across calls. factor() on a matrix that shares the previous one's index
/// arrays (probe after probe on one assembly plan, step after step on one
/// transient operator) refactorizes numerically and skips the symbolic
/// analysis; a new structure builds afresh. The refactored preconditioner
/// equals a fresh construction (DESIGN.md §S18), so results do not depend on
/// what the workspace solved before. One workspace per thread — no internal
/// synchronization.
class SteadyWorkspace {
 public:
  /// Set the preconditioner up for `matrix`.
  void factor(const sparse::CsrMatrix& matrix);

  /// Solve matrix · x = rhs by one BiCGSTAB pass with the preconditioner
  /// factor() set up for this matrix; x carries the initial guess in and the
  /// solution out. A solution that fails true_residual_ok() is re-solved from
  /// where it stopped, 10× tighter. Throws lcn::RuntimeError(context), and
  /// counts one steady_solve_failures, when a pass does not converge within
  /// its 10n+100 budget or the re-solve still fails the check.
  void solve(const sparse::CsrMatrix& matrix, const sparse::Vector& rhs,
             sparse::Vector& x, const std::string& context,
             double rel_tolerance);

 private:
  std::optional<sparse::Ilu0Preconditioner> precon_;
  sparse::SolverWorkspace krylov_;
};

/// Solve the steady system (ILU(0)-preconditioned BiCGSTAB) and build the
/// field. Throws lcn::RuntimeError on non-convergence.
/// `initial_guess` (optional, right size) warm-starts the Krylov solve —
/// the pressure searches probe many nearby P_sys values, and the previous
/// temperature field is an excellent starting point. `workspace` (optional)
/// carries preconditioner + Krylov scratch across calls; without one the
/// solve uses a fresh workspace, and the result is bit-identical either way.
ThermalField solve_steady(const AssembledThermal& system,
                          double rel_tolerance = 1e-9,
                          const std::vector<double>* initial_guess = nullptr,
                          SteadyWorkspace* workspace = nullptr);

}  // namespace lcn
