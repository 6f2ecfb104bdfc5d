// Transient thermal analysis (paper §2.3: the steady models "can be easily
// extended to transient"). Backward-Euler stepping on the assembled RC
// system: (C/Δt + A)·T_{n+1} = b + (C/Δt)·T_n.
//
// The stepper follows the S18 solver idiom (DESIGN.md §S23): the
// (C/Δt + A) operator is captured once as a SparsityPlan, rebinding to a new
// assembly of the *same* plan (a pressure change, a boundary refill, a new
// Δt) is a pure numeric refill plus an in-place preconditioner
// refactorization. The step loop runs on the calling thread, so it is
// bit-identical for any LCN_THREADS.
#pragma once

#include <vector>

#include "sparse/sparsity_plan.hpp"
#include "thermal/field.hpp"

namespace lcn {

struct TransientOptions {
  double dt = 1e-3;        ///< s
  int steps = 100;
  double rel_tolerance = 1e-9;
};

struct TransientSample {
  double time = 0.0;
  double t_max = 0.0;
  double delta_t = 0.0;
};

/// Backward-Euler stepper holding the (C/Δt + A) operator and the solver
/// state across steps. The referenced AssembledThermal must outlive the
/// stepper (or the next rebind()); RHS-only refills of that system are
/// picked up automatically — step() reads `system.rhs` each call.
class TransientStepper {
 public:
  TransientStepper(const AssembledThermal& system, double dt);

  /// Point the stepper at a new assembly and/or time step. When the new
  /// matrix shares the previous one's index arrays (same assembly plan) the
  /// operator is refilled on the cached SparsityPlan and the preconditioner
  /// refactorizes in place; otherwise the symbolic analysis reruns.
  void rebind(const AssembledThermal& system, double dt);

  /// Advance one backward-Euler step in place: temps := T_{n+1}.
  /// Throws lcn::RuntimeError on solver non-convergence.
  void step(std::vector<double>& temps, double rel_tolerance);

  const AssembledThermal& system() const { return *system_; }
  double dt() const { return dt_; }
  std::size_t nodes() const { return n_; }
  /// True when the last rebind() reused the cached symbolic plan.
  bool last_rebind_refilled() const { return last_rebind_refilled_; }

 private:
  void bind(const AssembledThermal& system, double dt);

  const AssembledThermal* system_ = nullptr;
  double dt_ = 0.0;
  std::size_t n_ = 0;

  /// C/Δt hoisted once per rebind (the historical path re-derived it per
  /// element per step).
  sparse::Vector cap_over_dt_;
  /// Operator slot sources, in the exact emission order of the historical
  /// fresh triplet build: per row, A's stored entries then the diagonal
  /// capacitance slot. is_diag selects cap_over_dt_[index] over
  /// system.matrix.values()[index].
  struct Slot {
    std::size_t index;
    bool is_diag;
  };
  std::vector<Slot> slots_;
  sparse::SparsityPlan plan_;
  sparse::CsrMatrix lhs_;
  /// Structure key of the bound matrix: same shared col_idx array => same
  /// sparsity, refill instead of re-analyze.
  sparse::SharedIndexes bound_cols_;

  SteadyWorkspace workspace_;
  sparse::Vector rhs_;
  bool last_rebind_refilled_ = false;
};

/// Integrate from `initial` (typically all T_in) and report the metric
/// trajectory; when `final_temps` is non-null the last temperature vector is
/// stored there. Unconditionally stable in Δt (backward Euler).
std::vector<TransientSample> simulate_transient(
    const AssembledThermal& system, std::vector<double> initial,
    const TransientOptions& options,
    std::vector<double>* final_temps = nullptr);

}  // namespace lcn
