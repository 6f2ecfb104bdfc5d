// Iterative Krylov solvers: preconditioned CG for the SPD flow system and
// preconditioned BiCGSTAB for the nonsymmetric thermal system, with
// restarted GMRES as the fallback.
//
// CG and BiCGSTAB have two entry points: the classic one (allocates its
// Krylov vectors per call) and a workspace one that reuses a caller-owned
// SolverWorkspace across solves. Both produce bit-identical iterates — the
// workspace variants re-initialise exactly the state the classic variants
// construct, so persistent scratch never leaks a previous solve into the
// next (DESIGN.md §S18).
#pragma once

#include <string>

#include "sparse/csr.hpp"
#include "sparse/preconditioner.hpp"

namespace lcn::sparse {

struct SolveOptions {
  double rel_tolerance = 1e-10;  ///< on ||r|| / ||b||
  std::size_t max_iterations = 0;  ///< 0 => 10 * n + 100
  /// Opt-in convergence telemetry (DESIGN.md §S19): capture the
  /// per-iteration relative residual into SolveReport::residual_history so
  /// stalls and preconditioner regressions are visible, not just iteration
  /// totals. Off by default — recording allocates and is not needed on the
  /// hot path. Never changes the iterates.
  bool record_residuals = false;
};

struct SolveReport {
  bool converged = false;
  std::size_t iterations = 0;
  double relative_residual = 0.0;
  /// Per-iteration relative residuals, populated only when
  /// SolveOptions::record_residuals is set. The final entry always equals
  /// `relative_residual` (for GMRES the per-iteration entries are the
  /// Givens-implied estimates and a final true-residual entry is appended
  /// when it differs).
  std::vector<double> residual_history;
};

/// Persistent Krylov scratch. A default-constructed workspace works for any
/// solver and any problem size; vectors grow on first use and are then
/// reused allocation-free. Safe to reuse across different matrices and
/// solvers (each solve re-initialises everything it reads), but NOT across
/// threads concurrently — use one workspace per thread.
struct SolverWorkspace {
  // CG / shared scratch.
  Vector r, ax, z, p, ap;
  // BiCGSTAB extras.
  Vector r0, v, phat, shat, s, t;
  // GMRES scratch (Arnoldi basis, Givens-reduced Hessenberg, correction).
  std::vector<Vector> basis;
  std::vector<Vector> h;
  Vector cs, sn, g, w, y, update;
};

/// Preconditioned conjugate gradient. A must be symmetric positive definite.
/// x carries the initial guess in and the solution out.
SolveReport cg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& m, const SolveOptions& opts = {});
SolveReport cg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& m, SolverWorkspace& ws,
                     const SolveOptions& opts = {});

/// Preconditioned BiCGSTAB for general square systems.
SolveReport bicgstab_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                           const Preconditioner& m,
                           const SolveOptions& opts = {});
SolveReport bicgstab_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                           const Preconditioner& m, SolverWorkspace& ws,
                           const SolveOptions& opts = {});

/// Convenience: solve and throw lcn::RuntimeError(context) on failure.
void solve_spd_or_throw(const CsrMatrix& a, const Vector& b, Vector& x,
                        const std::string& context,
                        const SolveOptions& opts = {});

/// The nonsymmetric solve: BiCGSTAB, one retry from a zero guess with 4× the
/// iteration budget, then restarted GMRES — all with `m`, which must already
/// be factored for `a`, and scratch from the persistent workspace `ws`.
/// Throws lcn::RuntimeError(context) when all three fail.
void solve_general_or_throw(const CsrMatrix& a, const Vector& b, Vector& x,
                            const std::string& context, const Preconditioner& m,
                            SolverWorkspace& ws, const SolveOptions& opts = {});

}  // namespace lcn::sparse
