// Iterative Krylov solvers: preconditioned CG for the SPD flow system and
// preconditioned BiCGSTAB for the nonsymmetric thermal system.
//
// BiCGSTAB runs on a caller-owned SolverWorkspace that the thermal steady
// solve reuses across solves. Each solve re-initialises every vector it
// reads, so persistent scratch never leaks a previous solve into the next
// and the iterates do not depend on the workspace's history (DESIGN.md
// §S18).
#pragma once

#include <string>

#include "sparse/csr.hpp"
#include "sparse/preconditioner.hpp"

namespace lcn::sparse {

struct SolveOptions {
  double rel_tolerance = 1e-10;  ///< on ||r|| / ||b||
  std::size_t max_iterations = 0;  ///< 0 => 10 * n + 100
};

struct SolveReport {
  bool converged = false;
  std::size_t iterations = 0;  ///< iterations completed when the solve stopped
  double relative_residual = 0.0;
};

/// Persistent BiCGSTAB scratch. A default-constructed workspace works for
/// any problem size; vectors grow on first use and are then reused
/// allocation-free. Safe to reuse across different matrices (each solve
/// re-initialises everything it reads), but NOT across threads concurrently
/// — use one workspace per thread.
struct SolverWorkspace {
  Vector r, ax, r0, p, v, phat, shat, s, t;
};

/// Preconditioned conjugate gradient. A must be symmetric positive definite.
/// x carries the initial guess in and the solution out.
SolveReport cg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& m, const SolveOptions& opts = {});

/// Preconditioned BiCGSTAB for general square systems.
SolveReport bicgstab_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                           const Preconditioner& m, SolverWorkspace& ws,
                           const SolveOptions& opts = {});

/// IC(0)-preconditioned CG for the SPD flow system. Throws
/// lcn::RuntimeError(context...) when IC(0) breaks down or CG does not
/// converge.
void solve_spd_or_throw(const CsrMatrix& a, const Vector& b, Vector& x,
                        const std::string& context,
                        const SolveOptions& opts = {});

}  // namespace lcn::sparse
