// Preconditioners for the iterative solvers.
//
// JacobiPreconditioner suffices for the well-conditioned flow Laplacian;
// Ilu0Preconditioner (zero fill-in incomplete LU) is the default for the
// advective thermal systems, whose asymmetry grows with flow rate.
#pragma once

#include "sparse/csr.hpp"

namespace lcn::sparse {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  /// z = M^{-1} r
  virtual void apply(const Vector& r, Vector& z) const = 0;
};

/// M = I (no preconditioning).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const Vector& r, Vector& z) const override { z = r; }
};

/// M = diag(A). Rows with a zero diagonal fall back to identity scaling.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);
  void apply(const Vector& r, Vector& z) const override;

 private:
  Vector inv_diag_;
};

/// Zero fill-in incomplete LU factorization on the sparsity pattern of A.
/// apply() performs the forward/backward triangular solves.
///
/// The factorization is split into a symbolic phase (borrow A's shared CSR
/// structure, locate diagonals, size the scratch) and a numeric phase (copy
/// values, eliminate). refactor() reruns only the numeric phase when the new
/// matrix shares the previous structure — the per-probe path of the
/// symbolic/numeric split (DESIGN.md §S18).
class Ilu0Preconditioner final : public Preconditioner {
 public:
  /// Throws lcn::RuntimeError if a pivot collapses to ~0 (structurally
  /// singular or badly scaled matrix).
  explicit Ilu0Preconditioner(const CsrMatrix& a);

  /// Refactorize for a new matrix. If `a` shares the previous matrix's
  /// structure (pointer-identical shared index arrays) the symbolic phase is
  /// skipped; either way the resulting factors are bit-identical to a fresh
  /// construction from `a`. On throw (zero pivot) the object is unusable
  /// until a refactor()/reconstruction succeeds.
  void refactor(const CsrMatrix& a);

  void apply(const Vector& r, Vector& z) const override;

 private:
  void analyze(const CsrMatrix& a);
  void factorize();

  std::size_t n_ = 0;
  SharedIndexes row_ptr_;
  SharedIndexes col_idx_;
  std::vector<double> values_;     // combined L (unit diag implicit) and U
  std::vector<std::size_t> diag_;  // index of the diagonal entry per row
  std::vector<std::ptrdiff_t> pos_;  // col -> slot scratch (kept all -1)
};

}  // namespace lcn::sparse
