// Preconditioners for the iterative solvers.
//
// Ilu0Preconditioner (zero fill-in incomplete LU) serves the advective
// thermal systems, whose asymmetry grows with flow rate; the SPD flow
// Laplacian uses Ic0Preconditioner (sparse/ic0.hpp).
#pragma once

#include <cstdint>

#include "sparse/csr.hpp"

namespace lcn::sparse {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  /// z = M^{-1} r
  virtual void apply(const Vector& r, Vector& z) const = 0;
};

/// Zero fill-in incomplete LU factorization on the sparsity pattern of A.
/// apply() performs the forward/backward triangular solves.
///
/// The factorization is split into a symbolic phase (borrow A's shared CSR
/// structure, locate diagonals, build the split L/U layout) and a numeric
/// phase (scatter values, eliminate, invert pivots). refactor() reruns only
/// the numeric phase when the new matrix shares the previous structure — the
/// per-probe path of the symbolic/numeric split (DESIGN.md §S18).
///
/// The factors live in a split layout built for the sweeps, not in A's CSR
/// order (DESIGN.md "S18 ILU(0) split layout and the fused BiCGSTAB"): L
/// holds each row's strictly-lower entries in ascending column order, U each
/// row's strictly-upper entries in descending column order, so both sweeps
/// subtract the just-computed neighbour last, off the serial dependency
/// chain. Column indices are 32-bit, and the backward sweep multiplies by a
/// stored reciprocal pivot instead of dividing.
class Ilu0Preconditioner final : public Preconditioner {
 public:
  /// Throws lcn::RuntimeError if a diagonal entry is missing or a pivot
  /// collapses to ~0 (structurally singular or badly scaled matrix), and
  /// lcn::ContractError if a row's columns are not strictly ascending.
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
  void factorize(const std::vector<double>& a_values);

  std::size_t n_ = 0;
  SharedIndexes row_ptr_;
  SharedIndexes col_idx_;
  // Split layout in one value array lu_ = [L | U | pivots]. Row i's L
  // entries are lu_[l_ptr_[i], l_ptr_[i + 1]) with columns l_col_ at the same
  // offsets; its U entries are lu_[u_base_ + u] for u in
  // [u_ptr_[i], u_ptr_[i + 1]) with columns u_col_[u]; pivot i is
  // lu_[diag_base_ + i].
  std::vector<std::size_t> l_ptr_;
  std::vector<std::size_t> u_ptr_;
  std::vector<std::uint32_t> l_col_;
  std::vector<std::uint32_t> u_col_;
  std::size_t u_base_ = 0;
  std::size_t diag_base_ = 0;
  std::vector<double> lu_;
  std::vector<double> inv_diag_;     // 1 / pivot, for the backward sweep
  std::vector<std::ptrdiff_t> pos_;  // col -> lu_ slot scratch (kept all -1)
};

}  // namespace lcn::sparse
