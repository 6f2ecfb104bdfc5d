// Compressed-sparse-row matrix and the COO triplet it is assembled from.
//
// The flow solver assembles an SPD Laplacian over liquid cells; the thermal
// simulators assemble a nonsymmetric advection-diffusion matrix over thermal
// nodes. Both emit triplets that a SparsityPlan (sparse/sparsity_plan.hpp)
// sorts and merges once, summing duplicate entries (so assembly code can
// freely add partial conductances).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sparse/vector_ops.hpp"

namespace lcn::sparse {

struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// The one ordering used wherever COO triplets are compressed to CSR:
/// row-major, then by column. SparsityPlan::analyze() sorts with it; the
/// comparator reads (row, col) only, so the duplicate-summation order a plan
/// captures depends on the pattern alone.
inline bool triplet_pattern_order(const Triplet& a, const Triplet& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

/// Immutable symbolic CSR structure (row pointers + column indices), shared
/// between every matrix assembled from the same sparsity pattern. A
/// SparsityPlan analyzes a triplet sequence once and hands the structure to
/// each numeric refill, so repeated assemblies of the same system only ever
/// allocate a value array.
using SharedIndexes = std::shared_ptr<const std::vector<std::size_t>>;

class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
            std::vector<double> values);
  /// Borrow an existing symbolic structure (no index copies) — the
  /// symbolic/numeric split's fast path.
  CsrMatrix(std::size_t rows, std::size_t cols, SharedIndexes row_ptr,
            SharedIndexes col_idx, std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& row_ptr() const { return *row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return *col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  /// Handles to the shared symbolic structure. Two matrices with the same
  /// handle provably share a sparsity pattern (pointer identity), which lets
  /// preconditioners skip their symbolic phase on refactorization.
  const SharedIndexes& shared_row_ptr() const { return row_ptr_; }
  const SharedIndexes& shared_col_idx() const { return col_idx_; }

  /// y = A x, one row at a time on the calling thread.
  void multiply(const Vector& x, Vector& y) const;
  Vector multiply(const Vector& x) const;

 private:
  /// Shared empty structure backing default-constructed matrices.
  static const SharedIndexes& empty_indexes();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  SharedIndexes row_ptr_ = empty_indexes();
  SharedIndexes col_idx_ = empty_indexes();
  std::vector<double> values_;
};

}  // namespace lcn::sparse
