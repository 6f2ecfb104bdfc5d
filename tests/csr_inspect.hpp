// Entry-level views of a CsrMatrix for tests: lookup, diagonal, symmetry
// gap and a dense copy. The library never reads a matrix entry by entry;
// solvers and preconditioners walk the CSR arrays directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/assert.hpp"
#include "sparse/csr.hpp"

namespace lcn::sparse {

/// Entry lookup (binary search within the row); zero if absent.
inline double csr_at(const CsrMatrix& a, std::size_t row, std::size_t col) {
  LCN_REQUIRE(row < a.rows() && col < a.cols(), "at: index out of range");
  const auto begin = a.col_idx().begin() +
                     static_cast<std::ptrdiff_t>(a.row_ptr()[row]);
  const auto end = a.col_idx().begin() +
                   static_cast<std::ptrdiff_t>(a.row_ptr()[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return a.values()[static_cast<std::size_t>(it - a.col_idx().begin())];
}

/// Main diagonal (zero where absent).
inline Vector csr_diagonal(const CsrMatrix& a) {
  Vector d(a.rows(), 0.0);
  const std::size_t n = std::min(a.rows(), a.cols());
  for (std::size_t r = 0; r < n; ++r) d[r] = csr_at(a, r, r);
  return d;
}

/// max |A(i,j) - A(j,i)|: zero for the SPD flow matrix, nonzero where the
/// thermal advection terms make a system nonsymmetric.
inline double csr_symmetry_gap(const CsrMatrix& a) {
  LCN_REQUIRE(a.rows() == a.cols(), "symmetry_gap requires a square matrix");
  double gap = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      gap = std::max(gap,
                     std::abs(a.values()[k] - csr_at(a, a.col_idx()[k], r)));
    }
  }
  return gap;
}

/// Dense copy (row-major), for small reference checks only.
inline std::vector<double> csr_to_dense(const CsrMatrix& a) {
  std::vector<double> dense(a.rows() * a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      dense[r * a.cols() + a.col_idx()[k]] += a.values()[k];
    }
  }
  return dense;
}

}  // namespace lcn::sparse
