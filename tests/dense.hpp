// Small dense matrix with partial-pivot LU: the exact reference solver the
// sparse Krylov tests compare against.
#pragma once

#include <cstddef>
#include <vector>

#include "sparse/csr.hpp"

namespace lcn::sparse {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static DenseMatrix from_csr(const CsrMatrix& a);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Partial-pivot LU factorization of a square dense matrix.
class DenseLu {
 public:
  /// Throws lcn::RuntimeError if the matrix is singular to working precision.
  explicit DenseLu(DenseMatrix a);

  Vector solve(const Vector& b) const;

  /// |det| sign-less magnitude proxy: product of |pivots| (for tests).
  double pivot_product() const { return pivot_product_; }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  double pivot_product_ = 1.0;
};

}  // namespace lcn::sparse
