#include "dense.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "csr_inspect.hpp"

namespace lcn::sparse {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::from_csr(const CsrMatrix& a) {
  DenseMatrix m(a.rows(), a.cols());
  const auto dense = csr_to_dense(a);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      m(r, c) = dense[r * a.cols() + c];
    }
  }
  return m;
}

double& DenseMatrix::operator()(std::size_t r, std::size_t c) {
  LCN_ASSERT(r < rows_ && c < cols_, "dense index out of range");
  return data_[r * cols_ + c];
}

double DenseMatrix::operator()(std::size_t r, std::size_t c) const {
  LCN_ASSERT(r < rows_ && c < cols_, "dense index out of range");
  return data_[r * cols_ + c];
}

DenseLu::DenseLu(DenseMatrix a) : lu_(std::move(a)) {
  LCN_REQUIRE(lu_.rows() == lu_.cols(), "LU needs a square matrix");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // pivot selection
    std::size_t piv = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best < 1e-300) throw RuntimeError("dense LU: singular matrix");
    if (piv != k) {
      std::swap(perm_[piv], perm_[k]);
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(piv, c), lu_(k, c));
    }
    pivot_product_ *= best;

    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) / lu_(k, k);
      lu_(r, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= factor * lu_(k, c);
    }
  }
}

Vector DenseLu::solve(const Vector& b) const {
  const std::size_t n = lu_.rows();
  LCN_REQUIRE(b.size() == n, "LU solve: rhs size mismatch");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // forward: L y = Pb
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
  }
  // backward: U x = y
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t j = ii + 1; j < n; ++j) x[ii] -= lu_(ii, j) * x[j];
    x[ii] /= lu_(ii, ii);
  }
  return x;
}

}  // namespace lcn::sparse
