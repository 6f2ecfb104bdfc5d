// Reference forms of the two Krylov hot kernels, for tests only: ILU(0)
// factored and applied in A's own CSR layout with a division by each pivot,
// and the textbook BiCGSTAB loop with one vector kernel per step. The
// production kernels (src/sparse, DESIGN.md §S18 "ILU(0) split layout and
// the fused BiCGSTAB") compute the same mathematics with a different
// rounding order; the tests hold them to these forms in accuracy, in
// iteration count and in speed. The identity and Jacobi preconditioners are
// the baselines the CG tests measure IC(0) against.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/assert.hpp"
#include "csr_inspect.hpp"
#include "sparse/csr.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/vector_ops.hpp"

namespace lcn::reference {

/// M = I (no preconditioning).
class Identity final : public sparse::Preconditioner {
 public:
  void apply(const sparse::Vector& r, sparse::Vector& z) const override {
    z = r;
  }
};

/// M = diag(A). Rows with a zero diagonal fall back to identity scaling.
class Jacobi final : public sparse::Preconditioner {
 public:
  explicit Jacobi(const sparse::CsrMatrix& a) : inv_diag_(sparse::csr_diagonal(a)) {
    LCN_REQUIRE(a.rows() == a.cols(), "Jacobi needs a square matrix");
    for (double& d : inv_diag_) d = (d != 0.0) ? 1.0 / d : 1.0;
  }

  void apply(const sparse::Vector& r, sparse::Vector& z) const override {
    LCN_REQUIRE(r.size() == inv_diag_.size(), "Jacobi apply: size mismatch");
    z.resize(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] * inv_diag_[i];
  }

 private:
  sparse::Vector inv_diag_;
};

/// ILU(0) in A's CSR layout: IKJ elimination on a copy of A's values, a
/// forward sweep that stops each row at its diagonal, and a backward sweep
/// that divides by the pivot.
class Ilu0 final : public sparse::Preconditioner {
 public:
  explicit Ilu0(const sparse::CsrMatrix& a)
      : n_(a.rows()),
        row_ptr_(a.row_ptr()),
        col_idx_(a.col_idx()),
        values_(a.values()),
        diag_(a.rows(), 0) {
    for (std::size_t r = 0; r < n_; ++r) {
      bool found = false;
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        if (col_idx_[k] == r) {
          diag_[r] = k;
          found = true;
        }
      }
      LCN_REQUIRE(found, "reference ILU(0): missing diagonal");
    }
    std::vector<std::ptrdiff_t> pos(n_, -1);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        pos[col_idx_[k]] = static_cast<std::ptrdiff_t>(k);
      }
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        const std::size_t j = col_idx_[k];
        if (j >= i) break;
        const double lij = values_[k] / values_[diag_[j]];
        values_[k] = lij;
        for (std::size_t kk = diag_[j] + 1; kk < row_ptr_[j + 1]; ++kk) {
          const std::ptrdiff_t p = pos[col_idx_[kk]];
          if (p >= 0) values_[static_cast<std::size_t>(p)] -= lij * values_[kk];
        }
      }
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        pos[col_idx_[k]] = -1;
      }
      LCN_REQUIRE(std::abs(values_[diag_[i]]) >= 1e-300,
                  "reference ILU(0): zero pivot");
    }
  }

  void apply(const sparse::Vector& r, sparse::Vector& z) const override {
    z = r;
    for (std::size_t i = 0; i < n_; ++i) {
      double sum = z[i];
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        const std::size_t j = col_idx_[k];
        if (j >= i) break;
        sum -= values_[k] * z[j];
      }
      z[i] = sum;
    }
    for (std::size_t ii = n_; ii-- > 0;) {
      double sum = z[ii];
      for (std::size_t k = diag_[ii] + 1; k < row_ptr_[ii + 1]; ++k) {
        sum -= values_[k] * z[col_idx_[k]];
      }
      z[ii] = sum / values_[diag_[ii]];
    }
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
  std::vector<std::size_t> diag_;
};

struct BicgstabResult {
  bool converged = false;
  std::size_t iterations = 0;
};

/// Textbook preconditioned BiCGSTAB: a separate kernel for every dot
/// product, update and copy. x carries the initial guess in and the
/// solution out.
inline BicgstabResult bicgstab(const sparse::CsrMatrix& a,
                               const sparse::Vector& b, sparse::Vector& x,
                               const sparse::Preconditioner& m,
                               double rel_tolerance,
                               std::size_t max_iterations) {
  using sparse::axpy;
  using sparse::dot;
  using sparse::norm2;
  const std::size_t n = a.rows();
  const double bnorm = norm2(b);
  sparse::Vector r = b;
  sparse::Vector ax;
  a.multiply(x, ax);
  axpy(-1.0, ax, r);
  const sparse::Vector r0 = r;
  sparse::Vector p(n, 0.0), v(n, 0.0), phat, shat, s, t;
  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  for (std::size_t it = 0; it < max_iterations; ++it) {
    const double rho_next = dot(r0, r);
    if (std::abs(rho_next) < 1e-300) break;
    if (it == 0) {
      p = r;
    } else {
      const double beta = (rho_next / rho) * (alpha / omega);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
      }
    }
    rho = rho_next;
    m.apply(p, phat);
    a.multiply(phat, v);
    const double r0v = dot(r0, v);
    if (std::abs(r0v) < 1e-300) break;
    alpha = rho / r0v;
    s = r;
    axpy(-alpha, v, s);
    if (norm2(s) / bnorm < rel_tolerance) {
      axpy(alpha, phat, x);
      return {true, it + 1};
    }
    m.apply(s, shat);
    a.multiply(shat, t);
    const double tt = dot(t, t);
    if (tt < 1e-300) break;
    omega = dot(t, s) / tt;
    axpy(alpha, phat, x);
    axpy(omega, shat, x);
    r = s;
    axpy(-omega, t, r);
    if (norm2(r) / bnorm < rel_tolerance) return {true, it + 1};
    if (std::abs(omega) < 1e-300) break;
  }
  return {false, max_iterations};
}

/// ||b - A x|| / ||b||.
inline double true_relative_residual(const sparse::CsrMatrix& a,
                                     const sparse::Vector& b,
                                     const sparse::Vector& x) {
  sparse::Vector r = a.multiply(x);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return sparse::norm2(r) / sparse::norm2(b);
}

}  // namespace lcn::reference
