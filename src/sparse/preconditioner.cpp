#include "sparse/preconditioner.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace lcn::sparse {

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a) {
  LCN_REQUIRE(a.rows() == a.cols(), "Jacobi needs a square matrix");
  inv_diag_ = a.diagonal();
  for (double& d : inv_diag_) d = (d != 0.0) ? 1.0 / d : 1.0;
}

void JacobiPreconditioner::apply(const Vector& r, Vector& z) const {
  LCN_REQUIRE(r.size() == inv_diag_.size(), "Jacobi apply: size mismatch");
  z.resize(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] * inv_diag_[i];
}

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a) { refactor(a); }

void Ilu0Preconditioner::refactor(const CsrMatrix& a) {
  if (a.shared_row_ptr() != row_ptr_ || a.shared_col_idx() != col_idx_) {
    analyze(a);
  }
  values_ = a.values();
  factorize();
}

void Ilu0Preconditioner::analyze(const CsrMatrix& a) {
  LCN_REQUIRE(a.rows() == a.cols(), "ILU(0) needs a square matrix");
  // Locate diagonal entries (every row must have one for ILU0). The
  // structure is adopted only once the search succeeds, so a throw leaves
  // the next refactor() to analyze afresh.
  const std::size_t n = a.rows();
  const std::vector<std::size_t>& row_ptr = a.row_ptr();
  const std::vector<std::size_t>& col_idx = a.col_idx();
  diag_.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    bool found = false;
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] == r) {
        diag_[r] = k;
        found = true;
        break;
      }
    }
    if (!found) {
      row_ptr_.reset();
      col_idx_.reset();
      throw RuntimeError("ILU(0): missing diagonal entry in row " +
                         std::to_string(r));
    }
  }
  n_ = n;
  row_ptr_ = a.shared_row_ptr();
  col_idx_ = a.shared_col_idx();
  pos_.assign(n_, -1);
}

void Ilu0Preconditioner::factorize() {
  // IKJ-variant incomplete factorization restricted to the pattern of A.
  // pos_ maps col -> value index for the current row; it is kept all -1
  // between calls (every row restores the entries it set).
  const std::vector<std::size_t>& row_ptr = *row_ptr_;
  const std::vector<std::size_t>& col_idx = *col_idx_;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      pos_[col_idx[k]] = static_cast<std::ptrdiff_t>(k);
    }
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const std::size_t j = col_idx[k];
      if (j >= i) break;  // only strictly-lower entries eliminate
      const double piv = values_[diag_[j]];
      if (std::abs(piv) < 1e-300) {
        // Keep pos_ all -1 so a later same-structure refactor stays clean.
        for (std::size_t kk = row_ptr[i]; kk < row_ptr[i + 1]; ++kk) {
          pos_[col_idx[kk]] = -1;
        }
        throw RuntimeError("ILU(0): zero pivot at row " + std::to_string(j));
      }
      const double lij = values_[k] / piv;
      values_[k] = lij;
      // subtract lij * U(j, *) on the existing pattern of row i
      for (std::size_t kk = diag_[j] + 1; kk < row_ptr[j + 1]; ++kk) {
        const std::ptrdiff_t p = pos_[col_idx[kk]];
        if (p >= 0) values_[static_cast<std::size_t>(p)] -= lij * values_[kk];
      }
    }
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      pos_[col_idx[k]] = -1;
    }
    if (std::abs(values_[diag_[i]]) < 1e-300) {
      throw RuntimeError("ILU(0): factorization produced zero pivot at row " +
                         std::to_string(i));
    }
  }
}

void Ilu0Preconditioner::apply(const Vector& r, Vector& z) const {
  LCN_REQUIRE(r.size() == n_, "ILU(0) apply: size mismatch");
  const std::vector<std::size_t>& row_ptr = *row_ptr_;
  const std::vector<std::size_t>& col_idx = *col_idx_;
  z = r;
  // Forward solve L z = r (unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    double sum = z[i];
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const std::size_t j = col_idx[k];
      if (j >= i) break;
      sum -= values_[k] * z[j];
    }
    z[i] = sum;
  }
  // Backward solve U z = z.
  for (std::size_t ii = n_; ii-- > 0;) {
    double sum = z[ii];
    for (std::size_t k = diag_[ii] + 1; k < row_ptr[ii + 1]; ++k) {
      sum -= values_[k] * z[col_idx[k]];
    }
    z[ii] = sum / values_[diag_[ii]];
  }
}

}  // namespace lcn::sparse
