#include "sparse/preconditioner.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace lcn::sparse {

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a) { refactor(a); }

void Ilu0Preconditioner::refactor(const CsrMatrix& a) {
  if (a.shared_row_ptr() != row_ptr_ || a.shared_col_idx() != col_idx_) {
    analyze(a);
  }
  factorize(a.values());
}

void Ilu0Preconditioner::analyze(const CsrMatrix& a) {
  LCN_REQUIRE(a.rows() == a.cols(), "ILU(0) needs a square matrix");
  const std::size_t n = a.rows();
  LCN_REQUIRE(n < (std::size_t{1} << 32),
              "ILU(0) stores 32-bit column indices: n must be below 2^32");
  // The structure is adopted only once every row checks out, so a throw
  // leaves the next refactor() to analyze afresh.
  n_ = 0;
  row_ptr_.reset();
  col_idx_.reset();
  const std::vector<std::size_t>& row_ptr = a.row_ptr();
  const std::vector<std::size_t>& col_idx = a.col_idx();
  // Every row needs ascending columns (the elimination order) and a
  // diagonal (ILU(0) pivots on it), so each CSR row is [L | pivot | U].
  l_ptr_.resize(n + 1);
  u_ptr_.resize(n + 1);
  l_ptr_[0] = 0;
  u_ptr_[0] = 0;
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t k = row_ptr[r];
    for (; k < row_ptr[r + 1] && col_idx[k] < r; ++k) {
      LCN_REQUIRE(k == row_ptr[r] || col_idx[k - 1] < col_idx[k],
                  "ILU(0) needs strictly ascending columns in every row");
    }
    if (k == row_ptr[r + 1] || col_idx[k] != r) {
      throw RuntimeError("ILU(0): missing diagonal entry in row " +
                         std::to_string(r));
    }
    for (std::size_t kk = k + 1; kk < row_ptr[r + 1]; ++kk) {
      LCN_REQUIRE(col_idx[kk - 1] < col_idx[kk],
                  "ILU(0) needs strictly ascending columns in every row");
    }
    l_ptr_[r + 1] = l_ptr_[r] + (k - row_ptr[r]);
    u_ptr_[r + 1] = u_ptr_[r] + (row_ptr[r + 1] - k - 1);
  }
  // L keeps A's ascending order; U is reversed, so the nearest column comes
  // last in each row.
  l_col_.resize(l_ptr_[n]);
  u_col_.resize(u_ptr_[n]);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t lower = l_ptr_[r + 1] - l_ptr_[r];
    const std::size_t* cols = col_idx.data() + row_ptr[r];
    for (std::size_t e = 0; e < lower; ++e) {
      l_col_[l_ptr_[r] + e] = static_cast<std::uint32_t>(cols[e]);
    }
    const std::size_t* upper = cols + lower + 1;
    for (std::size_t u = u_ptr_[r + 1]; u-- > u_ptr_[r]; ++upper) {
      u_col_[u] = static_cast<std::uint32_t>(*upper);
    }
  }
  n_ = n;
  u_base_ = l_ptr_[n];
  diag_base_ = u_base_ + u_ptr_[n];
  lu_.resize(diag_base_ + n);
  inv_diag_.resize(n);
  pos_.assign(n, -1);
  row_ptr_ = a.shared_row_ptr();
  col_idx_ = a.shared_col_idx();
}

void Ilu0Preconditioner::factorize(const std::vector<double>& a_values) {
  // Scatter A's values into the split layout: row r's CSR entries are
  // [L | pivot | U] in ascending column order.
  const std::vector<std::size_t>& row_ptr = *row_ptr_;
  double* l_val = lu_.data();
  double* u_val = lu_.data() + u_base_;
  double* pivot = lu_.data() + diag_base_;
  for (std::size_t r = 0; r < n_; ++r) {
    const double* row = a_values.data() + row_ptr[r];
    const std::size_t lower = l_ptr_[r + 1] - l_ptr_[r];
    for (std::size_t e = 0; e < lower; ++e) l_val[l_ptr_[r] + e] = row[e];
    pivot[r] = row[lower];
    const double* upper = row + lower + 1;
    for (std::size_t u = u_ptr_[r + 1]; u-- > u_ptr_[r]; ++upper) {
      u_val[u] = *upper;
    }
  }
  // IKJ-variant incomplete factorization restricted to the pattern of A,
  // in place in the split layout: row i's strictly-lower entries eliminate
  // in ascending column order, each subtracting its multiple of U(j, *)
  // from the matching entries of row i. Every entry of row i takes at most
  // one update per j, so the arithmetic is that of the same elimination in
  // A's CSR order. pos_ maps col -> lu_ slot for the current row; it is kept
  // all -1 between calls (every row restores what it set).
  auto mark_row = [&](std::size_t i, bool set) {
    for (std::size_t l = l_ptr_[i]; l < l_ptr_[i + 1]; ++l) {
      pos_[l_col_[l]] = set ? static_cast<std::ptrdiff_t>(l) : -1;
    }
    pos_[i] = set ? static_cast<std::ptrdiff_t>(diag_base_ + i) : -1;
    for (std::size_t u = u_ptr_[i]; u < u_ptr_[i + 1]; ++u) {
      pos_[u_col_[u]] = set ? static_cast<std::ptrdiff_t>(u_base_ + u) : -1;
    }
  };
  for (std::size_t i = 0; i < n_; ++i) {
    mark_row(i, true);
    for (std::size_t l = l_ptr_[i]; l < l_ptr_[i + 1]; ++l) {
      const std::size_t j = l_col_[l];
      const double piv = pivot[j];
      if (std::abs(piv) < 1e-300) {
        // Keep pos_ all -1 so a later same-structure refactor stays clean.
        mark_row(i, false);
        throw RuntimeError("ILU(0): zero pivot at row " + std::to_string(j));
      }
      const double lij = l_val[l] / piv;
      l_val[l] = lij;
      // subtract lij * U(j, *) on the existing pattern of row i
      for (std::size_t u = u_ptr_[j]; u < u_ptr_[j + 1]; ++u) {
        const std::ptrdiff_t p = pos_[u_col_[u]];
        if (p >= 0) lu_[static_cast<std::size_t>(p)] -= lij * u_val[u];
      }
    }
    mark_row(i, false);
    if (std::abs(pivot[i]) < 1e-300) {
      throw RuntimeError("ILU(0): factorization produced zero pivot at row " +
                         std::to_string(i));
    }
    inv_diag_[i] = 1.0 / pivot[i];
  }
}

void Ilu0Preconditioner::apply(const Vector& r, Vector& z) const {
  LCN_REQUIRE(r.size() == n_, "ILU(0) apply: size mismatch");
  z.resize(n_);
  const double* l_val = lu_.data();
  const double* u_val = lu_.data() + u_base_;
  const std::uint32_t* l_col = l_col_.data();
  const std::uint32_t* u_col = u_col_.data();
  // Forward solve L z = r (unit diagonal). Reads r[i] before writing z[i],
  // so r and z may be the same vector.
  for (std::size_t i = 0; i < n_; ++i) {
    double sum = r[i];
    for (std::size_t l = l_ptr_[i]; l < l_ptr_[i + 1]; ++l) {
      sum -= l_val[l] * z[l_col[l]];
    }
    z[i] = sum;
  }
  // Backward solve U z = z.
  for (std::size_t i = n_; i-- > 0;) {
    double sum = z[i];
    for (std::size_t u = u_ptr_[i]; u < u_ptr_[i + 1]; ++u) {
      sum -= u_val[u] * z[u_col[u]];
    }
    z[i] = sum * inv_diag_[i];
  }
}

}  // namespace lcn::sparse
