#include "sparse/ic0.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace lcn::sparse {

Ic0Preconditioner::Ic0Preconditioner(const CsrMatrix& a) {
  analyze(a);
  factorize(a.values());
}

void Ic0Preconditioner::analyze(const CsrMatrix& a) {
  LCN_REQUIRE(a.rows() == a.cols(), "IC(0) needs a square matrix");
  n_ = a.rows();

  // Extract the lower-triangular pattern (including diagonal) of A and the
  // gather map from A's value array.
  row_ptr_.assign(n_ + 1, 0);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      if (a.col_idx()[k] <= r) ++row_ptr_[r + 1];
    }
  }
  for (std::size_t r = 0; r < n_; ++r) row_ptr_[r + 1] += row_ptr_[r];
  col_idx_.resize(row_ptr_[n_]);
  lower_src_.resize(row_ptr_[n_]);
  values_.resize(row_ptr_[n_]);
  {
    std::vector<std::size_t> cursor(row_ptr_.begin(), row_ptr_.end() - 1);
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        const std::size_t c = a.col_idx()[k];
        if (c > r) continue;
        col_idx_[cursor[r]] = c;
        lower_src_[cursor[r]] = k;
        ++cursor[r];
      }
    }
  }
  for (std::size_t i = 0; i < n_; ++i) {
    LCN_REQUIRE(row_ptr_[i + 1] > row_ptr_[i] &&
                    col_idx_[row_ptr_[i + 1] - 1] == i,
                "IC(0): missing diagonal entry");
  }

  // Transposed (CSC-like) pattern for the backward solve, plus the gather
  // map from the row-major factor.
  col_ptr_.assign(n_ + 1, 0);
  for (std::size_t k = 0; k < col_idx_.size(); ++k) ++col_ptr_[col_idx_[k] + 1];
  for (std::size_t c = 0; c < n_; ++c) col_ptr_[c + 1] += col_ptr_[c];
  row_idx_.resize(col_idx_.size());
  t_src_.resize(col_idx_.size());
  t_values_.resize(col_idx_.size());
  std::vector<std::size_t> cursor(col_ptr_.begin(), col_ptr_.end() - 1);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      row_idx_[cursor[c]] = r;
      t_src_[cursor[c]] = k;
      ++cursor[c];
    }
  }

  pos_.assign(n_, -1);
}

void Ic0Preconditioner::factorize(const std::vector<double>& a_values) {
  // Gather the lower triangle of A.
  for (std::size_t s = 0; s < lower_src_.size(); ++s) {
    values_[s] = a_values[lower_src_[s]];
  }

  // IC(0) factorization in place on the lower pattern. Row entries are
  // sorted (CSR from a SparsityPlan is sorted), diagonal last in each row.
  // pos_ maps col -> index in the current row; kept all -1 between calls.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t row_begin = row_ptr_[i];
    const std::size_t row_end = row_ptr_[i + 1];
    for (std::size_t k = row_begin; k < row_end; ++k) {
      pos_[col_idx_[k]] = static_cast<std::ptrdiff_t>(k);
    }
    // For each entry L(i,j), j < i:
    for (std::size_t k = row_begin; k + 1 < row_end; ++k) {
      const std::size_t j = col_idx_[k];
      // L(i,j) = (A(i,j) - sum_{m<j} L(i,m)·L(j,m)) / L(j,j)
      double sum = values_[k];
      for (std::size_t kj = row_ptr_[j]; kj + 1 < row_ptr_[j + 1]; ++kj) {
        const std::ptrdiff_t p = pos_[col_idx_[kj]];
        if (p >= 0 && static_cast<std::size_t>(p) < k) {
          sum -= values_[static_cast<std::size_t>(p)] * values_[kj];
        }
      }
      const double diag_j = values_[row_ptr_[j + 1] - 1];
      values_[k] = sum / diag_j;
    }
    // Diagonal: L(i,i) = sqrt(A(i,i) - sum_m L(i,m)²)
    double diag = values_[row_end - 1];
    for (std::size_t k = row_begin; k + 1 < row_end; ++k) {
      diag -= values_[k] * values_[k];
    }
    if (diag <= 0.0) {
      throw RuntimeError("IC(0): non-positive pivot at row " +
                         std::to_string(i));
    }
    values_[row_end - 1] = std::sqrt(diag);
    for (std::size_t k = row_begin; k < row_end; ++k) pos_[col_idx_[k]] = -1;
  }

  // Refresh the transposed view (pure gather from the factored values).
  for (std::size_t t = 0; t < t_src_.size(); ++t) {
    t_values_[t] = values_[t_src_[t]];
  }
}

void Ic0Preconditioner::apply(const Vector& r, Vector& z) const {
  LCN_REQUIRE(r.size() == n_, "IC(0) apply: size mismatch");
  z = r;
  // Forward: L y = r (diagonal is the last entry of each row).
  for (std::size_t i = 0; i < n_; ++i) {
    double sum = z[i];
    for (std::size_t k = row_ptr_[i]; k + 1 < row_ptr_[i + 1]; ++k) {
      sum -= values_[k] * z[col_idx_[k]];
    }
    z[i] = sum / values_[row_ptr_[i + 1] - 1];
  }
  // Backward: Lᵀ z = y, walking columns of L (rows of Lᵀ) in reverse. Rows
  // within a column are ascending, so the first entry is the diagonal.
  for (std::size_t ii = n_; ii-- > 0;) {
    const std::size_t begin = col_ptr_[ii];
    LCN_ASSERT(row_idx_[begin] == ii, "IC(0): column must start at diagonal");
    double sum = z[ii];
    for (std::size_t k = begin + 1; k < col_ptr_[ii + 1]; ++k) {
      sum -= t_values_[k] * z[row_idx_[k]];
    }
    z[ii] = sum / t_values_[begin];
  }
}

}  // namespace lcn::sparse
