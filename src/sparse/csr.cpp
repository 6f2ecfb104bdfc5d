#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "common/trace.hpp"

namespace lcn::sparse {

const SharedIndexes& CsrMatrix::empty_indexes() {
  static const SharedIndexes empty =
      std::make_shared<const std::vector<std::size_t>>();
  return empty;
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values)
    : CsrMatrix(rows, cols,
                std::make_shared<const std::vector<std::size_t>>(
                    std::move(row_ptr)),
                std::make_shared<const std::vector<std::size_t>>(
                    std::move(col_idx)),
                std::move(values)) {}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols, SharedIndexes row_ptr,
                     SharedIndexes col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  LCN_REQUIRE(row_ptr_ != nullptr && col_idx_ != nullptr,
              "CSR structure must be non-null");
  LCN_REQUIRE(row_ptr_->size() == rows_ + 1, "row_ptr size must be rows+1");
  LCN_REQUIRE(col_idx_->size() == values_.size(),
              "col_idx and values must have equal length");
  LCN_REQUIRE(row_ptr_->back() == values_.size(),
              "row_ptr must terminate at nnz");
}

void CsrMatrix::multiply(const Vector& x, Vector& y) const {
  const trace::Span span(metrics::Hist::spmv_batch_seconds);
  instrument::add(instrument::Counter::spmv_count);
  instrument::add(instrument::Counter::spmv_nnz, nnz());
  LCN_REQUIRE(x.size() == cols_, "SpMV: x size mismatch");
  y.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (std::size_t k = (*row_ptr_)[r]; k < (*row_ptr_)[r + 1]; ++k) {
      sum += values_[k] * x[(*col_idx_)[k]];
    }
    y[r] = sum;
  }
}

Vector CsrMatrix::multiply(const Vector& x) const {
  Vector y;
  multiply(x, y);
  return y;
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  LCN_REQUIRE(row < rows_ && col < cols_, "at: index out of range");
  const auto begin = col_idx_->begin() + static_cast<std::ptrdiff_t>((*row_ptr_)[row]);
  const auto end = col_idx_->begin() + static_cast<std::ptrdiff_t>((*row_ptr_)[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_->begin())];
}

Vector CsrMatrix::diagonal() const {
  Vector d(rows_, 0.0);
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t r = 0; r < n; ++r) d[r] = at(r, r);
  return d;
}

double CsrMatrix::symmetry_gap() const {
  LCN_REQUIRE(rows_ == cols_, "symmetry_gap requires a square matrix");
  double gap = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = (*row_ptr_)[r]; k < (*row_ptr_)[r + 1]; ++k) {
      gap = std::max(gap, std::abs(values_[k] - at((*col_idx_)[k], r)));
    }
  }
  return gap;
}

std::vector<double> CsrMatrix::to_dense() const {
  std::vector<double> dense(rows_ * cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = (*row_ptr_)[r]; k < (*row_ptr_)[r + 1]; ++k) {
      dense[r * cols_ + (*col_idx_)[k]] += values_[k];
    }
  }
  return dense;
}

}  // namespace lcn::sparse
