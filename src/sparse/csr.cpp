#include "sparse/csr.hpp"

#include <utility>

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

}  // namespace lcn::sparse
