// COO triplet builder for tests: a fresh sort-and-merge compression that
// hand-built matrices and the SparsityPlan refill checks compare against.
// The library assembles every system through a SparsityPlan
// (sparse/sparsity_plan.hpp); this is the independent reference.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sparse/csr.hpp"

namespace lcn::sparse {

/// Collects triplets, dropping exact zeros, and compresses them on
/// to_csr().
class TripletList {
 public:
  TripletList(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  void add(std::size_t row, std::size_t col, double value) {
    LCN_REQUIRE(row < rows_ && col < cols_, "triplet index out of range");
    if (value != 0.0) triplets_.push_back({row, col, value});
  }

  /// Sort with triplet_pattern_order, merge duplicates (summing in sorted
  /// order), and build CSR.
  CsrMatrix to_csr() const {
    std::vector<Triplet> sorted = triplets_;
    std::sort(sorted.begin(), sorted.end(), &triplet_pattern_order);

    std::vector<std::size_t> row_ptr(rows_ + 1, 0);
    std::vector<std::size_t> col_idx;
    std::vector<double> values;
    for (std::size_t i = 0; i < sorted.size();) {
      std::size_t j = i;
      double sum = 0.0;
      while (j < sorted.size() && sorted[j].row == sorted[i].row &&
             sorted[j].col == sorted[i].col) {
        sum += sorted[j].value;
        ++j;
      }
      col_idx.push_back(sorted[i].col);
      values.push_back(sum);
      ++row_ptr[sorted[i].row + 1];
      i = j;
    }
    for (std::size_t r = 0; r < rows_; ++r) row_ptr[r + 1] += row_ptr[r];

    return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Triplet> triplets_;
};

}  // namespace lcn::sparse
