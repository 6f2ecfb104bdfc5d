// Symbolic half of the COO→CSR split (DESIGN.md §S18).
//
// Compressing a COO triplet sequence to CSR does three jobs: sort the
// triplets, merge duplicates, and build the CSR index arrays. For a fixed
// (problem, network) all of that is invariant across probe parameters —
// only the *values* change. SparsityPlan runs the symbolic work once and
// captures, for every original triplet slot, where its value lands in the
// CSR value array and in which order duplicate contributions are summed. A
// numeric refill() is then a single linear pass with no sorting and no index
// allocation.
//
// Bit-identity contract: every refill() of the same slot values produces
// the same value array as the plan's first assembly. Three facts make this
// exact:
//   1. analyze() sorts slot-tagged triplets with triplet_pattern_order,
//      which compares (row, col) keys only, so the scatter map never depends
//      on values.
//   2. refill() accumulates contributions in the captured sorted order into
//      slots initialised to 0.0, the same additions on every call.
//   3. The caller guarantees the pattern is really invariant: same number
//      of triplets, same (row, col) per slot. A value that is exactly 0.0
//      stays in the matrix as an explicit zero, and assembly code that skips
//      zero-valued entries must skip them identically on every emission.
#pragma once

#include <cstddef>
#include <vector>

#include "sparse/csr.hpp"

namespace lcn::sparse {

class SparsityPlan {
 public:
  SparsityPlan() = default;

  /// Symbolic analysis of a triplet pattern. `pattern` values are ignored;
  /// only (row, col) per slot matter. Counts one `assemblies_symbolic`.
  static SparsityPlan analyze(std::size_t rows, std::size_t cols,
                              const std::vector<Triplet>& pattern);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return col_idx_->size(); }
  /// Number of triplet slots the plan was analyzed from (≥ nnz: duplicate
  /// (row, col) slots compress into one CSR entry).
  std::size_t slots() const { return perm_.size(); }

  /// Original triplet slot feeding sorted position s.
  const std::vector<std::size_t>& perm() const { return perm_; }
  /// CSR value slot receiving sorted position s.
  const std::vector<std::size_t>& slot() const { return slot_; }

  const SharedIndexes& shared_row_ptr() const { return row_ptr_; }
  const SharedIndexes& shared_col_idx() const { return col_idx_; }

  /// Numeric pass: values[csr_slot] accumulates value_of(triplet_slot) in
  /// the captured duplicate-summation order. `value_of` is any callable
  /// std::size_t → double over [0, slots()).
  template <class ValueFn>
  void refill(ValueFn&& value_of, std::vector<double>& values) const {
    values.assign(nnz(), 0.0);
    for (std::size_t s = 0; s < perm_.size(); ++s) {
      values[slot_[s]] += value_of(perm_[s]);
    }
  }

  /// refill() packaged as a matrix that *borrows* the plan's index arrays —
  /// no symbolic copies, just one value-array allocation.
  template <class ValueFn>
  CsrMatrix refill_matrix(ValueFn&& value_of) const {
    std::vector<double> values;
    refill(value_of, values);
    return CsrMatrix(rows_, cols_, row_ptr_, col_idx_, std::move(values));
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  SharedIndexes row_ptr_;
  SharedIndexes col_idx_;
  std::vector<std::size_t> perm_;
  std::vector<std::size_t> slot_;
};

}  // namespace lcn::sparse
