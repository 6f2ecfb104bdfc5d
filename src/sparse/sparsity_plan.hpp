// Symbolic half of the COO→CSR split (DESIGN.md §S18).
//
// compress_triplets() does three jobs every time a system is assembled:
// sort the triplet sequence, merge duplicates, and build the CSR index
// arrays. For a fixed (problem, network) all of that is invariant across
// probe parameters — only the *values* change. SparsityPlan runs the
// symbolic work once and captures, for every original triplet slot, where
// its value lands in the CSR value array and in which order duplicate
// contributions are summed. A numeric refill() is then a single linear pass
// with no sorting and no index allocation.
//
// Bit-identity contract: refill() produces value arrays bit-identical to a
// fresh TripletList::to_csr() of the same triplet sequence.
// Three facts make this exact rather than approximate:
//   1. analyze() sorts with the same std::sort instantiation and the same
//      comparator (triplet_pattern_order) as compress_triplets(). The sort's
//      permutation depends only on comparator outcomes over (row, col) keys,
//      so tagging triplets with slot indices instead of values yields the
//      permutation a fresh compression would apply.
//   2. refill() accumulates contributions in captured sorted order into
//      slots initialised to 0.0 — the same `sum = 0.0; sum += v...` loop
//      compress_triplets() runs per duplicate group.
//   3. The caller guarantees the pattern is really invariant: same number
//      of triplets, same (row, col) per slot (assembly code that skips
//      zero-valued entries must skip them identically on every emission).
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
