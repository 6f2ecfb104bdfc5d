#include "sparse/sparsity_plan.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/instrument.hpp"

namespace lcn::sparse {

SparsityPlan SparsityPlan::analyze(std::size_t rows, std::size_t cols,
                                   const std::vector<Triplet>& pattern) {
  // Tag every slot with its index (exact as a double for any realistic nnz)
  // and sort by (row, col). The comparator never reads values, so the
  // permutation depends on the pattern alone.
  LCN_REQUIRE(pattern.size() < (1ull << 53),
              "SparsityPlan: pattern too large to tag exactly");
  std::vector<Triplet> tagged(pattern.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    LCN_REQUIRE(pattern[i].row < rows && pattern[i].col < cols,
                "SparsityPlan: triplet index out of range");
    tagged[i] = {pattern[i].row, pattern[i].col, static_cast<double>(i)};
  }
  std::sort(tagged.begin(), tagged.end(), &triplet_pattern_order);

  SparsityPlan plan;
  plan.rows_ = rows;
  plan.cols_ = cols;
  plan.perm_.reserve(tagged.size());
  plan.slot_.reserve(tagged.size());

  // Walk each duplicate group, recording the scatter map instead of summing
  // values.
  std::vector<std::size_t> row_ptr(rows + 1, 0);
  std::vector<std::size_t> col_idx;
  col_idx.reserve(tagged.size());
  for (std::size_t i = 0; i < tagged.size();) {
    std::size_t j = i;
    const std::size_t csr_slot = col_idx.size();
    while (j < tagged.size() && tagged[j].row == tagged[i].row &&
           tagged[j].col == tagged[i].col) {
      plan.perm_.push_back(static_cast<std::size_t>(tagged[j].value));
      plan.slot_.push_back(csr_slot);
      ++j;
    }
    col_idx.push_back(tagged[i].col);
    ++row_ptr[tagged[i].row + 1];
    i = j;
  }
  for (std::size_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];

  plan.row_ptr_ =
      std::make_shared<const std::vector<std::size_t>>(std::move(row_ptr));
  plan.col_idx_ =
      std::make_shared<const std::vector<std::size_t>>(std::move(col_idx));
  instrument::add(instrument::Counter::assemblies_symbolic);
  return plan;
}

}  // namespace lcn::sparse
