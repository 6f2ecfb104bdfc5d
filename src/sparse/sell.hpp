// SELL-C-σ sparse matrix format for SIMD-friendly SpMV (DESIGN.md §S20).
//
// CSR's row-sequential kernel leaves lane-level parallelism on the table:
// each row is a serial dot product of unpredictable length. SELL-C-σ packs
// C consecutive rows into a chunk stored column-major (slot-major), so the
// inner loop walks C independent accumulators with unit stride — exactly the
// shape auto-vectorizers turn into packed FMA lanes. σ controls a local
// row-length sort (within windows of σ rows) that keeps chunk padding small
// without destroying locality. The thermal stencils are nearly uniform
// (5–9 nonzeros per row), so padding overhead is a few percent.
//
// Bit-compatibility contract: for finite inputs, multiply() produces results
// bit-identical to CsrMatrix::multiply for every thread count. Each output
// row is accumulated by exactly one lane, in the row's CSR entry order,
// followed only by padding terms of exactly +0.0 (which cannot change a
// finite partial sum). Tests pin this with exact == comparisons.
//
// Symbolic/numeric split (§S18 idiom): conversion from a CsrMatrix analyzes
// the structure once; refill() re-reads only the value array when the new
// matrix shares the previous one's index arrays (pointer identity via
// SharedIndexes), which is how the multigrid smoother tracks refactored
// systems allocation-free.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace lcn::sparse {

class SellMatrix {
 public:
  /// Chunk height C: rows packed per column-major chunk. 8 doubles = one
  /// AVX-512 register / two AVX2 registers.
  static constexpr std::size_t kChunk = 8;
  /// Sort window σ: rows are ordered by descending length within windows of
  /// σ rows before chunking (stable, so equal-length rows keep CSR order).
  static constexpr std::size_t kSortWindow = 8 * kChunk;

  SellMatrix() = default;
  explicit SellMatrix(const CsrMatrix& a);

  /// Re-read values from `a`. Skips the structural analysis when `a` shares
  /// the previous matrix's index arrays (the refactor-in-place fast path);
  /// otherwise rebuilds from scratch. Either way the result is identical to
  /// a fresh conversion from `a`.
  void refill(const CsrMatrix& a);

  /// True when `a` shares the structure this matrix was converted from
  /// (pointer-identical shared index arrays).
  bool shares_structure(const CsrMatrix& a) const {
    return src_row_ptr_ == a.shared_row_ptr() &&
           src_col_idx_ == a.shared_col_idx();
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return nnz_; }
  /// Stored slots including padding (≥ nnz; the padding overhead).
  std::size_t padded_slots() const { return val_.size(); }

  /// y = A x over chunks fanned out across the global thread pool (each row
  /// written by exactly one task in the serial operation order — results are
  /// identical for every thread count).
  void multiply(const Vector& x, Vector& y) const;

 private:
  void analyze(const CsrMatrix& a);
  void fill_values(const CsrMatrix& a);
  void multiply_chunks(const Vector& x, Vector& y, std::size_t c0,
                       std::size_t c1) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t nnz_ = 0;
  SharedIndexes src_row_ptr_;
  SharedIndexes src_col_idx_;
  std::vector<std::size_t> chunk_offset_;  ///< slot base per chunk (+end)
  std::vector<std::uint32_t> chunk_len_;   ///< max row length per chunk
  std::vector<std::uint32_t> perm_;        ///< chunk*C+lane -> source row
  std::vector<std::uint32_t> len_;         ///< chunk*C+lane -> row length
  std::vector<std::uint32_t> col_;         ///< padded columns, slot-major
  Vector val_;                             ///< padded values, slot-major
};

}  // namespace lcn::sparse
