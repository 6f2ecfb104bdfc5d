#include "sparse/sell.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "sparse/parallel.hpp"

namespace lcn::sparse {

namespace {
constexpr std::uint32_t kNoRow = 0xffffffffu;
}

SellMatrix::SellMatrix(const CsrMatrix& a) {
  analyze(a);
  fill_values(a);
}

void SellMatrix::refill(const CsrMatrix& a) {
  if (!shares_structure(a)) {
    analyze(a);
  }
  fill_values(a);
}

void SellMatrix::analyze(const CsrMatrix& a) {
  LCN_REQUIRE(a.rows() < kNoRow && a.cols() < kNoRow,
              "SELL-C-sigma uses 32-bit indices");
  rows_ = a.rows();
  cols_ = a.cols();
  nnz_ = a.nnz();
  src_row_ptr_ = a.shared_row_ptr();
  src_col_idx_ = a.shared_col_idx();

  const std::vector<std::size_t>& row_ptr = a.row_ptr();
  const std::vector<std::size_t>& col_idx = a.col_idx();

  // Order rows by descending length within σ-sized windows. stable_sort
  // keeps equal-length rows in CSR order, so the layout is deterministic.
  std::vector<std::uint32_t> order(rows_);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t w0 = 0; w0 < rows_; w0 += kSortWindow) {
    const std::size_t w1 = std::min(w0 + kSortWindow, rows_);
    std::stable_sort(
        order.begin() + static_cast<std::ptrdiff_t>(w0),
        order.begin() + static_cast<std::ptrdiff_t>(w1),
        [&row_ptr](std::uint32_t ra, std::uint32_t rb) {
          return row_ptr[ra + 1] - row_ptr[ra] > row_ptr[rb + 1] - row_ptr[rb];
        });
  }

  const std::size_t chunks = (rows_ + kChunk - 1) / kChunk;
  chunk_offset_.assign(chunks + 1, 0);
  chunk_len_.assign(chunks, 0);
  perm_.assign(chunks * kChunk, kNoRow);
  len_.assign(chunks * kChunk, 0);

  for (std::size_t ch = 0; ch < chunks; ++ch) {
    std::uint32_t max_len = 0;
    for (std::size_t lane = 0; lane < kChunk; ++lane) {
      const std::size_t pos = ch * kChunk + lane;
      if (pos >= rows_) break;
      const std::uint32_t row = order[pos];
      const auto length =
          static_cast<std::uint32_t>(row_ptr[row + 1] - row_ptr[row]);
      perm_[pos] = row;
      len_[pos] = length;
      max_len = std::max(max_len, length);
    }
    chunk_len_[ch] = max_len;
    chunk_offset_[ch + 1] = chunk_offset_[ch] + max_len * kChunk;
  }

  // Padded column indices, slot-major within each chunk. Padding repeats the
  // lane's last valid column (or 0 for an empty row) so the padded loads hit
  // memory that is already resident; padded values are exactly +0.0.
  col_.assign(chunk_offset_.back(), 0);
  for (std::size_t ch = 0; ch < chunks; ++ch) {
    const std::size_t base = chunk_offset_[ch];
    for (std::size_t lane = 0; lane < kChunk; ++lane) {
      const std::size_t pos = ch * kChunk + lane;
      const std::uint32_t row = pos < perm_.size() ? perm_[pos] : kNoRow;
      if (row == kNoRow) continue;
      const std::size_t k0 = row_ptr[row];
      std::uint32_t last_col = 0;
      for (std::uint32_t s = 0; s < chunk_len_[ch]; ++s) {
        if (s < len_[pos]) {
          last_col = static_cast<std::uint32_t>(col_idx[k0 + s]);
        }
        col_[base + s * kChunk + lane] = last_col;
      }
    }
  }
}

void SellMatrix::fill_values(const CsrMatrix& a) {
  const std::vector<std::size_t>& row_ptr = a.row_ptr();
  const std::vector<double>& values = a.values();
  val_.assign(chunk_offset_.back(), 0.0);
  const std::size_t chunks = chunk_len_.size();
  for (std::size_t ch = 0; ch < chunks; ++ch) {
    const std::size_t base = chunk_offset_[ch];
    for (std::size_t lane = 0; lane < kChunk; ++lane) {
      const std::size_t pos = ch * kChunk + lane;
      if (pos >= perm_.size() || perm_[pos] == kNoRow) continue;
      const std::size_t k0 = row_ptr[perm_[pos]];
      for (std::uint32_t s = 0; s < len_[pos]; ++s) {
        val_[base + s * kChunk + lane] = values[k0 + s];
      }
    }
  }
}

void SellMatrix::multiply_chunks(const Vector& x, Vector& y, std::size_t c0,
                                 std::size_t c1) const {
  for (std::size_t ch = c0; ch < c1; ++ch) {
    const std::size_t base = chunk_offset_[ch];
    const std::uint32_t clen = chunk_len_[ch];
    double acc[kChunk] = {};
    // Slot-major walk: the lane loop has unit stride over val_/col_ and
    // independent accumulators — the auto-vectorizable hot loop.
    for (std::uint32_t s = 0; s < clen; ++s) {
      const double* v = &val_[base + s * kChunk];
      const std::uint32_t* c = &col_[base + s * kChunk];
      for (std::size_t lane = 0; lane < kChunk; ++lane) {
        acc[lane] += v[lane] * x[c[lane]];
      }
    }
    for (std::size_t lane = 0; lane < kChunk; ++lane) {
      const std::size_t pos = ch * kChunk + lane;
      if (pos < perm_.size() && perm_[pos] != kNoRow) {
        y[perm_[pos]] = acc[lane];
      }
    }
  }
}

void SellMatrix::multiply(const Vector& x, Vector& y) const {
  LCN_REQUIRE(x.size() == cols_, "SELL SpMV: x size mismatch");
  LCN_TRACE_SPAN_FINE("sell_spmv");
  const metrics::ScopedLatency latency(metrics::Hist::spmv_batch_seconds,
                                       metrics::kFine);
  instrument::add(instrument::Counter::spmv_count);
  instrument::add(instrument::Counter::spmv_nnz, nnz_);
  y.resize(rows_);
  const std::size_t chunks = chunk_len_.size();
  if (!parallel_kernels_enabled(nnz_, kSpmvGrain) || chunks < 2) {
    multiply_chunks(x, y, 0, chunks);
    return;
  }
  // Partition chunks so each range carries a similar slot load (chunk_offset_
  // is the padded-slot prefix sum). Each row is written by exactly one task.
  const std::size_t total = chunk_offset_.back();
  const std::size_t parts = std::min(global_pool_threads(), chunks);
  std::vector<std::size_t> bounds(parts + 1, chunks);
  bounds[0] = 0;
  for (std::size_t p = 1; p < parts; ++p) {
    const std::size_t target = total * p / parts;
    bounds[p] = static_cast<std::size_t>(
        std::lower_bound(chunk_offset_.begin(), chunk_offset_.end(), target) -
        chunk_offset_.begin());
  }
  global_pool().parallel_for(parts, [&](std::size_t p) {
    multiply_chunks(x, y, bounds[p], std::min(bounds[p + 1], chunks));
  });
}

}  // namespace lcn::sparse
