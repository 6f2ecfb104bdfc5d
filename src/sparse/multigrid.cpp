#include "sparse/multigrid.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace lcn::sparse {

namespace {

/// Per-level grid coordinates carried down the hierarchy while geometric
/// coarsening is possible.
struct Coords {
  std::vector<std::int32_t> layer, row, col;
  std::size_t size() const { return layer.size(); }
  bool empty() const { return layer.empty(); }
};

constexpr std::int32_t kCoordLimit = 1 << 20;

bool coords_encodable(const Coords& c) {
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.layer[i] < 0 || c.layer[i] >= kCoordLimit || c.row[i] < 0 ||
        c.row[i] >= kCoordLimit || c.col[i] < 0 || c.col[i] >= kCoordLimit) {
      return false;
    }
  }
  return true;
}

/// Geometric aggregation: merge along the strong (vertical) couplings first —
/// pairs of adjacent layers, which also coalesces coincident nodes such as
/// 2RM's solid/liquid pair of a block — then, once a single layer remains,
/// coarsen the plane 2×2. Aggregate ids are assigned in order of first
/// appearance over the node scan, so the result is deterministic. Returns the
/// coarse node count and replaces `coords` with the coarse coordinates.
std::size_t geometric_aggregate(std::vector<std::uint32_t>& agg,
                                Coords& coords) {
  const std::size_t n = coords.size();
  std::int32_t max_layer = 0;
  for (std::int32_t l : coords.layer) max_layer = std::max(max_layer, l);
  const bool vertical = max_layer > 0;

  agg.assign(n, 0);
  Coords coarse;
  std::unordered_map<std::int64_t, std::uint32_t> id_of;
  id_of.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t cl = vertical ? coords.layer[i] >> 1 : 0;
    const std::int32_t cr = vertical ? coords.row[i] : coords.row[i] >> 1;
    const std::int32_t cc = vertical ? coords.col[i] : coords.col[i] >> 1;
    const std::int64_t key =
        (static_cast<std::int64_t>(cl) << 40) |
        (static_cast<std::int64_t>(cr) << 20) | static_cast<std::int64_t>(cc);
    auto [it, inserted] =
        id_of.try_emplace(key, static_cast<std::uint32_t>(coarse.size()));
    if (inserted) {
      coarse.layer.push_back(cl);
      coarse.row.push_back(cr);
      coarse.col.push_back(cc);
    }
    agg[i] = it->second;
  }
  coords = std::move(coarse);
  return coords.size();
}

/// Algebraic fallback: greedy pairwise aggregation along the strongest
/// off-diagonal coupling. Scans rows in order; an unaggregated row pairs with
/// its unaggregated neighbor of largest |a_ij| (ties: smallest column), or
/// stays a singleton. Deterministic by construction.
std::size_t algebraic_aggregate(const CsrMatrix& a,
                                std::vector<std::uint32_t>& agg) {
  const std::size_t n = a.rows();
  const std::vector<std::size_t>& row_ptr = a.row_ptr();
  const std::vector<std::size_t>& col_idx = a.col_idx();
  const std::vector<double>& values = a.values();
  constexpr std::uint32_t kUnset = 0xffffffffu;
  agg.assign(n, kUnset);
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (agg[i] != kUnset) continue;
    std::size_t best = n;
    double best_mag = -1.0;
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const std::size_t j = col_idx[k];
      if (j == i || j >= n || agg[j] != kUnset) continue;
      const double mag = std::abs(values[k]);
      if (mag > best_mag) {
        best_mag = mag;
        best = j;
      }
    }
    agg[i] = next;
    if (best < n) agg[best] = next;
    ++next;
  }
  return next;
}

}  // namespace

MultigridPreconditioner::MultigridPreconditioner(const CsrMatrix& a,
                                                 const MgGridHint* hint,
                                                 const MultigridOptions& options)
    : opts_(options) {
  LCN_REQUIRE(a.rows() == a.cols(), "multigrid needs a square matrix");
  if (hint != nullptr && hint->consistent() && hint->size() == a.rows()) {
    have_hint_ = true;
    hint_ = *hint;
  }
  build(a);
}

void MultigridPreconditioner::refactor(const CsrMatrix& a) {
  if (!levels_.empty() && a.shared_row_ptr() == src_row_ptr_ &&
      a.shared_col_idx() == src_col_idx_) {
    refill(a);
    return;
  }
  LCN_REQUIRE(a.rows() == a.cols(), "multigrid needs a square matrix");
  build(a);
}

void MultigridPreconditioner::finish_level_numeric(Level& level,
                                                   const CsrMatrix& op) {
  level.op.refill(op);
  level.inv_diag = op.diagonal();
  for (double& d : level.inv_diag) d = (d != 0.0) ? 1.0 / d : 1.0;
  if (opts_.smoother == MultigridOptions::Smoother::kIlu0) {
    try {
      if (level.ilu.has_value()) {
        level.ilu->refactor(op);
      } else {
        level.ilu.emplace(op);
      }
    } catch (const RuntimeError&) {
      // Zero pivot on this level: smooth it with damped Jacobi instead.
      level.ilu.reset();
    }
  } else {
    level.ilu.reset();
  }
}

void MultigridPreconditioner::smooth(const Level& lvl, const Vector& rhs,
                                     Vector& x, int sweeps,
                                     bool x_is_zero) const {
  const double w = opts_.jacobi_weight;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    if (sweep == 0 && x_is_zero) {
      // x = 0: the sweep needs no SpMV — smooth the rhs directly.
      if (lvl.ilu.has_value()) {
        lvl.ilu->apply(rhs, x);
      } else {
        x.resize(lvl.n);
        for (std::size_t i = 0; i < lvl.n; ++i) {
          x[i] = w * lvl.inv_diag[i] * rhs[i];
        }
      }
      continue;
    }
    lvl.op.multiply(x, lvl.ax);
    if (lvl.ilu.has_value()) {
      lvl.resid.resize(lvl.n);
      for (std::size_t i = 0; i < lvl.n; ++i) {
        lvl.resid[i] = rhs[i] - lvl.ax[i];
      }
      lvl.ilu->apply(lvl.resid, lvl.zs);
      for (std::size_t i = 0; i < lvl.n; ++i) x[i] += lvl.zs[i];
    } else {
      for (std::size_t i = 0; i < lvl.n; ++i) {
        x[i] += w * lvl.inv_diag[i] * (rhs[i] - lvl.ax[i]);
      }
    }
  }
}

void MultigridPreconditioner::build(const CsrMatrix& a) {
  src_row_ptr_ = a.shared_row_ptr();
  src_col_idx_ = a.shared_col_idx();
  levels_.clear();
  coarse_lu_.reset();

  Coords coords;
  if (have_hint_ && hint_.size() == a.rows()) {
    coords.layer = hint_.layer;
    coords.row = hint_.row;
    coords.col = hint_.col;
    if (!coords_encodable(coords)) coords = Coords{};
  }

  levels_.emplace_back();
  std::size_t li = 0;
  while (true) {
    const CsrMatrix& cur = li == 0 ? a : levels_[li].a;
    levels_[li].n = cur.rows();

    bool coarsest = cur.rows() <= opts_.coarse_size ||
                    levels_.size() >= opts_.max_levels;
    std::vector<std::uint32_t> agg;
    std::size_t coarse_n = 0;
    if (!coarsest) {
      if (coords.size() == cur.rows()) {
        coarse_n = geometric_aggregate(agg, coords);
      } else {
        coords = Coords{};
        coarse_n = algebraic_aggregate(cur, agg);
      }
      // Stop when coarsening stalls — a further level would only add cost.
      coarsest = static_cast<double>(coarse_n) * opts_.min_coarsening >
                 static_cast<double>(cur.rows());
    }

    if (coarsest) {
      try {
        coarse_lu_.emplace(DenseMatrix::from_csr(cur));
      } catch (const RuntimeError&) {
        // Singular coarse operator: fall back to damped-Jacobi sweeps there.
        coarse_lu_.reset();
        levels_[li].op = SellMatrix(cur);
        finish_level_numeric(levels_[li], cur);
      }
      break;
    }

    Level& lvl = levels_[li];
    lvl.agg = std::move(agg);
    lvl.coarse_n = coarse_n;
    std::vector<Triplet> pattern;
    pattern.reserve(cur.nnz());
    const std::vector<std::size_t>& row_ptr = cur.row_ptr();
    const std::vector<std::size_t>& col_idx = cur.col_idx();
    for (std::size_t r = 0; r < cur.rows(); ++r) {
      for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        pattern.push_back(Triplet{lvl.agg[r], lvl.agg[col_idx[k]], 0.0});
      }
    }
    lvl.galerkin = SparsityPlan::analyze(coarse_n, coarse_n, pattern);
    lvl.op = SellMatrix(cur);
    finish_level_numeric(lvl, cur);
    lvl.ax.resize(lvl.n);
    lvl.resid.resize(lvl.n);
    lvl.rc.resize(coarse_n);
    lvl.xc.resize(coarse_n);

    const std::vector<double>& fine_values = cur.values();
    CsrMatrix coarse = lvl.galerkin.refill_matrix(
        [&fine_values](std::size_t slot) { return fine_values[slot]; });
    levels_.emplace_back();
    levels_[li + 1].a = std::move(coarse);
    ++li;
  }
}

void MultigridPreconditioner::refill(const CsrMatrix& a) {
  for (std::size_t li = 0; li < levels_.size(); ++li) {
    const CsrMatrix& cur = li == 0 ? a : levels_[li].a;
    const bool coarsest = li + 1 == levels_.size();
    if (coarsest) {
      if (coarse_lu_.has_value()) {
        coarse_lu_.emplace(DenseMatrix::from_csr(cur));
      } else {
        finish_level_numeric(levels_[li], cur);
      }
      break;
    }
    Level& lvl = levels_[li];
    finish_level_numeric(lvl, cur);
    const std::vector<double>& fine_values = cur.values();
    // refill_matrix borrows the plan's index arrays, so the next level keeps
    // its shared structure across refills (the SELL refill fast path).
    levels_[li + 1].a = lvl.galerkin.refill_matrix(
        [&fine_values](std::size_t slot) { return fine_values[slot]; });
  }
}

void MultigridPreconditioner::coarse_solve(const Vector& rhs, Vector& x) const {
  instrument::add(instrument::Counter::mg_coarse_solves);
  if (coarse_lu_.has_value()) {
    x = coarse_lu_->solve(rhs);
    return;
  }
  // Singular-coarse fallback: a few smoothing sweeps from zero.
  const Level& lvl = levels_.back();
  x.assign(rhs.size(), 0.0);
  smooth(lvl, rhs, x, 8, /*x_is_zero=*/true);
}

void MultigridPreconditioner::vcycle(std::size_t level, const Vector& rhs,
                                     Vector& x) const {
  if (level + 1 == levels_.size()) {
    coarse_solve(rhs, x);
    return;
  }
  const Level& lvl = levels_[level];
  x.assign(lvl.n, 0.0);
  // Pre-smoothing. The first sweep starts from x = 0, so it needs no SpMV.
  smooth(lvl, rhs, x, opts_.pre_smooth, /*x_is_zero=*/true);
  // Coarse-grid correction: restrict the residual (piecewise-constant P^T is
  // a scatter-add; kept serial — it is a reduction), recurse, prolongate.
  lvl.op.multiply(x, lvl.ax);
  for (std::size_t i = 0; i < lvl.n; ++i) {
    lvl.resid[i] = rhs[i] - lvl.ax[i];
  }
  std::fill(lvl.rc.begin(), lvl.rc.end(), 0.0);
  for (std::size_t i = 0; i < lvl.n; ++i) {
    lvl.rc[lvl.agg[i]] += lvl.resid[i];
  }
  vcycle(level + 1, lvl.rc, lvl.xc);
  for (std::size_t i = 0; i < lvl.n; ++i) {
    x[i] += lvl.xc[lvl.agg[i]];
  }
  // Post-smoothing.
  smooth(lvl, rhs, x, opts_.post_smooth, /*x_is_zero=*/false);
}

void MultigridPreconditioner::apply(const Vector& r, Vector& z) const {
  LCN_REQUIRE(r.size() == levels_.front().n, "multigrid apply: size mismatch");
  LCN_TRACE_SPAN_FINE("mg_vcycle");
  const metrics::ScopedLatency latency(metrics::Hist::mg_vcycle_seconds,
                                       metrics::kFine);
  instrument::add(instrument::Counter::mg_vcycles);
  vcycle(0, r, z);
}

}  // namespace lcn::sparse
