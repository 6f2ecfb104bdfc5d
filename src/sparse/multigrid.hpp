// Geometric/algebraic multigrid preconditioner (DESIGN.md §S20).
//
// The thermal systems live on structured layer × row × col grids whose
// couplings are strongly anisotropic: vertical conductances (thin layers,
// g ~ k·A/(t/2)) dwarf in-plane ones (g ~ k·t). Aggregation therefore
// coarsens *along the strong direction first* — adjacent layers of a
// (row, col) pillar are merged (2RM's solid/liquid pair of a block merges the
// same way) until one layer remains, then the plane is coarsened 2×2 — which
// is exactly when piecewise-constant transfer is accurate: after smoothing,
// the error is near-constant across strong couplings. Without a grid hint the
// same principle runs algebraically (greedy pairwise aggregation on the
// strongest |a_ij| coupling).
//
// The hierarchy is a symbolic/numeric split in the §S18 idiom: aggregates,
// transfer maps and every Galerkin coarse pattern (A_c = P^T A P with
// piecewise-constant P, i.e. A_c(I,J) = Σ_{agg(i)=I, agg(j)=J} a_ij) are
// captured once per sparsity structure as SparsityPlans; refactor() on a
// structure-sharing matrix refills values level by level with no symbolic
// work, and falls back to full reconstruction when the structure changed.
//
// apply() runs one V-cycle over SELL-C-σ operators with a dense-LU coarse
// solve — a fixed linear operation, so it composes with
// CG/BiCGSTAB/GMRES through the ordinary Preconditioner interface. The
// default smoother is a per-level ILU(0): the thermal matrices carry
// advective liquid rows whose diagonal (convective conductance) sits orders
// of magnitude below the ±cv·q/2 flow couplings, and pointwise damped Jacobi
// *amplifies* error on those rows — the V-cycle diverges — while ILU(0)'s
// triangular sweeps follow the flow chain exactly. Damped Jacobi remains
// available for diffusion-dominated SPD systems. Results are identical for
// every thread count (each output element is produced by one task in serial
// operation order), but one instance must not be applied from two threads
// concurrently — the per-level scratch is a workspace, like SolverWorkspace.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sparse/dense.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/sell.hpp"
#include "sparse/sparsity_plan.hpp"

namespace lcn::sparse {

/// Structured-grid coordinates of each matrix row, provided by the thermal
/// assembly plans: layer index plus in-plane (row, col). Nodes sharing all
/// three (e.g. 2RM's solid and liquid node of one block) are coalesced by the
/// first vertical coarsening step.
struct MgGridHint {
  std::vector<std::int32_t> layer;
  std::vector<std::int32_t> row;
  std::vector<std::int32_t> col;

  std::size_t size() const { return layer.size(); }
  bool consistent() const {
    return row.size() == layer.size() && col.size() == layer.size();
  }
};

struct MultigridOptions {
  /// Per-level smoother. kIlu0 (default) is robust for the advective thermal
  /// systems; kJacobi is cheaper per sweep but diverges on rows that are far
  /// from diagonally dominant. A level whose ILU(0) factorization hits a
  /// zero pivot falls back to damped Jacobi on that level alone.
  enum class Smoother { kIlu0, kJacobi };
  Smoother smoother = Smoother::kIlu0;
  std::size_t max_levels = 25;
  /// Coarsest-level size: stop coarsening at or below this and solve the
  /// coarse system directly (dense LU).
  std::size_t coarse_size = 200;
  int pre_smooth = 1;   ///< smoothing sweeps before coarse correction
  int post_smooth = 1;  ///< sweeps after
  double jacobi_weight = 0.7;  ///< damping for the Jacobi smoother paths
  /// Stop adding levels when a coarsening step shrinks the system by less
  /// than this factor (guards against aggregation stalling).
  double min_coarsening = 1.1;
};

class MultigridPreconditioner final : public Preconditioner {
 public:
  /// Build the full hierarchy for `a`. `hint` (optional, may be null) enables
  /// the geometric coarsening path; it is copied, so the caller's hint may
  /// die. Without a hint — or once the hint's structure is exhausted —
  /// aggregation proceeds algebraically.
  explicit MultigridPreconditioner(const CsrMatrix& a,
                                   const MgGridHint* hint = nullptr,
                                   const MultigridOptions& options = {});

  /// Refactorize for a new matrix. When `a` shares the previous matrix's
  /// symbolic structure (pointer-identical index arrays) only the numeric
  /// hierarchy is refilled (values, Galerkin products, smoother factors,
  /// coarse LU) on the existing aggregates; otherwise the whole hierarchy —
  /// aggregates included — is rebuilt, reusing the stored grid hint when the
  /// node count still matches and dropping to algebraic aggregation when it
  /// does not. With a grid hint the aggregates depend only on coordinates,
  /// so a same-structure refill is bit-identical to a fresh construction
  /// from `a`. Hint-less (algebraic) aggregation follows the strongest
  /// couplings of the matrix the hierarchy was *built* from; a refill keeps
  /// those aggregates — still a valid preconditioner, but possibly a
  /// different hierarchy than a fresh build on the new values would choose.
  void refactor(const CsrMatrix& a);

  /// One V-cycle: z ≈ A⁻¹ r.
  void apply(const Vector& r, Vector& z) const override;

  std::size_t level_count() const { return levels_.size(); }
  std::size_t level_rows(std::size_t level) const {
    return levels_.at(level).n;
  }

 private:
  struct Level {
    std::size_t n = 0;
    CsrMatrix a;            ///< owned on levels ≥ 1; empty handle on level 0
    SellMatrix op;          ///< smoother/residual operator
    Vector inv_diag;
    /// ILU(0) smoother factors; absent under Smoother::kJacobi or after a
    /// zero pivot (that level then smooths with damped Jacobi).
    std::optional<Ilu0Preconditioner> ilu;
    // Coarsening to the next level (absent on the coarsest level).
    std::vector<std::uint32_t> agg;  ///< this-level row -> coarse aggregate
    std::size_t coarse_n = 0;
    SparsityPlan galerkin;  ///< coarse pattern over this level's nnz sequence
    // V-cycle scratch (workspace semantics: not concurrency-safe).
    mutable Vector ax, resid, zs, rc, xc;
  };

  void build(const CsrMatrix& a);
  void refill(const CsrMatrix& a);
  void finish_level_numeric(Level& level, const CsrMatrix& op);
  void smooth(const Level& lvl, const Vector& rhs, Vector& x, int sweeps,
              bool x_is_zero) const;
  void vcycle(std::size_t level, const Vector& rhs, Vector& x) const;
  void coarse_solve(const Vector& rhs, Vector& x) const;

  MultigridOptions opts_;
  bool have_hint_ = false;
  MgGridHint hint_;
  SharedIndexes src_row_ptr_;
  SharedIndexes src_col_idx_;
  std::vector<Level> levels_;
  std::optional<DenseLu> coarse_lu_;
};

}  // namespace lcn::sparse
