// Pareto archive over (W_pump, ΔT, T_max) (DESIGN.md §S21).
//
// The paper's two problems are the two ends of one trade-off: Problem 1
// minimizes pumping power under thermal limits, Problem 2 minimizes the
// thermal gradient under a pumping budget. Every full network evaluation the
// optimizer performs lands somewhere on that trade-off surface, so instead
// of discarding all but the incumbent, the archive keeps every
// non-dominated (W_pump, ΔT, T_max) point seen by a campaign — across SA
// stages, rounds, islands and runs. Points are deduplicated by the design's
// content hash (evaluations are deterministic, so one design maps to one
// point), dominated points are pruned on insertion, and the archive
// serializes to JSON-lines (`reproduce pareto` writes the frontiers).
//
// The archive is insertion-order independent: the surviving *set* of points
// is a pure function of the inserted multiset, which is what makes it safe
// to fill from differently-ordered replays of the same deterministic search
// (locked down by tests/pareto_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lcn {

/// One design on the trade-off surface. The objectives are all minimized;
/// the rest is provenance.
struct ParetoPoint {
  std::uint64_t design = 0;  ///< CoolingNetwork::content_hash()
  double w_pump = 0.0;       ///< pumping power at the operating point (W)
  double delta_t = 0.0;      ///< thermal gradient at the operating point (K)
  double t_max = 0.0;        ///< peak temperature at the operating point (K)
  double p_sys = 0.0;        ///< operating pressure realizing the point (Pa)
  std::string tag;           ///< provenance, e.g. "island2/s2-coarse"

  friend bool operator==(const ParetoPoint&, const ParetoPoint&) = default;
};

/// Strict Pareto dominance under minimization of (w_pump, delta_t, t_max):
/// a is no worse in every objective and better in at least one.
bool pareto_dominates(const ParetoPoint& a, const ParetoPoint& b);

/// Outcome of one insertion attempt.
enum class ArchiveInsert : std::uint8_t {
  kInserted = 0,   ///< entered the frontier (dominated incumbents pruned)
  kDuplicate = 1,  ///< same design content hash already archived
  kDominated = 2,  ///< dominated by (or objective-equal to a point of) the frontier
  kNotFinite = 3,  ///< rejected: a non-finite objective (infeasible design)
};

class ParetoArchive {
 public:
  /// Insert one point, pruning any archived point the newcomer dominates.
  /// A point whose objectives exactly equal an archived point's (but with a
  /// different design hash) is kept — distinct designs may tie.
  ArchiveInsert insert(const ParetoPoint& point);

  /// Current frontier, in insertion order of the survivors.
  const std::vector<ParetoPoint>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  void clear();

  /// Frontier in canonical order (ascending w_pump, delta_t, t_max, design):
  /// two archives hold the same frontier iff their sorted() vectors match.
  std::vector<ParetoPoint> sorted() const;

  /// Lifetime accounting (monotonic; clear() resets).
  std::uint64_t attempts() const { return attempts_; }
  std::uint64_t inserted() const { return inserted_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t dominated() const { return dominated_; }
  std::uint64_t pruned() const { return pruned_; }

  /// Hypervolume dominated by the frontier w.r.t. a reference point
  /// (r_w, r_dt, r_tmax), the standard frontier-quality indicator: the
  /// volume of the union of boxes [point, reference]. Points not strictly
  /// better than the reference in every objective contribute nothing.
  /// Exact sweep over t_max slabs; O(n² log n), fine for archive sizes.
  double hypervolume(double ref_w_pump, double ref_delta_t,
                     double ref_t_max) const;

  /// One JSON object per point, canonical order — the snapshot format.
  /// Doubles are printed with %.17g, so strtod reads them back exactly.
  std::string to_jsonl() const;

  /// Write to_jsonl() to `path` (overwrites). Throws RuntimeError on I/O
  /// failure.
  void save_jsonl(const std::string& path) const;

 private:
  std::vector<ParetoPoint> points_;
  std::uint64_t attempts_ = 0;
  std::uint64_t inserted_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t dominated_ = 0;
  std::uint64_t pruned_ = 0;
};

}  // namespace lcn
