// Symbolic half of the flow-matrix assembly (DESIGN.md §S18).
//
// The sparsity pattern of the pressure system G·P = Q_in depends only on the
// network geometry: which cells are liquid, which pairs neighbor each other,
// and where the ports sit. Reliability sweeps solve the same network dozens
// of times with different per-cell conductance scales; optimization probes
// re-solve identical networks after cache misses. FlowPlan captures the
// symbolic work (liquid indexing, port-reachability check, COO→CSR analysis)
// once per distinct network, so each subsequent solve is a numeric refill.
//
// Plans are held in one process-wide cache keyed by
// CoolingNetwork::content_hash() and verified against a stored copy of the
// network with operator== — a hash collision degrades to a rebuild, never to
// a wrong plan. Concurrent service sessions (DESIGN.md §S22) share it.
//
// Bit-identity contract: every solve refills the plan, and a refill equals
// the plan's first assembly (see SparsityPlan's contract). The pattern never
// depends on values: a conductance that underflows to exactly 0.0 stays in
// the matrix as an explicit zero.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "network/cooling_network.hpp"
#include "sparse/sparsity_plan.hpp"

namespace lcn {

struct FlowPlan {
  /// One matrix-entry emission of the traversal, in emission order.
  /// Pair slots carry the two grid cell ids whose harmonic-mean conductance
  /// feeds the entry; port slots carry the port's cell id twice.
  enum class SlotKind : std::uint8_t {
    kPair,     ///< +g(cell_a, cell_b)
    kPairNeg,  ///< -g(cell_a, cell_b)
    kPort,     ///< +g_edge · scale(cell_a)
  };
  struct Slot {
    std::size_t cell_a = 0;
    std::size_t cell_b = 0;
    SlotKind kind = SlotKind::kPair;
  };
  /// One inlet right-hand-side contribution, in port order.
  struct InletOp {
    std::size_t node = 0;  ///< dense liquid index
    std::size_t cell = 0;  ///< grid linear id of the port's cell
  };

  std::size_t n = 0;  ///< liquid cell count
  std::vector<std::size_t> liquid_cells;
  std::vector<std::int32_t> liquid_index;
  std::vector<Slot> slots;
  std::vector<InletOp> inlet_ops;
  sparse::SparsityPlan pattern;

  /// Symbolic analysis of one network. Throws lcn::RuntimeError when the
  /// network has no liquid cells or a liquid component with no port
  /// (singular pressure system).
  static std::shared_ptr<const FlowPlan> analyze(const CoolingNetwork& net);
};

/// Look up (or build and cache) the plan for `net` in the process-wide
/// cache. Bumps the flow_plan_hits / flow_plan_misses instrument counters.
/// Failed analyses (degenerate networks) are not cached and rethrow on every
/// call.
std::shared_ptr<const FlowPlan> flow_plan_for(const CoolingNetwork& net);

/// Drop every cached plan (test hook; also useful to bound memory in
/// long-running processes that churn through many distinct networks). Safe
/// under concurrent readers: in-flight solves holding a plan shared_ptr are
/// unaffected, and subsequent lookups rebuild.
void flow_plan_cache_clear();

}  // namespace lcn
