// One-time assembly plans for the thermal simulators (DESIGN.md §S18).
//
// For a fixed (problem, network, m) every Thermal2RM/Thermal4RM assembly has
// the same sparsity pattern and the same conduction values — only the
// advection entries, the inlet enthalpy terms and the outlet bookkeeping
// scale with P_sys (the flow problem is linear, so the unit-pressure flow
// field times P_sys is the flow field at P_sys). A ThermalAssemblyPlan
// captures the traversal once: the symbolic pattern (via SparsityPlan), the
// constant values, and for every flow-dependent slot the unit flow plus the
// exact arithmetic form the traversal used. assemble(p_sys) is then a pure
// numeric refill.
//
// Bit-identity contract: ThermalAssemblyPlan::assemble(p) reproduces the
// fresh-traversal AssembledThermal bit-for-bit. Slots are recorded in the
// traversal's emission order, values are recomputed with the identical
// expression shapes (e.g. `cv * (unit * p) / 2.0`, never a pre-multiplied
// coefficient — FP multiplication is not associative), and RHS contributions
// are replayed as the original ordered sequence of `+=` operations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sparse/sparsity_plan.hpp"
#include "thermal/boundary.hpp"
#include "thermal/field.hpp"

namespace lcn {

class ThermalAssemblyPlan {
 public:
  /// How a matrix slot's value is produced at refill time.
  enum class SlotForm : std::uint8_t {
    kConst = 0,  ///< value, independent of P_sys
    kHalf,       ///< cv * (unit * P) / 2.0   (advection, row i)
    kHalfNeg,    ///< -cv * (unit * P) / 2.0  (advection, row j)
    kFull,       ///< cv * (unit * P)         (outlet self-term)
  };

  /// One ordered RHS contribution: a constant addend (ambient), a die-power
  /// addend (scalable per source layer by a BoundaryState), or an inlet
  /// enthalpy term rhs[node] += cv·(unit·P)·T_in.
  struct RhsOp {
    std::size_t node;
    double value;  ///< constant addend, or unit flow when is_flow
    bool is_flow;
    /// Source layer of a power addend (BoundaryState::power_scale index);
    /// -1 for boundary-invariant constants (ambient) and for flow ops.
    int layer;
  };

  /// Recording buffer for one plan build. The model traversal fills a
  /// single Emitter in emission order and hands it to finalize().
  struct Emitter {
    std::vector<sparse::Triplet> pattern;  ///< values unused (placeholders)
    std::vector<double> slot_value;
    std::vector<SlotForm> slot_form;
    std::vector<RhsOp> rhs_ops;
    std::vector<std::pair<std::size_t, double>> outlet_units;
    std::vector<double> inflow_units;

    /// P_sys-invariant matrix entry. Zero values are dropped, so they never
    /// enter the pattern.
    void add_const(std::size_t i, std::size_t j, double v) {
      if (v == 0.0) return;
      pattern.push_back({i, j, 0.0});
      slot_value.push_back(v);
      slot_form.push_back(SlotForm::kConst);
    }
    /// Flow-dependent matrix entry; `unit` is the unit-pressure flow and
    /// `form` the expression the fresh traversal evaluates.
    void add_flow(std::size_t i, std::size_t j, double unit, SlotForm form) {
      pattern.push_back({i, j, 0.0});
      slot_value.push_back(unit);
      slot_form.push_back(form);
    }
    void add_rhs_const(std::size_t node, double v) {
      rhs_ops.push_back({node, v, false, -1});
    }
    /// Die-power addend, tagged with its source layer so a BoundaryState can
    /// scale it at refill time. Nominal assembly adds the value verbatim.
    void add_rhs_power(std::size_t node, double v, int source_layer) {
      rhs_ops.push_back({node, v, false, source_layer});
    }
    void add_rhs_flow(std::size_t node, double unit) {
      rhs_ops.push_back({node, unit, true, -1});
    }
    void add_outlet(std::size_t node, double unit) {
      outlet_units.emplace_back(node, unit);
    }
    void add_inflow(double unit) { inflow_units.push_back(unit); }
  };

  // P_sys-invariant skeleton, copied into every assembled system.
  std::size_t n = 0;
  int map_rows = 0;
  int map_cols = 0;
  double volumetric_heat = 0.0;  ///< coolant C_v
  double inlet_temperature = 0.0;
  sparse::Vector capacitance;
  std::vector<std::vector<std::size_t>> source_nodes;

  /// Take over the traversal's recording and run the symbolic analysis.
  /// Called once by the owning model after its traversal; `span_name` (a
  /// literal) names the span of every assemble().
  void finalize(std::size_t nodes, Emitter em, const char* span_name);

  /// Numeric refill: bit-identical to a fresh traversal at `p_sys`. Each
  /// call is one span whose clock reads also bill `assembly_micros`.
  AssembledThermal assemble(double p_sys) const;

  /// Refill under a per-step boundary: inlet enthalpy terms use
  /// `boundary.inlet_temperature` and power addends are scaled per source
  /// layer. With the plan's nominal inlet and no power scales this is
  /// bit-identical to assemble(p_sys) (scaling by an exact 1.0 is exact).
  AssembledThermal assemble(double p_sys, const BoundaryState& boundary) const;

  /// Rewrite only `io.rhs` and `io.inlet_temperature` for a new boundary —
  /// the matrix, outlet terms and inlet flow depend on P_sys alone, so a
  /// step that changes power or inlet temperature but not pressure skips
  /// the matrix refill entirely. `io` must have been assembled from this
  /// plan at the same `p_sys`.
  void refill_rhs(double p_sys, const BoundaryState& boundary,
                  AssembledThermal& io) const;

  /// The nominal per-step boundary (the problem's fixed inlet, unit power).
  BoundaryState nominal_boundary() const {
    return BoundaryState{inlet_temperature, {}};
  }

  const sparse::SparsityPlan& pattern() const { return pattern_; }

 private:
  /// Replay the ordered RHS `+=` sequence under a boundary into `rhs`.
  void replay_rhs(double p_sys, const BoundaryState& boundary,
                  sparse::Vector& rhs) const;

  std::vector<double> slot_value_;
  std::vector<SlotForm> slot_form_;
  std::vector<RhsOp> rhs_ops_;
  std::vector<std::pair<std::size_t, double>> outlet_units_;
  std::vector<double> inflow_units_;
  sparse::SparsityPlan pattern_;
  const char* span_name_ = nullptr;
};

}  // namespace lcn
