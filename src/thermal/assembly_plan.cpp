#include "thermal/assembly_plan.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "common/trace.hpp"

namespace lcn {

void ThermalAssemblyPlan::finalize(std::size_t nodes, Emitter em,
                                   const char* span_name) {
  n = nodes;
  span_name_ = span_name;
  slot_value_ = std::move(em.slot_value);
  slot_form_ = std::move(em.slot_form);
  rhs_ops_ = std::move(em.rhs_ops);
  outlet_units_ = std::move(em.outlet_units);
  inflow_units_ = std::move(em.inflow_units);
  pattern_ = sparse::SparsityPlan::analyze(n, n, em.pattern);
}

void ThermalAssemblyPlan::replay_rhs(double p_sys,
                                     const BoundaryState& boundary,
                                     sparse::Vector& rhs) const {
  LCN_REQUIRE(boundary.power_scale.empty() ||
                  boundary.power_scale.size() == source_nodes.size(),
              "boundary power scale must cover every source layer");
  const double cv = volumetric_heat;
  const bool scaled = !boundary.power_scale.empty();
  rhs.assign(n, 0.0);
  // Replay the ordered RHS contributions (same `+=` sequence as a fresh
  // traversal). The nominal path adds power values verbatim — no `* 1.0`
  // detour — so it stays bit-identical to the historical assembly.
  for (const RhsOp& op : rhs_ops_) {
    if (op.is_flow) {
      const double q = op.value * p_sys;
      rhs[op.node] += cv * q * boundary.inlet_temperature;
    } else if (scaled && op.layer >= 0) {
      rhs[op.node] +=
          op.value * boundary.power_scale[static_cast<std::size_t>(op.layer)];
    } else {
      rhs[op.node] += op.value;
    }
  }
}

AssembledThermal ThermalAssemblyPlan::assemble(double p_sys) const {
  return assemble(p_sys, nominal_boundary());
}

AssembledThermal ThermalAssemblyPlan::assemble(
    double p_sys, const BoundaryState& boundary) const {
  LCN_REQUIRE(p_sys > 0.0, "P_sys must be positive");
  const trace::Span span(span_name_, trace::kFine, trace::kNoHist,
                         instrument::Counter::assembly_micros);
  const double cv = volumetric_heat;

  AssembledThermal out;
  out.capacitance = capacitance;
  out.map_rows = map_rows;
  out.map_cols = map_cols;
  out.volumetric_heat = volumetric_heat;
  out.inlet_temperature = boundary.inlet_temperature;
  out.source_nodes = source_nodes;

  replay_rhs(p_sys, boundary, out.rhs);

  out.outlet_terms.reserve(outlet_units_.size());
  for (const auto& [node, unit] : outlet_units_) {
    out.outlet_terms.emplace_back(node, unit * p_sys);
  }
  for (double unit : inflow_units_) out.inlet_flow_total += unit * p_sys;

  // Numeric matrix refill on the cached pattern. The expression per form
  // matches the fresh traversal's arithmetic shape exactly.
  out.matrix = pattern_.refill_matrix([&](std::size_t s) -> double {
    const double v = slot_value_[s];
    switch (slot_form_[s]) {
      case SlotForm::kConst:
        return v;
      case SlotForm::kHalf:
        return cv * (v * p_sys) / 2.0;
      case SlotForm::kHalfNeg:
        return -cv * (v * p_sys) / 2.0;
      case SlotForm::kFull:
        return cv * (v * p_sys);
    }
    return 0.0;  // unreachable
  });

  instrument::add(instrument::Counter::assemblies_refill);
  instrument::add(instrument::Counter::assemblies);
  return out;
}

void ThermalAssemblyPlan::refill_rhs(double p_sys,
                                     const BoundaryState& boundary,
                                     AssembledThermal& io) const {
  LCN_REQUIRE(p_sys > 0.0, "P_sys must be positive");
  LCN_REQUIRE(io.matrix.rows() == n, "refill_rhs: system/plan size mismatch");
  replay_rhs(p_sys, boundary, io.rhs);
  io.inlet_temperature = boundary.inlet_temperature;
  instrument::add(instrument::Counter::rhs_refills);
}

}  // namespace lcn
