#include "flow/flow_solver.hpp"

#include "common/assert.hpp"
#include "common/trace.hpp"
#include "flow/flow_plan.hpp"
#include "sparse/solvers.hpp"

namespace lcn {

double FlowSolution::system_resistance() const {
  LCN_REQUIRE(system_flow > 0.0, "system flow must be positive");
  return p_ref / system_flow;
}

double FlowSolution::pumping_power(double p_sys) const {
  LCN_REQUIRE(p_sys >= 0.0, "pressure drop must be non-negative");
  return p_sys * p_sys / system_resistance();
}

double FlowSolution::flow_toward(const Grid2D& grid, int row, int col,
                                 Side side) const {
  const std::int32_t idx = liquid_index[grid.index(row, col)];
  LCN_REQUIRE(idx >= 0, "flow_toward: cell is not liquid");
  const auto i = static_cast<std::size_t>(idx);
  switch (side) {
    case Side::kEast:
      return q_east[i];
    case Side::kSouth:
      return q_south[i];
    case Side::kWest: {
      if (col == 0) return 0.0;
      const std::int32_t w = liquid_index[grid.index(row, col - 1)];
      return w >= 0 ? -q_east[static_cast<std::size_t>(w)] : 0.0;
    }
    case Side::kNorth: {
      if (row == 0) return 0.0;
      const std::int32_t n = liquid_index[grid.index(row - 1, col)];
      return n >= 0 ? -q_south[static_cast<std::size_t>(n)] : 0.0;
    }
  }
  return 0.0;
}

FlowSolver::FlowSolver(const CoolingNetwork& net,
                       const ChannelGeometry& channel,
                       const CoolantProperties& coolant,
                       const FlowOptions& options)
    : net_(net), channel_(channel), coolant_(coolant), options_(options) {
  LCN_REQUIRE(options.edge_conductance_factor > 0.0,
              "edge conductance factor must be positive");
  if (!options.cell_conductance_scale.empty()) {
    LCN_REQUIRE(options.cell_conductance_scale.size() ==
                    net.grid().cell_count(),
                "cell conductance scale must cover every grid cell");
    for (const double s : options.cell_conductance_scale) {
      LCN_REQUIRE(s > 0.0, "cell conductance scale factors must be positive");
    }
  }
}

FlowSolution FlowSolver::solve(double p_sys) const {
  const trace::Span span("flow_solve", trace::kFine);
  LCN_REQUIRE(p_sys > 0.0, "system pressure drop must be positive");
  const Grid2D& grid = net_.grid();

  // Symbolic work (liquid indexing, port-reachability check, COO→CSR
  // analysis) comes from the process-wide plan cache; degenerate networks
  // throw from analyze() with the historical messages.
  const std::shared_ptr<const FlowPlan> plan = flow_plan_for(net_);
  const std::size_t n = plan->n;

  FlowSolution sol;
  sol.p_ref = p_sys;
  sol.liquid_cells = plan->liquid_cells;
  sol.liquid_index = plan->liquid_index;

  const double g_bulk = fluid_conductance(channel_, coolant_, grid.pitch());
  const double g_edge = g_bulk * options_.edge_conductance_factor;

  // Per-cell clogging factors (reliability fault injection): the conductance
  // of a cell pair is the harmonic mean of the two cell factors — two
  // constricted half-segments in series — and a port scales by its cell's
  // factor. An empty vector keeps the nominal arithmetic bit-identical.
  const std::vector<double>& scale = options_.cell_conductance_scale;
  auto cell_scale = [&scale](std::size_t cell) {
    return scale.empty() ? 1.0 : scale[cell];
  };
  auto pair_conductance = [&](std::size_t cell_i, std::size_t cell_j) {
    if (scale.empty()) return g_bulk;
    const double si = scale[cell_i];
    const double sj = scale[cell_j];
    return g_bulk * (2.0 * si * sj / (si + sj));
  };

  // Numeric refill on the cached pattern: one pair_conductance() per slot
  // with a sign flip for off-diagonals. A conductance that underflows to
  // exactly 0.0 stays an explicit zero, so the pattern never changes; the
  // IC(0) pivot check then rejects the singular system.
  std::vector<double> slot_value(plan->slots.size());
  for (std::size_t s = 0; s < plan->slots.size(); ++s) {
    const FlowPlan::Slot& slot = plan->slots[s];
    switch (slot.kind) {
      case FlowPlan::SlotKind::kPair:
        slot_value[s] = pair_conductance(slot.cell_a, slot.cell_b);
        break;
      case FlowPlan::SlotKind::kPairNeg:
        slot_value[s] = -pair_conductance(slot.cell_a, slot.cell_b);
        break;
      case FlowPlan::SlotKind::kPort:
        slot_value[s] = g_edge * cell_scale(slot.cell_a);
        break;
    }
  }
  const sparse::CsrMatrix matrix = plan->pattern.refill_matrix(
      [&](std::size_t s) { return slot_value[s]; });
  sparse::Vector rhs(n, 0.0);
  for (const FlowPlan::InletOp& op : plan->inlet_ops) {
    rhs[op.node] += g_edge * cell_scale(op.cell) * p_sys;
  }
  sol.pressure.assign(n, 0.0);
  sparse::SolveOptions opts;
  opts.rel_tolerance = options_.rel_tolerance;
  sparse::solve_spd_or_throw(matrix, rhs, sol.pressure, "flow pressure solve",
                             opts);

  // Local flow rates (Eq. 1), with the same per-edge conductances as the
  // pressure system so conservation holds under clogging faults.
  sol.q_east.assign(n, 0.0);
  sol.q_south.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const CellCoord cc = grid.coord(sol.liquid_cells[i]);
    if (grid.in_bounds(cc.row, cc.col + 1)) {
      const std::int32_t j = sol.liquid_index[grid.index(cc.row, cc.col + 1)];
      if (j >= 0) {
        const auto sj = static_cast<std::size_t>(j);
        sol.q_east[i] =
            pair_conductance(sol.liquid_cells[i], sol.liquid_cells[sj]) *
            (sol.pressure[i] - sol.pressure[sj]);
      }
    }
    if (grid.in_bounds(cc.row + 1, cc.col)) {
      const std::int32_t j = sol.liquid_index[grid.index(cc.row + 1, cc.col)];
      if (j >= 0) {
        const auto sj = static_cast<std::size_t>(j);
        sol.q_south[i] =
            pair_conductance(sol.liquid_cells[i], sol.liquid_cells[sj]) *
            (sol.pressure[i] - sol.pressure[sj]);
      }
    }
  }

  sol.port_flow.resize(net_.ports().size());
  double inflow = 0.0;
  double outflow = 0.0;
  for (std::size_t p = 0; p < net_.ports().size(); ++p) {
    const Port& port = net_.ports()[p];
    const std::int32_t idx = sol.liquid_index[grid.index(port.row, port.col)];
    const double cell_pressure = sol.pressure[static_cast<std::size_t>(idx)];
    const double g = g_edge * cell_scale(grid.index(port.row, port.col));
    if (port.kind == PortKind::kInlet) {
      sol.port_flow[p] = g * (p_sys - cell_pressure);
      inflow += sol.port_flow[p];
    } else {
      sol.port_flow[p] = g * cell_pressure;
      outflow += sol.port_flow[p];
    }
  }
  // A network whose inlets were all lost (e.g. blocked by an injected fault)
  // solves to a zero field; that is a degenerate input, not a library bug.
  if (!(inflow > 0.0)) {
    throw RuntimeError("flow solve: no inflow at any inlet (pump decoupled)");
  }
  sol.system_flow = 0.5 * (inflow + outflow);  // equal up to solver residual
  return sol;
}

FlowSolution solve_unit_flow(const CoolingNetwork& net,
                             const ChannelGeometry& channel,
                             const CoolantProperties& coolant,
                             const FlowOptions& options) {
  return FlowSolver(net, channel, coolant, options).solve(1.0);
}

}  // namespace lcn
