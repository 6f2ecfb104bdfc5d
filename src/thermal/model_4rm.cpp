#include "thermal/model_4rm.hpp"

#include "common/assert.hpp"

namespace lcn {

namespace {

/// Series combination g1 || g2 = g1·g2/(g1+g2) (paper Eq. 5/7 notation).
double series(double g1, double g2) {
  LCN_ASSERT(g1 >= 0.0 && g2 >= 0.0, "conductances must be non-negative");
  if (g1 <= 0.0 || g2 <= 0.0) return 0.0;
  return g1 * g2 / (g1 + g2);
}

}  // namespace

Thermal4RM::Thermal4RM(CoolingProblem problem,
                       std::vector<CoolingNetwork> networks)
    : problem_(std::move(problem)), networks_(std::move(networks)) {
  problem_.validate();
  LCN_REQUIRE(static_cast<int>(networks_.size()) ==
                  problem_.stack.channel_count(),
              "one cooling network per channel layer required");
  for (const CoolingNetwork& net : networks_) {
    LCN_REQUIRE(net.grid() == problem_.grid,
                "network grid must match the problem grid");
  }
  for (int layer : problem_.stack.channel_layers()) {
    const int ch = problem_.stack.layer(layer).channel_index;
    const FlowSolver solver(networks_[static_cast<std::size_t>(ch)],
                            problem_.channel_geometry(layer),
                            problem_.coolant, problem_.flow_options);
    flows_.push_back(solver.solve(1.0));
  }
}

std::size_t Thermal4RM::node_count() const {
  return static_cast<std::size_t>(problem_.stack.layer_count()) *
         problem_.grid.cell_count();
}

std::size_t Thermal4RM::node(int layer, int row, int col) const {
  LCN_REQUIRE(layer >= 0 && layer < problem_.stack.layer_count(),
              "layer out of range");
  return static_cast<std::size_t>(layer) * problem_.grid.cell_count() +
         problem_.grid.index(row, col);
}

double Thermal4RM::system_flow(double p_sys) const {
  double q = 0.0;
  for (const FlowSolution& flow : flows_) q += flow.system_flow * p_sys;
  return q;
}

double Thermal4RM::pumping_power(double p_sys) const {
  return p_sys * system_flow(p_sys);
}

const ThermalAssemblyPlan& Thermal4RM::plan() const {
  std::lock_guard<std::mutex> lock(*plan_mutex_);
  if (!plan_) plan_ = build_plan();
  return *plan_;
}

std::shared_ptr<const ThermalAssemblyPlan> Thermal4RM::build_plan() const {
  const Grid2D& grid = problem_.grid;
  const Stack& stack = problem_.stack;
  const std::size_t ncells = grid.cell_count();
  const int layer_count = stack.layer_count();
  const std::size_t n = node_count();
  const double pitch = grid.pitch();
  const double cell_area = pitch * pitch;

  auto plan = std::make_shared<ThermalAssemblyPlan>();
  plan->capacitance.assign(n, 0.0);
  plan->map_rows = grid.rows();
  plan->map_cols = grid.cols();
  plan->volumetric_heat = problem_.coolant.volumetric_heat;
  plan->inlet_temperature = problem_.inlet_temperature;

  // Per-layer context, read by the layer itself and by the layer below.
  struct LayerCtx {
    const Layer* layer = nullptr;
    const CoolingNetwork* net = nullptr;
    const FlowSolution* flow = nullptr;
    bool is_channel = false;
    double h_conv = 0.0;
    double k = 0.0;       // conductivity
    double t = 0.0;       // thickness
    double side_area = 0.0;  // face between in-plane neighbors
  };
  std::vector<LayerCtx> ctx(static_cast<std::size_t>(layer_count));
  for (int l = 0; l < layer_count; ++l) {
    LayerCtx& lc = ctx[static_cast<std::size_t>(l)];
    lc.layer = &stack.layer(l);
    lc.is_channel = lc.layer->kind == LayerKind::kChannel;
    if (lc.is_channel) {
      lc.net = &networks_[static_cast<std::size_t>(lc.layer->channel_index)];
      lc.flow = &flows_[static_cast<std::size_t>(lc.layer->channel_index)];
      lc.h_conv = convective_coefficient(problem_.channel_geometry(l),
                                         problem_.coolant);
    }
    lc.k = lc.layer->material.conductivity;
    lc.t = lc.layer->thickness;
    lc.side_area = pitch * lc.t;
  }

  // One pass, layer by layer: the layer's per-cell conduction rows, then
  // its advection, ports, power injection and ambient sink. Refills replay
  // exactly this emission order. Flow slots are guarded on unit-pressure
  // quantities only, so the recorded pattern is valid for every P_sys > 0.
  ThermalAssemblyPlan::Emitter em;
  auto add_pair = [&em](std::size_t i, std::size_t j, double g) {
    if (g <= 0.0) return;
    em.add_const(i, i, g);
    em.add_const(j, j, g);
    em.add_const(i, j, -g);
    em.add_const(j, i, -g);
  };

  for (int l = 0; l < layer_count; ++l) {
    const LayerCtx& lc = ctx[static_cast<std::size_t>(l)];
    for (int r = 0; r < grid.rows(); ++r) {
      for (int c = 0; c < grid.cols(); ++c) {
        const std::size_t i = node(l, r, c);
        const bool i_liquid = lc.is_channel && lc.net->is_liquid(r, c);

        // Heat capacity.
        plan->capacitance[i] =
            cell_area * lc.t *
            (i_liquid ? problem_.coolant.volumetric_heat
                      : lc.layer->material.volumetric_heat);

        // In-plane coupling with east and south neighbors (each pair once).
        const int nbr[2][2] = {{r, c + 1}, {r + 1, c}};
        for (const auto& nb : nbr) {
          if (!grid.in_bounds(nb[0], nb[1])) continue;
          const std::size_t j = node(l, nb[0], nb[1]);
          const bool j_liquid =
              lc.is_channel && lc.net->is_liquid(nb[0], nb[1]);
          if (!i_liquid && !j_liquid) {
            // solid–solid conduction (Eq. 4): g = k·A/l.
            add_pair(i, j, lc.k * lc.side_area / pitch);
          } else if (i_liquid != j_liquid) {
            // solid–liquid through a side wall (Eq. 5): film conductance in
            // series with half-cell conduction in the solid.
            const double g_conv = lc.h_conv * lc.side_area;
            const double g_cond = lc.k * lc.side_area / (pitch / 2.0);
            add_pair(i, j, series(g_conv, g_cond));
          }
          // liquid–liquid: advection only, emitted with the layer tail.
        }

        // Vertical coupling with the layer above.
        if (l + 1 < layer_count) {
          const LayerCtx& above = ctx[static_cast<std::size_t>(l + 1)];
          const std::size_t j = node(l + 1, r, c);
          const bool j_liquid =
              above.is_channel && above.net->is_liquid(r, c);
          LCN_ASSERT(!(i_liquid && j_liquid),
                     "adjacent channel layers are rejected by the stack");

          const double g_i = i_liquid ? lc.h_conv * cell_area
                                      : lc.k * cell_area / (lc.t / 2.0);
          const double g_j = j_liquid
                                 ? above.h_conv * cell_area
                                 : above.k * cell_area / (above.t / 2.0);
          add_pair(i, j, series(g_i, g_j));
        }
      }
    }

    using Form = ThermalAssemblyPlan::SlotForm;

    // Liquid–liquid advection (Eq. 6, central differencing) and ports.
    if (lc.is_channel) {
      for (std::size_t li = 0; li < lc.flow->liquid_cells.size(); ++li) {
        const CellCoord cc = grid.coord(lc.flow->liquid_cells[li]);
        const std::size_t i = node(l, cc.row, cc.col);
        // East/south directed flows cover each liquid pair exactly once.
        const double unit_pair[2] = {lc.flow->q_east[li],
                                     lc.flow->q_south[li]};
        const int nbr[2][2] = {{cc.row, cc.col + 1}, {cc.row + 1, cc.col}};
        for (int d = 0; d < 2; ++d) {
          const double unit = unit_pair[d];  // signed unit flow i -> j
          if (unit == 0.0) continue;
          const std::size_t j = node(l, nbr[d][0], nbr[d][1]);
          // Energy balance row i: -C_v·F_ji·(T_i+T_j)/2 with F_ji = -q.
          em.add_flow(i, i, unit, Form::kHalf);
          em.add_flow(i, j, unit, Form::kHalf);
          // Row j: F_ij = +q.
          em.add_flow(j, j, unit, Form::kHalfNeg);
          em.add_flow(j, i, unit, Form::kHalfNeg);
        }
      }
      for (std::size_t p = 0; p < lc.net->ports().size(); ++p) {
        const Port& port = lc.net->ports()[p];
        const std::size_t i = node(l, port.row, port.col);
        const double unit = lc.flow->port_flow[p];
        if (port.kind == PortKind::kInlet) {
          // Inlet face temperature is fixed at T_in: the advected enthalpy
          // C_v·Q·T_in is a constant heat inflow.
          em.add_rhs_flow(i, unit);
          em.add_inflow(unit);
        } else {
          // Outlet face leaves at the cell temperature T_i (paper §2.2):
          // -C_v·(-Q)·T_i = +C_v·Q·T_i on the left-hand side. A fresh
          // traversal drops the zero matrix entry of a flowless outlet but
          // still records the outlet term — mirror both.
          if (unit != 0.0) em.add_flow(i, i, unit, Form::kFull);
          em.add_outlet(i, unit);
        }
      }
    }

    // Power injection in source layers.
    if (lc.layer->kind == LayerKind::kSource) {
      const PowerMap& map = problem_.source_power[static_cast<std::size_t>(
          lc.layer->source_index)];
      for (int r = 0; r < grid.rows(); ++r) {
        for (int c = 0; c < grid.cols(); ++c) {
          em.add_rhs_power(node(l, r, c), map.at(r, c),
                           lc.layer->source_index);
        }
      }
    }

    // Ambient sink on the top surface.
    if (l == layer_count - 1 && problem_.ambient_conductance > 0.0) {
      for (int r = 0; r < grid.rows(); ++r) {
        for (int c = 0; c < grid.cols(); ++c) {
          const std::size_t i = node(l, r, c);
          const double g = problem_.ambient_conductance * cell_area;
          em.add_const(i, i, g);
          em.add_rhs_const(i, g * problem_.ambient_temperature);
        }
      }
    }
  }

  // Source-node maps (row-major cell order).
  for (int l = 0; l < layer_count; ++l) {
    if (stack.layer(l).kind != LayerKind::kSource) continue;
    std::vector<std::size_t> nodes;
    nodes.reserve(ncells);
    for (std::size_t cell = 0; cell < ncells; ++cell) {
      nodes.push_back(static_cast<std::size_t>(l) * ncells + cell);
    }
    plan->source_nodes.push_back(std::move(nodes));
  }

  plan->finalize(n, std::move(em), "assemble_4rm");
  return plan;
}

ThermalField Thermal4RM::simulate(double p_sys) const {
  return solve_steady(assemble(p_sys));
}

}  // namespace lcn
