#include "thermal/model_2rm.hpp"

#include "common/assert.hpp"
#include "flow/flow_solver.hpp"

namespace lcn {

namespace {

double series(double g1, double g2) {
  if (g1 <= 0.0 || g2 <= 0.0) return 0.0;
  return g1 * g2 / (g1 + g2);
}

constexpr int kWestLane = 0;
constexpr int kEastLane = 1;
constexpr int kNorthLane = 2;
constexpr int kSouthLane = 3;

}  // namespace

Thermal2RM::Thermal2RM(CoolingProblem problem,
                       std::vector<CoolingNetwork> networks, int m)
    : problem_(std::move(problem)), networks_(std::move(networks)), m_(m) {
  problem_.validate();
  LCN_REQUIRE(m >= 1, "thermal cell size must be >= 1");
  LCN_REQUIRE(static_cast<int>(networks_.size()) ==
                  problem_.stack.channel_count(),
              "one cooling network per channel layer required");
  for (const CoolingNetwork& net : networks_) {
    LCN_REQUIRE(net.grid() == problem_.grid,
                "network grid must match the problem grid");
  }
  block_rows_ = (problem_.grid.rows() + m_ - 1) / m_;
  block_cols_ = (problem_.grid.cols() + m_ - 1) / m_;

  for (int layer : problem_.stack.channel_layers()) {
    const int ch = problem_.stack.layer(layer).channel_index;
    const FlowSolver solver(networks_[static_cast<std::size_t>(ch)],
                            problem_.channel_geometry(layer),
                            problem_.coolant, problem_.flow_options);
    flows_.push_back(solver.solve(1.0));
  }
  build_block_stats();
  build_nodes();
}

CellRect Thermal2RM::block_rect(int block_row, int block_col) const {
  CellRect rect;
  rect.row0 = block_row * m_;
  rect.col0 = block_col * m_;
  rect.row1 = std::min(rect.row0 + m_ - 1, problem_.grid.rows() - 1);
  rect.col1 = std::min(rect.col0 + m_ - 1, problem_.grid.cols() - 1);
  return rect;
}

void Thermal2RM::build_block_stats() {
  const Grid2D& grid = problem_.grid;
  const std::size_t nblocks =
      static_cast<std::size_t>(block_rows_) * block_cols_;

  stats_.assign(networks_.size(), {});
  for (std::size_t ch = 0; ch < networks_.size(); ++ch) {
    const CoolingNetwork& net = networks_[ch];
    const FlowSolution& flow = flows_[ch];
    const int layer = problem_.stack.channel_layers()[static_cast<int>(ch)];
    const double h_c = problem_.stack.layer(layer).thickness;
    auto& stats = stats_[ch];
    stats.assign(nblocks, {});

    for (int br = 0; br < block_rows_; ++br) {
      for (int bc = 0; bc < block_cols_; ++bc) {
        BlockStats& s = stats[block_index(br, bc)];
        const CellRect rect = block_rect(br, bc);

        for (int r = rect.row0; r <= rect.row1; ++r) {
          for (int c = rect.col0; c <= rect.col1; ++c) {
            if (net.is_liquid(r, c)) {
              ++s.liquid_cells;
              // Side-wall area: each lateral face whose neighbor is solid
              // (or the chip boundary) is a channel wall.
              const int dr[] = {1, -1, 0, 0};
              const int dc[] = {0, 0, 1, -1};
              for (int k = 0; k < 4; ++k) {
                const int nr = r + dr[k];
                const int nc = c + dc[k];
                if (!grid.in_bounds(nr, nc) || !net.is_liquid(nr, nc)) {
                  s.side_area += grid.pitch() * h_c;
                }
              }
            } else {
              ++s.solid_cells;
            }
          }
        }

        // Complete conducting lanes (Eq. 7): a lane toward an interface
        // conducts only if every cell between the block center and that
        // interface is solid.
        const int half_cols = (rect.cols() + 1) / 2;
        const int half_rows = (rect.rows() + 1) / 2;
        for (int r = rect.row0; r <= rect.row1; ++r) {
          bool west_ok = true;
          bool east_ok = true;
          for (int c = rect.col0; c < rect.col0 + half_cols; ++c) {
            if (net.is_liquid(r, c)) west_ok = false;
          }
          for (int c = rect.col1 - half_cols + 1; c <= rect.col1; ++c) {
            if (net.is_liquid(r, c)) east_ok = false;
          }
          if (west_ok) ++s.lanes[kWestLane];
          if (east_ok) ++s.lanes[kEastLane];
        }
        for (int c = rect.col0; c <= rect.col1; ++c) {
          bool north_ok = true;
          bool south_ok = true;
          for (int r = rect.row0; r < rect.row0 + half_rows; ++r) {
            if (net.is_liquid(r, c)) north_ok = false;
          }
          for (int r = rect.row1 - half_rows + 1; r <= rect.row1; ++r) {
            if (net.is_liquid(r, c)) south_ok = false;
          }
          if (north_ok) ++s.lanes[kNorthLane];
          if (south_ok) ++s.lanes[kSouthLane];
        }

        // Net inter-block flow across the east and south interfaces.
        if (rect.col1 + 1 < grid.cols()) {
          for (int r = rect.row0; r <= rect.row1; ++r) {
            if (!net.is_liquid(r, rect.col1)) continue;
            const std::int32_t li = flow.liquid_index[grid.index(r, rect.col1)];
            s.unit_flow_east += flow.q_east[static_cast<std::size_t>(li)];
          }
        }
        if (rect.row1 + 1 < grid.rows()) {
          for (int c = rect.col0; c <= rect.col1; ++c) {
            if (!net.is_liquid(rect.row1, c)) continue;
            const std::int32_t li = flow.liquid_index[grid.index(rect.row1, c)];
            s.unit_flow_south += flow.q_south[static_cast<std::size_t>(li)];
          }
        }
      }
    }

    // Port flows aggregated per block.
    for (std::size_t p = 0; p < net.ports().size(); ++p) {
      const Port& port = net.ports()[p];
      const std::size_t b = block_index(port.row / m_, port.col / m_);
      if (port.kind == PortKind::kInlet) {
        stats[b].unit_inflow += flow.port_flow[p];
      } else {
        stats[b].unit_outflow += flow.port_flow[p];
      }
    }
  }
}

void Thermal2RM::build_nodes() {
  const std::size_t nblocks =
      static_cast<std::size_t>(block_rows_) * block_cols_;
  node_id_.assign(static_cast<std::size_t>(problem_.stack.layer_count()),
                  std::vector<std::ptrdiff_t>(nblocks * 2, -1));
  std::size_t next = 0;
  for (int l = 0; l < problem_.stack.layer_count(); ++l) {
    const Layer& layer = problem_.stack.layer(l);
    auto& ids = node_id_[static_cast<std::size_t>(l)];
    if (layer.kind != LayerKind::kChannel) {
      for (std::size_t b = 0; b < nblocks; ++b) {
        ids[b * 2] = static_cast<std::ptrdiff_t>(next++);
      }
      continue;
    }
    const auto& stats = stats_[static_cast<std::size_t>(layer.channel_index)];
    for (std::size_t b = 0; b < nblocks; ++b) {
      if (stats[b].solid_cells > 0) {
        ids[b * 2] = static_cast<std::ptrdiff_t>(next++);
      }
      if (stats[b].liquid_cells > 0) {
        ids[b * 2 + 1] = static_cast<std::ptrdiff_t>(next++);
      }
    }
  }
  node_total_ = next;
}

std::ptrdiff_t Thermal2RM::solid_node(int layer, int block_row,
                                      int block_col) const {
  return node_id_[static_cast<std::size_t>(layer)]
                 [block_index(block_row, block_col) * 2];
}

std::ptrdiff_t Thermal2RM::liquid_node(int layer, int block_row,
                                       int block_col) const {
  return node_id_[static_cast<std::size_t>(layer)]
                 [block_index(block_row, block_col) * 2 + 1];
}

double Thermal2RM::system_flow(double p_sys) const {
  double q = 0.0;
  for (const FlowSolution& flow : flows_) q += flow.system_flow * p_sys;
  return q;
}

double Thermal2RM::pumping_power(double p_sys) const {
  return p_sys * system_flow(p_sys);
}

const ThermalAssemblyPlan& Thermal2RM::plan() const {
  std::lock_guard<std::mutex> lock(*plan_mutex_);
  if (!plan_) plan_ = build_plan();
  return *plan_;
}

std::shared_ptr<const ThermalAssemblyPlan> Thermal2RM::build_plan() const {
  const Grid2D& grid = problem_.grid;
  const Stack& stack = problem_.stack;
  const double pitch = grid.pitch();
  const double cell_area = pitch * pitch;
  const std::size_t n = node_total_;

  auto plan = std::make_shared<ThermalAssemblyPlan>();
  plan->capacitance.assign(n, 0.0);
  plan->map_rows = block_rows_;
  plan->map_cols = block_cols_;
  plan->volumetric_heat = problem_.coolant.volumetric_heat;
  plan->inlet_temperature = problem_.inlet_temperature;

  // One pass over (layer, block row, block column) records every slot and
  // RHS op in emission order; the plan's refills replay exactly this order.
  ThermalAssemblyPlan::Emitter em;
  auto add_pair = [&](std::ptrdiff_t i, std::ptrdiff_t j, double g) {
    if (g <= 0.0 || i < 0 || j < 0) return;
    const auto ii = static_cast<std::size_t>(i);
    const auto jj = static_cast<std::size_t>(j);
    em.add_const(ii, ii, g);
    em.add_const(jj, jj, g);
    em.add_const(ii, jj, -g);
    em.add_const(jj, ii, -g);
  };

  for (int l = 0; l < stack.layer_count(); ++l) {
    const Layer& layer = stack.layer(l);
    const bool is_channel = layer.kind == LayerKind::kChannel;
    const std::vector<BlockStats>* stats =
        is_channel ? &stats_[static_cast<std::size_t>(layer.channel_index)]
                   : nullptr;
    const double k = layer.material.conductivity;
    const double t = layer.thickness;
    const double h_conv =
        is_channel ? convective_coefficient(problem_.channel_geometry(l),
                                            problem_.coolant)
                   : 0.0;

    for (int br = 0; br < block_rows_; ++br) {
      for (int bc = 0; bc < block_cols_; ++bc) {
        const std::size_t b = block_index(br, bc);
        const CellRect rect = block_rect(br, bc);
        const int cells = rect.rows() * rect.cols();
        const std::ptrdiff_t i_solid = solid_node(l, br, bc);
        const std::ptrdiff_t i_liquid =
            is_channel ? liquid_node(l, br, bc) : -1;
        const int nsolid = is_channel ? (*stats)[b].solid_cells : cells;
        const int nliquid = is_channel ? (*stats)[b].liquid_cells : 0;

        // Heat capacities.
        if (i_solid >= 0) {
          plan->capacitance[static_cast<std::size_t>(i_solid)] =
              nsolid * cell_area * t * layer.material.volumetric_heat;
        }
        if (i_liquid >= 0) {
          plan->capacitance[static_cast<std::size_t>(i_liquid)] =
              nliquid * cell_area * t * problem_.coolant.volumetric_heat;
        }

        // --- In-plane solid–solid to the east and south neighbor blocks
        // (Eq. 7: per-side effective conductances in series).
        const struct {
          int dbr, dbc, lane_from, lane_to;
        } dirs[2] = {{0, 1, kEastLane, kWestLane},
                     {1, 0, kSouthLane, kNorthLane}};
        for (const auto& d : dirs) {
          const int nbr = br + d.dbr;
          const int nbc = bc + d.dbc;
          if (nbr >= block_rows_ || nbc >= block_cols_) continue;
          const CellRect nrect = block_rect(nbr, nbc);
          const std::size_t nb = block_index(nbr, nbc);
          const std::ptrdiff_t j_solid = solid_node(l, nbr, nbc);

          // Conducting lanes per side (all lanes for non-channel layers).
          int lanes_i;
          int lanes_j;
          double half_i;
          double half_j;
          if (d.dbc == 1) {  // east
            lanes_i = is_channel ? (*stats)[b].lanes[d.lane_from]
                                 : rect.rows();
            lanes_j = is_channel ? (*stats)[nb].lanes[d.lane_to]
                                 : nrect.rows();
            half_i = rect.cols() * pitch / 2.0;
            half_j = nrect.cols() * pitch / 2.0;
          } else {  // south
            lanes_i = is_channel ? (*stats)[b].lanes[d.lane_from]
                                 : rect.cols();
            lanes_j = is_channel ? (*stats)[nb].lanes[d.lane_to]
                                 : nrect.cols();
            half_i = rect.rows() * pitch / 2.0;
            half_j = nrect.rows() * pitch / 2.0;
          }
          const double g_i = k * t * (lanes_i * pitch) / half_i;
          const double g_j = k * t * (lanes_j * pitch) / half_j;
          add_pair(i_solid, j_solid, series(g_i, g_j));
        }

        // --- Vertical coupling with the layer above.
        if (l + 1 < stack.layer_count()) {
          const Layer& above = stack.layer(l + 1);
          const bool above_channel = above.kind == LayerKind::kChannel;
          const std::ptrdiff_t j_solid = solid_node(l + 1, br, bc);
          const std::ptrdiff_t j_liquid =
              above_channel ? liquid_node(l + 1, br, bc) : -1;
          const auto* stats_above =
              above_channel
                  ? &stats_[static_cast<std::size_t>(above.channel_index)]
                  : nullptr;
          const int nsolid_above =
              above_channel ? (*stats_above)[b].solid_cells : cells;
          const int nliquid_above =
              above_channel ? (*stats_above)[b].liquid_cells : 0;

          // solid (this layer) <-> solid (above): area limited by the
          // smaller solid coverage of the two.
          {
            const double area =
                std::min(nsolid, nsolid_above) * cell_area;
            const double g_i = k * area / (t / 2.0);
            const double g_j =
                above.material.conductivity * area / (above.thickness / 2.0);
            add_pair(i_solid, j_solid, series(g_i, g_j));
          }
          // liquid (this layer) -> solid above (Eq. 8 + Eq. 5).
          if (i_liquid >= 0 && j_solid >= 0) {
            const double area =
                (*stats)[b].liquid_cells * cell_area +
                (*stats)[b].side_area / 2.0;
            const double g_conv = h_conv * area;
            const double g_cond =
                above.material.conductivity * area / (above.thickness / 2.0);
            add_pair(i_liquid, j_solid, series(g_conv, g_cond));
          }
          // solid (this layer) -> liquid above.
          if (i_solid >= 0 && j_liquid >= 0) {
            const double h_above = convective_coefficient(
                problem_.channel_geometry(l + 1), problem_.coolant);
            const double area =
                nliquid_above * cell_area +
                (*stats_above)[b].side_area / 2.0;
            const double g_conv = h_above * area;
            const double g_cond = k * area / (t / 2.0);
            add_pair(i_solid, j_liquid, series(g_conv, g_cond));
          }
        }

        // --- Liquid advection between blocks + ports. All slot emissions
        // are guarded on unit-pressure quantities only, so the recorded
        // pattern is valid for every P_sys > 0.
        if (is_channel && i_liquid >= 0) {
          const auto ii = static_cast<std::size_t>(i_liquid);
          const struct {
            double unit_q;
            int dbr, dbc;
          } adv[2] = {{(*stats)[b].unit_flow_east, 0, 1},
                      {(*stats)[b].unit_flow_south, 1, 0}};
          for (const auto& a : adv) {
            if (a.unit_q == 0.0) continue;
            const std::ptrdiff_t j_liquid =
                liquid_node(l, br + a.dbr, bc + a.dbc);
            LCN_CHECK(j_liquid >= 0,
                      "net inter-block flow into a block without liquid");
            const auto jj = static_cast<std::size_t>(j_liquid);
            using Form = ThermalAssemblyPlan::SlotForm;
            em.add_flow(ii, ii, a.unit_q, Form::kHalf);
            em.add_flow(ii, jj, a.unit_q, Form::kHalf);
            em.add_flow(jj, jj, a.unit_q, Form::kHalfNeg);
            em.add_flow(jj, ii, a.unit_q, Form::kHalfNeg);
          }
          if ((*stats)[b].unit_inflow > 0.0) {
            em.add_rhs_flow(ii, (*stats)[b].unit_inflow);
            em.add_inflow((*stats)[b].unit_inflow);
          }
          if ((*stats)[b].unit_outflow > 0.0) {
            em.add_flow(ii, ii, (*stats)[b].unit_outflow,
                        ThermalAssemblyPlan::SlotForm::kFull);
            em.add_outlet(ii, (*stats)[b].unit_outflow);
          }
        }

        // --- Power injection.
        if (layer.kind == LayerKind::kSource && i_solid >= 0) {
          const PowerMap& map = problem_.source_power[static_cast<std::size_t>(
              layer.source_index)];
          double power = 0.0;
          for (int r = rect.row0; r <= rect.row1; ++r) {
            for (int c = rect.col0; c <= rect.col1; ++c) {
              power += map.at(r, c);
            }
          }
          em.add_rhs_power(static_cast<std::size_t>(i_solid), power,
                           layer.source_index);
        }

        // --- Ambient sink on top.
        if (l == stack.layer_count() - 1 &&
            problem_.ambient_conductance > 0.0 && i_solid >= 0) {
          const double g = problem_.ambient_conductance * cells * cell_area;
          em.add_const(static_cast<std::size_t>(i_solid),
                       static_cast<std::size_t>(i_solid), g);
          em.add_rhs_const(static_cast<std::size_t>(i_solid),
                           g * problem_.ambient_temperature);
        }
      }
    }
  }

  // Source maps (block row-major).
  for (int l = 0; l < stack.layer_count(); ++l) {
    if (stack.layer(l).kind != LayerKind::kSource) continue;
    std::vector<std::size_t> nodes;
    nodes.reserve(static_cast<std::size_t>(block_rows_) * block_cols_);
    for (int br = 0; br < block_rows_; ++br) {
      for (int bc = 0; bc < block_cols_; ++bc) {
        const std::ptrdiff_t id = solid_node(l, br, bc);
        LCN_CHECK(id >= 0, "source layers have a node in every block");
        nodes.push_back(static_cast<std::size_t>(id));
      }
    }
    plan->source_nodes.push_back(std::move(nodes));
  }

  plan->finalize(n, std::move(em), "assemble_2rm");
  return plan;
}

ThermalField Thermal2RM::simulate(double p_sys) const {
  return solve_steady(assemble(p_sys));
}

}  // namespace lcn
