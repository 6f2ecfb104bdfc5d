// Unit and property tests for the flow solver (S4): analytic resistances,
// conservation laws, linearity, symmetry.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "flow/flow_solver.hpp"
#include "network/generators.hpp"

namespace lcn {
namespace {

constexpr double kPitch = 100e-6;

ChannelGeometry bench_channel() { return ChannelGeometry{kPitch, 200e-6}; }

TEST(FlowSolver, SingleChannelMatchesAnalyticResistance) {
  // One straight channel of N cells: R = 2/g_edge + (N-1)/g_bulk.
  const int n = 9;
  const Grid2D grid(1, n, kPitch);
  CoolingNetwork net(grid, /*alternating_tsvs=*/false);
  for (int c = 0; c < n; ++c) net.set_liquid(0, c);
  net.add_port({0, 0, Side::kWest, PortKind::kInlet});
  net.add_port({0, n - 1, Side::kEast, PortKind::kOutlet});

  const CoolantProperties water;
  FlowOptions options;
  options.edge_conductance_factor = 0.5;
  const FlowSolution sol =
      FlowSolver(net, bench_channel(), water, options).solve(1.0);

  const double g_bulk = fluid_conductance(bench_channel(), water, kPitch);
  const double g_edge = 0.5 * g_bulk;
  const double r_expected = 2.0 / g_edge + (n - 1) / g_bulk;
  EXPECT_NEAR(sol.system_resistance(), r_expected, r_expected * 1e-8);

  // Pressure decreases monotonically downstream.
  for (int c = 1; c < n; ++c) {
    EXPECT_LT(sol.pressure[static_cast<std::size_t>(c)],
              sol.pressure[static_cast<std::size_t>(c - 1)]);
  }
  // Uniform flow along the channel equal to the system flow.
  for (int c = 0; c + 1 < n; ++c) {
    EXPECT_NEAR(sol.q_east[static_cast<std::size_t>(c)], sol.system_flow,
                sol.system_flow * 1e-7);
  }
}

TEST(FlowSolver, ParallelChannelsResistanceHalves) {
  const int n = 9;
  const CoolantProperties water;
  auto make_rows = [&](int rows) {
    const Grid2D grid(rows, n, kPitch);
    CoolingNetwork net(grid, false);
    for (int r = 0; r < rows; r += 2) {
      for (int c = 0; c < n; ++c) net.set_liquid(r, c);
      net.add_port({r, 0, Side::kWest, PortKind::kInlet});
      net.add_port({r, n - 1, Side::kEast, PortKind::kOutlet});
    }
    return FlowSolver(net, bench_channel(), water).solve(1.0)
        .system_resistance();
  };
  const double r1 = make_rows(1);
  const double r2 = make_rows(3);  // two channels (rows 0 and 2)
  EXPECT_NEAR(r2, r1 / 2.0, r1 * 1e-8);
}

TEST(FlowSolver, VolumeConservationAtEveryCell) {
  const Grid2D grid(21, 21, kPitch);
  const CoolingNetwork net =
      make_tree_network(grid, make_uniform_layout(grid, 6, 12));
  const CoolantProperties water;
  const FlowSolution sol =
      FlowSolver(net, bench_channel(), water).solve(1.0);

  // Net flow at each cell: east+south outflows minus west+north inflows,
  // plus port flows, must vanish.
  std::vector<double> net_flow(sol.liquid_cells.size(), 0.0);
  for (std::size_t i = 0; i < sol.liquid_cells.size(); ++i) {
    net_flow[i] += sol.q_east[i] + sol.q_south[i];
    const CellCoord cc = grid.coord(sol.liquid_cells[i]);
    if (cc.col > 0) {
      const std::int32_t w = sol.liquid_index[grid.index(cc.row, cc.col - 1)];
      if (w >= 0) net_flow[i] -= sol.q_east[static_cast<std::size_t>(w)];
    }
    if (cc.row > 0) {
      const std::int32_t nn = sol.liquid_index[grid.index(cc.row - 1, cc.col)];
      if (nn >= 0) net_flow[i] -= sol.q_south[static_cast<std::size_t>(nn)];
    }
  }
  for (std::size_t p = 0; p < net.ports().size(); ++p) {
    const Port& port = net.ports()[p];
    const std::int32_t idx = sol.liquid_index[grid.index(port.row, port.col)];
    ASSERT_GE(idx, 0);
    if (port.kind == PortKind::kInlet) {
      net_flow[static_cast<std::size_t>(idx)] -= sol.port_flow[p];
    } else {
      net_flow[static_cast<std::size_t>(idx)] += sol.port_flow[p];
    }
  }
  const double scale = std::abs(sol.system_flow);
  for (std::size_t i = 0; i < net_flow.size(); ++i) {
    EXPECT_LT(std::abs(net_flow[i]), scale * 1e-6) << "cell " << i;
  }
}

TEST(FlowSolver, LinearInPressure) {
  const Grid2D grid(21, 21, kPitch);
  const CoolingNetwork net = make_straight_channels(grid);
  const CoolantProperties water;
  const FlowSolver solver(net, bench_channel(), water);
  const FlowSolution unit = solver.solve(1.0);
  const FlowSolution scaled = solver.solve(3000.0);
  EXPECT_NEAR(scaled.system_flow, 3000.0 * unit.system_flow,
              scaled.system_flow * 1e-9);
  for (std::size_t i = 0; i < unit.pressure.size(); ++i) {
    EXPECT_NEAR(scaled.pressure[i], 3000.0 * unit.pressure[i],
                3000.0 * 1e-9 + std::abs(scaled.pressure[i]) * 1e-7);
  }
}

TEST(FlowSolver, PressuresBoundedByInletAndOutlet) {
  const Grid2D grid(21, 21, kPitch);
  const CoolingNetwork net =
      make_tree_network(grid, make_uniform_layout(grid, 4, 14));
  const CoolantProperties water;
  const FlowSolution sol = FlowSolver(net, bench_channel(), water).solve(1.0);
  for (double p : sol.pressure) {
    EXPECT_GE(p, -1e-9);
    EXPECT_LE(p, 1.0 + 1e-9);
  }
}

TEST(FlowSolver, InflowEqualsOutflow) {
  const Grid2D grid(21, 21, kPitch);
  const CoolingNetwork net = make_comb(grid);
  const CoolantProperties water;
  const FlowSolution sol = FlowSolver(net, bench_channel(), water).solve(1.0);
  double in = 0.0;
  double out = 0.0;
  for (std::size_t p = 0; p < net.ports().size(); ++p) {
    (net.ports()[p].kind == PortKind::kInlet ? in : out) += sol.port_flow[p];
  }
  EXPECT_NEAR(in, out, in * 1e-7);
}

TEST(FlowSolver, MirrorSymmetryOfPressureField) {
  // A vertically symmetric network must give a vertically symmetric field.
  const Grid2D grid(5, 9, kPitch);
  CoolingNetwork net(grid, false);
  for (int r : {0, 4}) {
    for (int c = 0; c < 9; ++c) net.set_liquid(r, c);
  }
  for (int r = 0; r <= 4; ++r) net.set_liquid(r, 4);  // center crossbar
  net.add_port({0, 0, Side::kWest, PortKind::kInlet});
  net.add_port({4, 0, Side::kWest, PortKind::kInlet});
  net.add_port({0, 8, Side::kEast, PortKind::kOutlet});
  net.add_port({4, 8, Side::kEast, PortKind::kOutlet});
  const CoolantProperties water;
  const FlowSolution sol = FlowSolver(net, bench_channel(), water).solve(1.0);
  for (int c = 0; c < 9; ++c) {
    const double top = sol.pressure[static_cast<std::size_t>(
        sol.liquid_index[grid.index(0, c)])];
    const double bottom = sol.pressure[static_cast<std::size_t>(
        sol.liquid_index[grid.index(4, c)])];
    EXPECT_NEAR(top, bottom, 1e-8);
  }
}

TEST(FlowSolver, ThrowsOnPortlessComponent) {
  const Grid2D grid(5, 5, kPitch);
  CoolingNetwork net(grid, false);
  for (int c = 0; c < 5; ++c) net.set_liquid(0, c);
  net.add_port({0, 0, Side::kWest, PortKind::kInlet});
  net.add_port({0, 4, Side::kEast, PortKind::kOutlet});
  net.set_liquid(3, 3);  // stranded cell
  const CoolantProperties water;
  EXPECT_THROW(FlowSolver(net, bench_channel(), water).solve(1.0),
               RuntimeError);
}

TEST(FlowSolver, UnderflowedConductanceThrowsRuntimeError) {
  // A cell scale of denorm_min underflows both of its pair conductances to
  // exactly 0.0. The refill keeps them as explicit zeros, so the cell's
  // diagonal is a zero pivot and the solve fails as a RuntimeError — the
  // type evaluate() scores as an infeasible design.
  const int n = 9;
  const Grid2D grid(1, n, kPitch);
  CoolingNetwork net(grid, /*alternating_tsvs=*/false);
  for (int c = 0; c < n; ++c) net.set_liquid(0, c);
  net.add_port({0, 0, Side::kWest, PortKind::kInlet});
  net.add_port({0, n - 1, Side::kEast, PortKind::kOutlet});
  FlowOptions options;
  options.cell_conductance_scale.assign(grid.cell_count(), 1.0);
  options.cell_conductance_scale[4] = std::numeric_limits<double>::denorm_min();
  const CoolantProperties water;
  EXPECT_THROW(FlowSolver(net, bench_channel(), water, options).solve(1.0),
               RuntimeError);
}

TEST(FlowSolver, PumpingPowerQuadraticInPressure) {
  const Grid2D grid(21, 21, kPitch);
  const CoolingNetwork net = make_straight_channels(grid);
  const CoolantProperties water;
  const FlowSolution sol = FlowSolver(net, bench_channel(), water).solve(1.0);
  const double w1 = sol.pumping_power(1000.0);
  const double w2 = sol.pumping_power(2000.0);
  EXPECT_NEAR(w2, 4.0 * w1, w2 * 1e-10);
}

// Property sweep: tree-shaped networks distribute more flow to wider
// sections than narrow trunks would suggest, but conservation and bounds
// always hold for any (b1, b2).
class TreeFlowSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TreeFlowSweep, ConservationAndBounds) {
  const auto [b1, b2] = GetParam();
  const Grid2D grid(21, 21, kPitch);
  const CoolingNetwork net =
      make_tree_network(grid, make_uniform_layout(grid, b1, b2));
  const CoolantProperties water;
  const FlowSolution sol = FlowSolver(net, bench_channel(), water).solve(1.0);
  EXPECT_GT(sol.system_flow, 0.0);
  for (double p : sol.pressure) {
    EXPECT_GE(p, -1e-9);
    EXPECT_LE(p, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BranchPositions, TreeFlowSweep,
    ::testing::Values(std::pair{2, 4}, std::pair{2, 18}, std::pair{8, 10},
                      std::pair{8, 16}, std::pair{16, 18}, std::pair{4, 12}));

}  // namespace
}  // namespace lcn
