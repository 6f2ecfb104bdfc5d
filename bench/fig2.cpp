// E2 — Fig. 2(c): pressure and flow-rate distribution inside a small
// cooling network (darker cells = higher pressure, longer arrows = larger
// flow; rendered here as an ASCII pressure ramp plus flow statistics).
#include <algorithm>
#include <cstdio>

#include "flow/flow_solver.hpp"
#include "flow/flow_stats.hpp"
#include "network/design_rules.hpp"
#include "network/generators.hpp"
#include "reproduce.hpp"

namespace lcn::reproduce {

int fig2() {
  banner("Fig. 2(c) — pressure & flow-rate distribution",
         "paper §2.1, Fig. 2");

  const Grid2D grid(23, 23, 100e-6);
  const TreeLayout layout = make_uniform_layout(grid, 8, 14);
  const CoolingNetwork net = make_tree_network(grid, layout);
  require_clean(net);

  const ChannelGeometry channel{grid.pitch(), 200e-6};
  const CoolantProperties water;
  const double p_sys = 1000.0;
  const FlowSolution sol =
      FlowSolver(net, channel, water).solve(p_sys);

  std::printf("network: %zu liquid cells, %zu ports, P_sys = %.0f Pa\n",
              net.liquid_count(), net.ports().size(), p_sys);
  std::printf("Q_sys = %.4g m^3/s  R_sys = %.4g Pa.s/m^3  W_pump = %.4g W\n\n",
              sol.system_flow, sol.system_resistance(),
              sol.pumping_power(p_sys));

  // ASCII map: pressure ramp on liquid cells, TSVs as '.', solid blank.
  static const char kRamp[] = "0123456789";
  std::printf("pressure map (0 = outlet pressure, 9 = inlet pressure):\n");
  for (int r = 0; r < grid.rows(); ++r) {
    for (int c = 0; c < grid.cols(); ++c) {
      if (net.is_liquid(r, c)) {
        const double p =
            sol.pressure[static_cast<std::size_t>(
                sol.liquid_index[grid.index(r, c)])] /
            p_sys;
        const int level = std::clamp(static_cast<int>(p * 10.0), 0, 9);
        std::printf("%c", kRamp[level]);
      } else if (is_tsv_cell(r, c)) {
        std::printf(".");
      } else {
        std::printf(" ");
      }
    }
    std::printf("\n");
  }

  // Flow-rate distribution along a leaf row vs the trunk: the trunk carries
  // the full tree flow, the leaves a fraction each.
  const TreeSpec& tree = layout.trees.front();
  const int trunk_row = tree.y0 + 2;
  const double trunk_q =
      std::abs(sol.flow_toward(grid, trunk_row, 1, Side::kEast));
  std::printf("\ntrunk flow (row %d): %.4g m^3/s\n", trunk_row, trunk_q);
  double leaf_sum = 0.0;
  for (int leaf_row = tree.y0; leaf_row <= tree.y0 + 6; leaf_row += 2) {
    const double q = std::abs(
        sol.flow_toward(grid, leaf_row, grid.cols() - 2, Side::kEast));
    std::printf("leaf flow  (row %d): %.4g m^3/s (%.1f%% of trunk)\n",
                leaf_row, q, 100.0 * q / trunk_q);
    leaf_sum += q;
  }
  std::printf("leaf sum: %.4g m^3/s (conservation vs trunk: %.2f%%)\n",
              leaf_sum, 100.0 * leaf_sum / trunk_q);

  // Laminar-assumption diagnostics (Eq. 1 requires Re < ~2300).
  const FlowStats stats = compute_flow_stats(net, sol, channel, water);
  std::printf("\nflow diagnostics: v_max = %.3g m/s, Re_max = %.1f (%s), "
              "%zu stagnant cells\n",
              stats.max_velocity, stats.max_reynolds,
              stats.laminar() ? "laminar" : "TURBULENT", stats.stagnant_cells);
  return 0;
}

}  // namespace lcn::reproduce
