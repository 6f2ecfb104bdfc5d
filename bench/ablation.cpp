// E10 — ablations on the design choices DESIGN.md calls out:
//  (a) branch-type mix of the tree structure (Fig. 8(b)),
//  (b) global flow direction (Fig. 8(a)) on a non-uniform power map,
//  (c) branch positions (b1, b2): upstream-vs-downstream channel density,
//  (d) inlet/outlet (edge) conductance factor sensitivity.
#include <cstdio>
#include <vector>

#include "common/table.hpp"
#include "geom/benchmarks.hpp"
#include "network/design_rules.hpp"
#include "network/generators.hpp"
#include "opt/evaluator.hpp"
#include "opt/sa.hpp"
#include "reproduce.hpp"

namespace lcn::reproduce {
namespace {

TreeLayout layout_of_type(const Grid2D& grid, BranchType type, int b1,
                          int b2) {
  // Tile the grid with trees of a single type (remainder filled by the
  // standard fit).
  TreeLayout layout;
  const int channel_rows = (grid.rows() + 1) / 2;
  int remaining = channel_rows;
  int y0 = 0;
  while (remaining >= branch_channel_rows(type) + 2 ||
         remaining == branch_channel_rows(type)) {
    TreeSpec spec{type, y0, b1, b2};
    legalize_tree_spec(grid, spec);
    layout.trees.push_back(spec);
    y0 += branch_row_span(type) + 2;
    remaining -= branch_channel_rows(type);
  }
  for (BranchType fill : fit_branch_types(remaining > 0 ? remaining : 2)) {
    if (remaining <= 0) break;
    TreeSpec spec{fill, y0, b1, b2};
    legalize_tree_spec(grid, spec);
    layout.trees.push_back(spec);
    y0 += branch_row_span(fill) + 2;
    remaining -= branch_channel_rows(fill);
  }
  return layout;
}

}  // namespace

int ablation() {
  banner("Ablations — branch types, flow directions, branch "
         "positions, edge factor",
         "paper §4.3/§4.4 design choices");

  const BenchmarkCase bench = make_iccad_case(1);
  const Grid2D& grid = bench.problem.grid;
  const SimConfig sim{ThermalModelKind::k2RM, 4};

  // (a) Branch-type mix at identical (b1, b2).
  {
    std::printf("\n(a) branch-type mix (Problem-1 evaluation):\n");
    TextTable table({"mix", "feasible", "P_sys (kPa)", "dT (K)",
                     "W_pump (mW)"});
    struct Mix {
      const char* name;
      TreeLayout layout;
    };
    const std::vector<Mix> mixes = {
        {"all 1->2 (double)", layout_of_type(grid, BranchType::kDouble, 30, 64)},
        {"all 1->2->3 (triple)",
         layout_of_type(grid, BranchType::kTriple, 30, 64)},
        {"all 1->2->4 (quad)", layout_of_type(grid, BranchType::kQuad, 30, 64)},
        {"fitted mix (default)", make_uniform_layout(grid, 30, 64)},
    };
    for (const Mix& mix : mixes) {
      const CoolingNetwork net = make_tree_network(grid, mix.layout);
      SystemEvaluator eval(bench.problem, net, sim);
      const EvalResult r = evaluate_p1(eval, bench.constraints);
      table.add_row({mix.name, r.feasible ? "yes" : "no",
                     r.feasible ? cell(r.p_sys / 1e3, 2) : cell_na(),
                     r.feasible ? cell(r.at_p.delta_t, 2) : cell_na(),
                     r.feasible ? cell(r.w_pump * 1e3, 3) : cell_na()});
    }
    std::printf("%s", table.str().c_str());
  }

  // (b) Global flow direction: the D4 images score differently on a
  // non-uniform power map.
  {
    std::printf("\n(b) global flow direction (uniform tree, Problem 1):\n");
    TextTable table({"direction (D4 code)", "feasible", "W_pump (mW)"});
    TreeTopologyOptimizer opt(bench, DesignObjective::kPumpingPower, 1);
    const TreeLayout layout = make_uniform_layout(grid, 30, 64);
    double best = 1e300;
    double worst = 0.0;
    for (int dir = 0; dir < D4Transform::kCount; ++dir) {
      const EvalResult r = opt.evaluate_network(opt.realize(layout, dir), sim);
      table.add_row({cell_int(dir), r.feasible ? "yes" : "no",
                     r.feasible ? cell(r.w_pump * 1e3, 3) : cell_na()});
      if (r.feasible) {
        best = std::min(best, r.w_pump);
        worst = std::max(worst, r.w_pump);
      }
    }
    std::printf("%s", table.str().c_str());
    if (worst > 0.0) {
      std::printf("direction sweep spread: worst/best = %.2fx\n",
                  worst / best);
    }
  }

  // (c) Branch positions: later branching (larger b1, b2) concentrates wall
  // area downstream, compensating the coolant temperature rise (§3 factor 3
  // vs factor 1).
  {
    std::printf("\n(c) branch positions (uniform (b1, b2), fixed P = 10 kPa):\n");
    TextTable table({"b1", "b2", "dT (K)", "Tmax (K)"});
    for (const auto& [b1, b2] :
         std::vector<std::pair<int, int>>{{10, 20}, {20, 50}, {30, 64},
                                          {40, 80}, {60, 90}}) {
      const CoolingNetwork net =
          make_tree_network(grid, make_uniform_layout(grid, b1, b2));
      SystemEvaluator eval(bench.problem, net, sim);
      const ThermalProbe p = eval.probe(10000.0);
      table.add_row({cell_int(b1), cell_int(b2), cell(p.delta_t, 2),
                     cell(p.t_max, 2)});
    }
    std::printf("%s", table.str().c_str());
  }

  // (e) Prior-work-style baseline: straight channels with density
  // modulation (GreenCool [10] / channel clustering [12] analogue) — fewer
  // channels where the floorplan is cool. Compared under the Problem-1
  // evaluation against the full straight array and the tree network.
  {
    std::printf("\n(e) density-modulated straight channels (Problem 1):\n");
    TextTable table({"channels kept", "feasible", "P_sys (kPa)",
                     "W_pump (mW)"});
    for (int keep : {51, 40, 30, 20}) {
      const std::vector<bool> profile =
          density_profile_from_power(bench.problem.source_power[0], keep);
      const CoolingNetwork net = make_modulated_straight(grid, profile);
      SystemEvaluator eval(bench.problem, net, sim);
      const EvalResult r = evaluate_p1(eval, bench.constraints);
      table.add_row({cell_int(keep), r.feasible ? "yes" : "no",
                     r.feasible ? cell(r.p_sys / 1e3, 2) : cell_na(),
                     r.feasible ? cell(r.w_pump * 1e3, 3) : cell_na()});
    }
    std::printf("%s", table.str().c_str());
    std::printf("expected: dropping cool-region channels can cut W_pump "
                "below the full straight array, but the tree network (a) "
                "still wins.\n");
  }

  // (d) Edge (inlet/outlet) conductance factor: affects R_sys and thus the
  // W_pump scale, not the qualitative comparisons.
  {
    std::printf("\n(d) edge conductance factor sensitivity (straight "
                "channels):\n");
    TextTable table({"factor", "R_sys (Pa.s/m^3)", "W_pump @10kPa (mW)"});
    for (double factor : {0.25, 0.5, 1.0, 2.0}) {
      CoolingProblem problem = bench.problem;
      problem.flow_options.edge_conductance_factor = factor;
      SystemEvaluator eval(problem, make_straight_channels(grid), sim);
      table.add_row({cell(factor, 2), cell_sci(eval.system_resistance(), 3),
                     cell(eval.pumping_power(10000.0) * 1e3, 3)});
    }
    std::printf("%s", table.str().c_str());
  }
  return 0;
}

}  // namespace lcn::reproduce
