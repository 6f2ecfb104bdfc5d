// Trade-off frontier (paper abstract: cooling networks "achieve more
// desirable trade-offs between energy efficiency and thermal profile"):
// sweep pumping-power budgets on case 1 and record the best achievable ΔT
// for the straight baseline and for a tree-like network — the tree curve
// should dominate (lower ΔT at every budget) over the practical range.
//
// The per-family operating points feed the shared ParetoArchive
// (opt/pareto.hpp, DESIGN.md §S21): dominance tests and the frontier
// hypervolume come from the same code the island optimizer uses, and both
// frontiers are saved as JSONL snapshots next to the CSV.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/env.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "geom/benchmarks.hpp"
#include "network/generators.hpp"
#include "opt/evaluator.hpp"
#include "opt/pareto.hpp"
#include "reproduce.hpp"

namespace lcn::reproduce {

int pareto() {
  banner("Trade-off frontier — dT vs pumping-power budget",
         "paper abstract / §3 (energy vs thermal profile)");

  const BenchmarkCase bench = make_iccad_case(1);
  const Grid2D& grid = bench.problem.grid;
  const SimConfig sim{ThermalModelKind::k2RM, 4};

  const CoolingNetwork straight = make_straight_channels(grid);
  const CoolingNetwork tree =
      make_tree_network(grid, make_uniform_layout(grid, 30, 64));

  SystemEvaluator eval_straight(bench.problem, straight, sim);
  SystemEvaluator eval_tree(bench.problem, tree, sim);

  TextTable table({"W budget (mW)", "straight dT (K)", "tree dT (K)",
                   "tree advantage"});
  CsvWriter csv({"w_budget_mw", "straight_dt_k", "tree_dt_k"});

  // One archive per family. The archive dedups by design hash, and a budget
  // sweep revisits the same network at different operating points, so each
  // point's key mixes the budget index into the content hash.
  ParetoArchive frontier_straight;
  ParetoArchive frontier_tree;
  auto archive_point = [](ParetoArchive& archive, const CoolingNetwork& net,
                          const EvalResult& result, int budget_index,
                          const char* tag) {
    if (!result.feasible) return;
    ParetoPoint point;
    point.design = net.content_hash() ^
                   (0x9e3779b97f4a7c15ULL *
                    static_cast<std::uint64_t>(budget_index + 1));
    point.w_pump = result.w_pump;
    point.delta_t = result.at_p.delta_t;
    point.t_max = result.at_p.t_max;
    point.p_sys = result.p_sys;
    point.tag = tag;
    archive.insert(point);
  };

  int tree_wins = 0;
  int dominated_rows = 0;
  int rows = 0;
  int budget_index = 0;
  for (double budget_mw : {1.0, 2.0, 5.0, 10.0, 20.0, 42.0, 80.0, 160.0}) {
    DesignConstraints limits = bench.constraints;
    limits.delta_t_max = 0.0;  // unused by evaluate_p2
    limits.w_pump_max = budget_mw * 1e-3;
    const EvalResult rs = evaluate_p2(eval_straight, limits);
    const EvalResult rt = evaluate_p2(eval_tree, limits);
    archive_point(frontier_straight, straight, rs, budget_index, "straight");
    archive_point(frontier_tree, tree, rt, budget_index, "tree");
    std::string advantage = "-";
    if (rs.feasible && rt.feasible) {
      advantage = strfmt("%.1f%%", 100.0 * (1.0 - rt.score / rs.score));
      ++rows;
      if (rt.score <= rs.score) ++tree_wins;
      ParetoPoint ps, pt;
      ps.w_pump = rs.w_pump;
      ps.delta_t = rs.at_p.delta_t;
      ps.t_max = rs.at_p.t_max;
      pt.w_pump = rt.w_pump;
      pt.delta_t = rt.at_p.delta_t;
      pt.t_max = rt.at_p.t_max;
      if (pareto_dominates(pt, ps)) ++dominated_rows;
    }
    table.add_row({cell(budget_mw, 1),
                   rs.feasible ? cell(rs.score, 2) : cell_na(),
                   rt.feasible ? cell(rt.score, 2) : cell_na(), advantage});
    csv.add_row({cell(budget_mw, 3),
                 rs.feasible ? cell(rs.score, 4) : cell_na(),
                 rt.feasible ? cell(rt.score, 4) : cell_na()});
    ++budget_index;
  }
  std::printf("%s", table.str().c_str());
  std::printf("\ntree-like dominates on %d of %d comparable budgets "
              "(%d by strict 3-objective Pareto dominance; fixed topology, "
              "no SA — the Table 3/4 benches optimize it further).\n",
              tree_wins, rows, dominated_rows);

  // Frontier hypervolume against a shared reference just beyond the worst
  // observed point in either family: the larger volume is the more
  // desirable trade-off surface.
  double ref_w = 0.0, ref_dt = 0.0, ref_tm = 0.0;
  for (const ParetoArchive* archive : {&frontier_straight, &frontier_tree}) {
    for (const ParetoPoint& p : archive->points()) {
      ref_w = std::max(ref_w, p.w_pump * 1.05);
      ref_dt = std::max(ref_dt, p.delta_t * 1.05);
      ref_tm = std::max(ref_tm, p.t_max * 1.05);
    }
  }
  const double hv_straight =
      frontier_straight.hypervolume(ref_w, ref_dt, ref_tm);
  const double hv_tree = frontier_tree.hypervolume(ref_w, ref_dt, ref_tm);
  std::printf("frontier sizes: straight %zu / tree %zu; hypervolume "
              "straight %.4g / tree %.4g (shared reference)\n",
              frontier_straight.size(), frontier_tree.size(), hv_straight,
              hv_tree);

  maybe_save_csv(csv, "pareto_tradeoff.csv");
  if (!env_flag("LCN_NO_CSV")) {
    try {
      frontier_straight.save_jsonl("bench_results/pareto_straight.jsonl");
      frontier_tree.save_jsonl("bench_results/pareto_tree.jsonl");
      std::printf("  [jsonl: bench_results/pareto_{straight,tree}.jsonl]\n");
    } catch (...) {
      // Snapshots are best-effort side outputs, like the CSVs.
    }
  }
  return 0;
}

}  // namespace lcn::reproduce
