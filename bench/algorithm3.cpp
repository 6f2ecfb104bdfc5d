// Algorithm-3 efficiency study (paper §4.2: "Algorithm 3 is carefully
// designed to achieve accuracy and speed"): for frozen networks, compare
// the probes Algorithm 3 spends against a naive geometric sweep reaching
// the same pressure resolution, and confirm both find the same operating
// point. Every probe is one thermal simulation, so probe count is runtime.
#include <cstdio>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "geom/benchmarks.hpp"
#include "network/generators.hpp"
#include "opt/evaluator.hpp"
#include "reproduce.hpp"

namespace lcn::reproduce {

int algorithm3() {
  banner("Algorithm 3 — pressure-search probe efficiency",
         "paper §4.2, Algorithm 3");

  TextTable table({"case", "network", "alg3 P (kPa)", "alg3 probes",
                   "sweep P (kPa)", "sweep probes", "agreement"});

  for (int id : case_ids("1,2")) {
    const BenchmarkCase bench = make_iccad_case(id);
    const Grid2D& grid = bench.problem.grid;
    struct Net {
      const char* name;
      CoolingNetwork net;
    };
    const std::vector<Net> nets = {
        {"straight", make_straight_channels(grid)},
        {"tree(30,64)",
         make_tree_network(grid, make_uniform_layout(grid, 30, 64))},
    };
    for (const Net& n : nets) {
      // Algorithm 3 with a probe counter.
      SystemEvaluator eval(bench.problem, n.net,
                           SimConfig{ThermalModelKind::k2RM, 4});
      int alg3_probes = 0;
      PressureSearchOptions options;
      options.rel_precision = 1e-2;
      const PressureSearchResult alg3 = minimize_pressure_for_target(
          [&](double p) {
            ++alg3_probes;
            return eval.delta_t(p);
          },
          bench.constraints.delta_t_max, options);

      // Naive sweep at the same 1% resolution from a decade below to a
      // decade above (what one would do without the structure of f).
      SystemEvaluator sweep_eval(bench.problem, n.net,
                                 SimConfig{ThermalModelKind::k2RM, 4});
      int sweep_probes = 0;
      double sweep_p = 0.0;
      for (double p = 500.0; p <= 5e5; p *= 1.01) {
        ++sweep_probes;
        const double dt = sweep_eval.delta_t(p);
        if (dt <= bench.constraints.delta_t_max) {
          sweep_p = p;
          break;
        }
      }

      const bool both = alg3.feasible && sweep_p > 0.0;
      table.add_row(
          {cell_int(id), n.name,
           alg3.feasible ? cell(alg3.p_sys / 1e3, 2) : cell_na(),
           cell_int(alg3_probes),
           sweep_p > 0.0 ? cell(sweep_p / 1e3, 2) : cell_na(),
           cell_int(sweep_probes),
           both ? strfmt("%.1f%%",
                         100.0 * std::abs(alg3.p_sys - sweep_p) / sweep_p)
                : "-"});
    }
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nexpected: Algorithm 3 lands on the same crossing with an\n"
              "order of magnitude fewer simulations than the naive sweep.\n");
  return 0;
}

}  // namespace lcn::reproduce
