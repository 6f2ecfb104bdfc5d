// E3/E4 — Fig. 5 and Fig. 6: relation between temperatures and the system
// pressure drop. Per-cell temperatures show "turning points" (Fig. 5);
// ΔT = f(P_sys) is uni-modal for some networks and monotone decreasing for
// others (Fig. 6); T_max = h(P_sys) decreases monotonically.
#include <cstdio>
#include <vector>

#include "common/table.hpp"
#include "geom/benchmarks.hpp"
#include "network/generators.hpp"
#include "opt/evaluator.hpp"
#include "reproduce.hpp"

namespace lcn::reproduce {

int fig5_6() {
  banner("Fig. 5/6 — temperatures and dT vs P_sys",
         "paper §4.1, Figs. 5-6");

  const BenchmarkCase bench = make_iccad_case(1);
  const Grid2D& grid = bench.problem.grid;
  const SimConfig sim{ThermalModelKind::k2RM, 4};

  struct NetDef {
    const char* name;
    CoolingNetwork net;
  };
  std::vector<NetDef> nets;
  nets.push_back({"straight", make_straight_channels(grid)});
  nets.push_back(
      {"tree(30,64)", make_tree_network(grid, make_uniform_layout(grid, 30, 64))});

  std::vector<double> pressures;
  for (double p = 500.0; p <= 260000.0; p *= 1.9) pressures.push_back(p);

  CsvWriter csv({"network", "p_sys_pa", "delta_t_k", "t_max_k",
                 "t_upstream_k", "t_downstream_k", "w_pump_mw"});

  for (NetDef& def : nets) {
    SystemEvaluator eval(bench.problem, def.net, sim);
    std::printf("\n--- network: %s ---\n", def.name);
    TextTable table({"P_sys (kPa)", "dT (K)", "Tmax (K)", "T_up (K)",
                     "T_down (K)", "W_pump (mW)"});
    double min_dt = 1e300;
    double min_dt_p = 0.0;
    double last_dt = 0.0;
    bool rose_after_min = false;
    for (double p : pressures) {
      const ThermalField field = eval.field(p);
      // Fig. 5: one upstream (west) and one downstream (east) node of the
      // bottom source layer, center row.
      const int row = field.map_rows / 2;
      const double t_up =
          field.source_maps[0][static_cast<std::size_t>(row) *
                                   field.map_cols + 1];
      const double t_down =
          field.source_maps[0][static_cast<std::size_t>(row) *
                                   field.map_cols + field.map_cols - 2];
      const double w = eval.pumping_power(p);
      table.add_row({cell(p / 1e3, 2), cell(field.delta_t, 2),
                     cell(field.t_max, 2), cell(t_up, 2), cell(t_down, 2),
                     cell(w * 1e3, 3)});
      csv.add_row({def.name, cell(p, 1), cell(field.delta_t, 4),
                   cell(field.t_max, 4), cell(t_up, 4), cell(t_down, 4),
                   cell(w * 1e3, 5)});
      if (field.delta_t < min_dt) {
        min_dt = field.delta_t;
        min_dt_p = p;
      } else if (field.delta_t > min_dt + 1e-3) {
        rose_after_min = true;
      }
      last_dt = field.delta_t;
    }
    std::printf("%s", table.str().c_str());
    std::printf("f(P_sys) shape: %s (min dT = %.2f K at %.1f kPa, final %.2f K)\n",
                rose_after_min ? "uni-modal (Fig. 6(a))"
                               : "monotone decreasing (Fig. 6(b))",
                min_dt, min_dt_p / 1e3, last_dt);
  }
  maybe_save_csv(csv, "fig5_fig6_curves.csv");
  return 0;
}

}  // namespace lcn::reproduce
