// E9 — Fig. 10: temperature maps of the bottom source layer of case 1 for
// the Problem-1 design (hotter overall, larger gradient, tiny W_pump) vs the
// Problem-2 design (flatter, higher W_pump). Rendered as ASCII heatmaps and
// CSV matrices.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/env.hpp"
#include "opt/sa.hpp"
#include "reproduce.hpp"
#include "thermal/image.hpp"
#include "thermal/temp_map.hpp"

namespace lcn::reproduce {
namespace {

void report(const char* title, const char* tag, const BenchmarkCase& bench,
            const DesignOutcome& outcome) {
  std::printf("\n--- %s ---\n", title);
  if (!outcome.feasible) {
    std::printf("infeasible design; no map\n");
    return;
  }
  std::printf("P_sys = %.2f kPa, W_pump = %.3f mW, Tmax = %.2f K, dT = %.2f K\n",
              outcome.eval.p_sys / 1e3, outcome.eval.w_pump * 1e3,
              outcome.eval.at_p.t_max, outcome.eval.at_p.delta_t);
  SystemEvaluator eval(bench.problem, outcome.network,
                       SimConfig{ThermalModelKind::k4RM, 1});
  const ThermalField field = eval.field(outcome.eval.p_sys);
  std::printf("%s", ascii_heatmap(field, 0, 64).c_str());

  // Fig. 10's CSV side output is the raw temperature matrix.
  if (!env_flag("LCN_NO_CSV")) {
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    if (!ec) {
      const std::string csv_path =
          std::string("bench_results/fig10_") + tag + "_bottom_layer.csv";
      std::ofstream out(csv_path);
      out << temperature_csv(field, 0);
      const std::string pgm_path =
          std::string("bench_results/fig10_") + tag + "_bottom_layer.pgm";
      std::ofstream img(pgm_path, std::ios::binary);
      img << temperature_pgm(field, 0, 4);
      std::printf("  [csv: %s, pgm: %s]\n", csv_path.c_str(),
                  pgm_path.c_str());
    }
  }
}

}  // namespace

int fig10() {
  banner("Fig. 10 — bottom source-layer temperature maps (case 1)",
         "paper §6 Fig. 10");
  const double scale = sa_scale(0.15);

  const BenchmarkCase bench = make_iccad_case(1);

  TreeTopologyOptimizer p1(bench, DesignObjective::kPumpingPower, 0xf16);
  const DesignOutcome out1 = p1.run(default_p1_stages(scale));
  report("Problem 1 design (min W_pump)", "p1", bench, out1);

  BenchmarkCase bench2 = make_iccad_case(1);
  bench2.constraints.w_pump_max = problem2_pump_budget(bench2);
  TreeTopologyOptimizer p2(bench2, DesignObjective::kThermalGradient, 0xf17);
  const DesignOutcome out2 = p2.run(default_p2_stages(scale));
  report("Problem 2 design (min dT)", "p2", bench2, out2);

  if (out1.feasible && out2.feasible) {
    std::printf(
        "\nexpected shape (paper): the Problem-1 map is hotter overall with a\n"
        "larger gradient (smaller W_pump); the Problem-2 map is flatter at a\n"
        "higher W_pump. measured: P1 dT=%.2f K @ %.3f mW vs P2 dT=%.2f K @ "
        "%.3f mW\n",
        out1.eval.at_p.delta_t, out1.eval.w_pump * 1e3,
        out2.eval.at_p.delta_t, out2.eval.w_pump * 1e3);
  }
  return 0;
}

}  // namespace lcn::reproduce
