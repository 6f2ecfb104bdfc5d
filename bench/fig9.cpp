// E5/E6 — Fig. 9: accuracy and speed-up of 2RM relative to 4RM across
// thermal-cell sizes and network styles. The paper sweeps 5 benchmarks x 40
// networks x 6 cell sizes x 13 pressures (15600 simulations on an 80-core
// server); the default here is a scaled sweep with the same axes
// (LCN_CASES / LCN_FIG9_NETS / LCN_FIG9_PRESSURES widen it).
#include <cstdio>
#include <map>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "geom/benchmarks.hpp"
#include "network/generators.hpp"
#include "reproduce.hpp"
#include "thermal/model_2rm.hpp"
#include "thermal/model_4rm.hpp"

namespace lcn::reproduce {
namespace {

struct Sample {
  std::string style;  // "straight", "tree", "manual"
  CoolingNetwork net;
};

std::vector<Sample> sample_networks(const Grid2D& grid, int tree_count,
                                    Rng& rng) {
  std::vector<Sample> out;
  out.push_back({"straight", make_straight_channels(grid)});
  out.push_back(
      {"straight", make_straight_channels(grid).transformed(D4Transform(1))});
  out.push_back({"manual", make_serpentine(grid)});
  out.push_back({"manual", make_comb(grid)});
  out.push_back({"tree", make_tree_network(
                             grid, make_uniform_layout(grid, 30, 64))});
  for (int i = 1; i < tree_count; ++i) {
    out.push_back(
        {"tree", make_tree_network(grid, make_random_layout(grid, rng))});
  }
  return out;
}

/// Average relative error of 2RM source-layer nodes vs the block-averaged
/// 4RM reference (the paper's Fig. 9(a) metric).
double average_relative_error(const ThermalField& f4, const ThermalField& f2,
                              int m) {
  double err_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t layer = 0; layer < f4.source_maps.size(); ++layer) {
    for (int br = 0; br < f2.map_rows; ++br) {
      for (int bc = 0; bc < f2.map_cols; ++bc) {
        double sum = 0.0;
        int cells = 0;
        for (int r = br * m; r < std::min((br + 1) * m, f4.map_rows); ++r) {
          for (int c = bc * m; c < std::min((bc + 1) * m, f4.map_cols); ++c) {
            sum += f4.source_maps[layer][static_cast<std::size_t>(r) *
                                             f4.map_cols + c];
            ++cells;
          }
        }
        const double t4 = sum / cells;
        const double t2 =
            f2.source_maps[layer][static_cast<std::size_t>(br) * f2.map_cols +
                                  bc];
        err_sum += std::abs(t2 - t4) / t4;
        ++count;
      }
    }
  }
  return err_sum / static_cast<double>(count);
}

}  // namespace

int fig9() {
  banner("Fig. 9 — 2RM accuracy (a) and speed-up (b) vs 4RM",
         "paper §6, Fig. 9");

  const bool fast = env_flag("LCN_FAST");
  const std::vector<int> ids = case_ids(fast ? "1" : "1,2");
  const int tree_count =
      static_cast<int>(env_int("LCN_FIG9_NETS", fast ? 2 : 4));
  const int pressure_count =
      static_cast<int>(env_int("LCN_FIG9_PRESSURES", fast ? 2 : 3));
  const std::vector<int> cell_sizes = {2, 4, 6, 8, 10};

  std::vector<double> pressures;
  for (int i = 0; i < pressure_count; ++i) {
    pressures.push_back(4000.0 * std::pow(3.0, i));
  }

  // err[style][m] -> (sum, count); time accumulators for the speed-up plot.
  std::map<std::string, std::map<int, std::pair<double, int>>> errors;
  std::map<int, double> time_2rm;
  std::map<int, int> runs_2rm;
  double time_4rm = 0.0;
  int runs_4rm = 0;

  CsvWriter csv({"case", "style", "cell_size_um", "p_sys_pa", "avg_rel_err"});
  Rng rng(0xf19a);

  for (int id : ids) {
    const BenchmarkCase bench = make_iccad_case(id);
    const auto samples =
        sample_networks(bench.problem.grid, tree_count, rng);
    std::printf("case %d: %zu networks x %zu pressures x %zu cell sizes\n",
                id, samples.size(), pressures.size(), cell_sizes.size());
    for (const Sample& sample : samples) {
      const std::vector<CoolingNetwork> nets(
          static_cast<std::size_t>(bench.problem.stack.channel_count()),
          sample.net);
      const Thermal4RM ref(bench.problem, nets);
      std::vector<std::unique_ptr<Thermal2RM>> coarse;
      for (int m : cell_sizes) {
        coarse.push_back(
            std::make_unique<Thermal2RM>(bench.problem, nets, m));
      }
      for (double p : pressures) {
        WallTimer t4;
        const ThermalField f4 = ref.simulate(p);
        time_4rm += t4.seconds();
        ++runs_4rm;
        for (std::size_t k = 0; k < cell_sizes.size(); ++k) {
          const int m = cell_sizes[k];
          WallTimer t2;
          const ThermalField f2 = coarse[k]->simulate(p);
          time_2rm[m] += t2.seconds();
          ++runs_2rm[m];
          const double err = average_relative_error(f4, f2, m);
          auto& bucket = errors[sample.style][m];
          bucket.first += err;
          ++bucket.second;
          csv.add_row({cell_int(id), sample.style,
                       cell_int(m * 100), cell(p, 0), cell_sci(err, 4)});
        }
      }
    }
  }

  std::printf("\nFig. 9(a) — average relative error vs thermal cell size:\n");
  TextTable acc({"cell size (um)", "straight", "tree", "manual", "all"});
  for (int m : cell_sizes) {
    std::vector<std::string> row{cell_int(m * 100)};
    double all_sum = 0.0;
    int all_count = 0;
    for (const char* style : {"straight", "tree", "manual"}) {
      const auto& bucket = errors[style][m];
      row.push_back(bucket.second > 0
                        ? strfmt("%.3f%%", 100.0 * bucket.first / bucket.second)
                        : "-");
      all_sum += bucket.first;
      all_count += bucket.second;
    }
    row.push_back(strfmt("%.3f%%", 100.0 * all_sum / all_count));
    acc.add_row(row);
  }
  std::printf("%s", acc.str().c_str());
  std::printf("expected shape: error grows with cell size; straight channels"
              " smallest.\n");

  std::printf("\nFig. 9(b) — 2RM speed-up over 4RM:\n");
  TextTable speed({"cell size (um)", "4RM (s)", "2RM (s)", "speed-up"});
  const double t4_avg = time_4rm / runs_4rm;
  for (int m : cell_sizes) {
    const double t2_avg = time_2rm[m] / runs_2rm[m];
    speed.add_row({cell_int(m * 100), cell(t4_avg, 3), cell(t2_avg, 4),
                   strfmt("%.0fx", t4_avg / t2_avg)});
  }
  std::printf("%s", speed.str().c_str());
  std::printf("expected shape: speed-up > m^2 for small cells, saturating as"
              " overhead dominates.\n");
  maybe_save_csv(csv, "fig9_accuracy.csv");
  return 0;
}

}  // namespace lcn::reproduce
