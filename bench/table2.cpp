// E1 — Table 2: benchmark statistics of the (synthetic) ICCAD 2015 cases.
#include <cstdio>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "geom/benchmarks.hpp"
#include "reproduce.hpp"

namespace lcn::reproduce {

int table2() {
  banner("Table 2 — ICCAD 2015 benchmark statistics (synthetic)",
         "paper §6 Table 2; see DESIGN.md §4 substitution 1");

  TextTable table({"#", "Die Num", "h_c (um)", "Die Power (W)", "dT* (K)",
                   "Tmax* (K)", "Other Constraint", "Peak/Mean Density"});
  for (const BenchmarkCase& bench : all_iccad_cases()) {
    std::string other = "-";
    if (!bench.forbidden.empty()) {
      other = strfmt("no channel in rows %d-%d cols %d-%d",
                     bench.forbidden.row0, bench.forbidden.row1,
                     bench.forbidden.col0, bench.forbidden.col1);
    }
    if (bench.matched_layers) other = "matched inlets/outlets across layers";

    double peak_density = 0.0;
    double mean_density = 0.0;
    for (const PowerMap& map : bench.problem.source_power) {
      peak_density = std::max(peak_density, map.max_cell());
      mean_density += map.total() / map.grid().cell_count();
    }
    mean_density /= bench.problem.source_power.size();

    table.add_row({cell_int(bench.id), cell_int(bench.dies()),
                   cell(bench.channel_height() * 1e6, 0),
                   cell(bench.problem.total_power(), 3),
                   cell(bench.constraints.delta_t_max, 0),
                   cell(bench.constraints.t_max, 2), other,
                   cell(peak_density / mean_density, 2)});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nPaper row check (die num / h_c / power / dT* / Tmax*):\n"
      "  1: 2/200/42.038/15/358.15   2: 2/400/37.038/10/358.15\n"
      "  3: 2/400/43.038/15/358.15   4: 3/200/43.438/10/358.15\n"
      "  5: 2/400/148.174/10/338.15\n");
  return 0;
}

}  // namespace lcn::reproduce
