// E7/E8 — Tables 3 and 4: pumping-power minimization (Problem 1) and
// thermal-gradient minimization (Problem 2). For every ICCAD case the
// straight-channel baseline (best global direction) is compared to the
// SA-optimized tree-like network, both signed off with the 4RM model.
// Problem 2 replaces ΔT* by a pumping budget W*_pump = 0.1% of the die power
// (paper §6). The contest first place's manual Problem-1 designs were never
// published, so that middle row of Table 3 cannot be regenerated
// (DESIGN.md §4).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "opt/sa.hpp"
#include "reproduce.hpp"

namespace lcn::reproduce {
namespace {

/// What separates the two tables. The objective also fixes the rest: the
/// objective metric is the last result column (the constrained one comes
/// first), and Problem 2 gets the pump budget and the P2 stage schedule.
struct TableSpec {
  const char* title;
  const char* paper_ref;
  DesignObjective objective;
  double default_scale;
  std::uint64_t seed_base;
  const char* gain_label;
  const char* unpublished_row;  ///< design row with no data, or nullptr
  const char* csv_name;
  const char* expected;
};

const TableSpec kTable3{
    "Table 3 — pumping power minimization (Problem 1)",
    "paper §6 Table 3",
    DesignObjective::kPumpingPower,
    0.25,
    0xdac17u,
    "W saving",
    "manual (contest 1st)",
    "table3_p1.csv",
    "tree-like networks save a large fraction of\n"
    "pumping power at identical constraints (paper: up to 84.03%); the\n"
    "hottest case is the hardest for straight channels."};

// Grouped P2 evaluation (§5) is cheap, so the default schedule is richer.
const TableSpec kTable4{
    "Table 4 — thermal gradient minimization (Problem 2)",
    "paper §6 Table 4",
    DesignObjective::kThermalGradient,
    0.5,
    0xdac42u,
    "dT reduction",
    nullptr,
    "table4_p2.csv",
    "under the same pumping budget, tree-like\n"
    "networks cut the thermal gradient substantially (paper: up to\n"
    "37.65% on cases 1-4, more on case 5)."};

/// One table or CSV row. The result columns put the constrained metric first
/// and the objective last.
std::vector<std::string> row(bool p1, std::string id, std::string design,
                             std::string p_sys, std::string t_max,
                             std::string delta_t, std::string w_pump,
                             std::string tail) {
  if (p1) return {id, design, p_sys, t_max, delta_t, w_pump, tail};
  return {id, design, p_sys, t_max, w_pump, delta_t, tail};
}

void add_design_rows(bool p1, int id, const char* label,
                     const char* csv_label, bool feasible,
                     const EvalResult& eval, const std::string& gain,
                     const std::string& seconds, TextTable& table,
                     CsvWriter& csv) {
  const std::string na = cell_na();
  if (!feasible) {
    table.add_row(row(p1, cell_int(id), label, na, na, na, na, "infeasible"));
    csv.add_row(row(p1, cell_int(id), csv_label, na, na, na, na, seconds));
    return;
  }
  table.add_row(row(p1, cell_int(id), label, cell(eval.p_sys / 1e3, 2),
                    cell(eval.at_p.t_max, 1), cell(eval.at_p.delta_t, 2),
                    cell(eval.w_pump * 1e3, 3), gain));
  csv.add_row(row(p1, cell_int(id), csv_label, cell(eval.p_sys, 2),
                  cell(eval.at_p.t_max, 3), cell(eval.at_p.delta_t, 3),
                  cell_sci(eval.w_pump, 4), seconds));
}

int run_table(const TableSpec& spec) {
  banner(spec.title, spec.paper_ref);
  const bool p1 = spec.objective == DesignObjective::kPumpingPower;
  const double scale = sa_scale(spec.default_scale);
  const std::vector<int> ids = case_ids("1,2,3,4,5");
  const std::vector<SaStage> stages =
      p1 ? default_p1_stages(scale) : default_p2_stages(scale);
  std::printf("SA scale %.2f (paper schedule ~1.0; set LCN_SA_SCALE)%s\n",
              scale, p1 ? "" : "; W*_pump = 0.1% of die power");
  std::printf("stage schedule (paper Table 1%s):\n%s\n",
              p1 ? "" : ", P2 variant", format_stages(stages).c_str());

  TextTable table(row(p1, "case", "design", "P_sys (kPa)", "Tmax (K)",
                      "dT (K)", "W_pump (mW)", spec.gain_label));
  CsvWriter csv(row(p1, "case", "design", "p_sys_pa", "t_max_k", "delta_t_k",
                    "w_pump_w", "seconds"));
  auto objective_of = [&](const EvalResult& eval) {
    return p1 ? eval.w_pump : eval.at_p.delta_t;
  };

  for (int id : ids) {
    BenchmarkCase bench = make_iccad_case(id);
    if (!p1) bench.constraints.w_pump_max = problem2_pump_budget(bench);

    const BaselineOutcome base = best_straight_baseline(bench, spec.objective);
    add_design_rows(p1, id, "straight (baseline)", "straight",
                    base.feasible, base.eval, "-", "0", table, csv);
    if (spec.unpublished_row != nullptr) {
      table.add_row({cell_int(id), spec.unpublished_row, cell_na(), cell_na(),
                     cell_na(), cell_na(), "unpublished"});
    }

    TreeTopologyOptimizer opt(bench, spec.objective,
                              spec.seed_base + static_cast<std::uint64_t>(id));
    const DesignOutcome ours = opt.run(stages);
    std::string gain = "-";
    if (ours.feasible && base.feasible) {
      gain = strfmt("%.1f%%", 100.0 * (1.0 - objective_of(ours.eval) /
                                                 objective_of(base.eval)));
    }
    add_design_rows(p1, id, "tree-like (ours)", "tree", ours.feasible,
                    ours.eval, gain, cell(ours.seconds, 1), table, csv);
    table.add_rule();
    std::printf("case %d done: baseline %s, ours %s (%.0f s, %zu candidate "
                "evaluations)\n",
                id, base.feasible ? "feasible" : "infeasible",
                ours.feasible ? "feasible" : "infeasible", ours.seconds,
                ours.evaluations);
  }

  std::printf("\n%s", table.str().c_str());
  std::printf("\nexpected shape (paper): %s\n", spec.expected);
  maybe_save_csv(csv, spec.csv_name);
  return 0;
}

}  // namespace

int table3() { return run_table(kTable3); }
int table4() { return run_table(kTable4); }

}  // namespace lcn::reproduce
