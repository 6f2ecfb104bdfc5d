// E17 — island SA vs a single chain at equal evaluation budget
// (DESIGN.md §S21). K communicating chains (shared evaluator cache, shared
// Pareto archive, periodic migration) are compared against one chain given
// K× the iterations: the population's merged frontier should dominate at
// least as much objective volume as the deep single chain's, because the
// chains explore decorrelated rng streams while the archive keeps every
// feasible operating point any of them visits.
//
// Self-checking: exits nonzero if the K-chain frontier hypervolume falls
// below the single-chain one at the shared reference point.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/env.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "geom/benchmarks.hpp"
#include "opt/islands.hpp"
#include "reproduce.hpp"

namespace lcn::reproduce {

int islands() {
  banner("Island SA — K chains vs one chain at equal budget",
         "DESIGN.md §S21 (population-scale optimization)");

  const double scale = sa_scale();
  const std::vector<int> ids = case_ids("1");
  IslandOptions options = island_options_from_env();
  if (options.islands < 2) options.islands = 2;
  // The optimizer's default migration period targets full-length schedules;
  // this experiment runs short stages, so default tighter
  // (LCN_MIGRATION_PERIOD still wins when set).
  options.migration_period =
      std::max(1, static_cast<int>(env_int("LCN_MIGRATION_PERIOD", 4)));
  const int k = options.islands;
  std::printf("islands %d, migration period %d, tempering %s, SA scale %.2f "
              "(LCN_ISLANDS / LCN_MIGRATION_PERIOD / LCN_PT / LCN_SA_SCALE)\n",
              k, options.migration_period, options.tempering ? "on" : "off",
              scale);

  auto scaled = [&](int value) {
    return std::max(1, static_cast<int>(std::lround(value * scale)));
  };
  // Iterations floor at two migration points per stage: below that the
  // communication machinery never engages and the comparison measures
  // nothing but the (identical) seeding.
  auto iters = [&](int value) {
    return std::max(2 * options.migration_period, scaled(value));
  };
  const SimConfig fast{ThermalModelKind::k2RM, 4};
  std::vector<SaStage> stages;
  stages.push_back({"i1-fixedP", iters(12), 1, scaled(8), 8, fast, true, 1});
  stages.push_back({"i2-full", iters(8), 1, scaled(6), 4, fast, false, 1});
  // The single-chain reference gets the whole population's iteration budget.
  std::vector<SaStage> single_stages = stages;
  for (SaStage& stage : single_stages) stage.iterations *= k;
  IslandOptions solo;
  solo.islands = 1;

  bool ok = true;
  for (int id : ids) {
    const BenchmarkCase bench = make_iccad_case(id);
    const std::uint64_t seed = 0x15a4du + static_cast<std::uint64_t>(id);

    const WallTimer single_timer;
    IslandOptimizer single(bench, DesignObjective::kPumpingPower, solo, seed);
    const IslandOutcome out_single = single.run(single_stages);
    const double seconds_single = single_timer.seconds();

    const WallTimer pop_timer;
    IslandOptimizer pop(bench, DesignObjective::kPumpingPower, options, seed);
    const IslandOutcome out_pop = pop.run(stages);
    const double seconds_pop = pop_timer.seconds();

    // Shared hypervolume reference just beyond the worst point either
    // frontier archived, so both volumes are measured in the same frame.
    double ref_w = 0.0, ref_dt = 0.0, ref_tm = 0.0;
    for (const IslandOutcome* out : {&out_single, &out_pop}) {
      for (const ParetoPoint& p : out->archive.points()) {
        ref_w = std::max(ref_w, p.w_pump * 1.05);
        ref_dt = std::max(ref_dt, p.delta_t * 1.05);
        ref_tm = std::max(ref_tm, p.t_max * 1.05);
      }
    }
    const double hv_single = out_single.archive.hypervolume(ref_w, ref_dt,
                                                            ref_tm);
    const double hv_pop = out_pop.archive.hypervolume(ref_w, ref_dt, ref_tm);
    const double ratio = hv_single > 0.0 ? hv_pop / hv_single : 1.0;

    TextTable table({"design", "evals", "frontier", "hypervolume",
                     "best W_pump (mW)", "seconds"});
    table.add_row({"single chain (K× iters)",
                   cell_int(static_cast<int>(out_single.best.evaluations)),
                   cell_int(static_cast<int>(out_single.archive.size())),
                   cell(hv_single, 4),
                   out_single.best.feasible
                       ? cell(out_single.best.eval.w_pump * 1e3, 3)
                       : cell_na(),
                   cell(seconds_single, 2)});
    table.add_row({strfmt("%d islands", k),
                   cell_int(static_cast<int>(out_pop.best.evaluations)),
                   cell_int(static_cast<int>(out_pop.archive.size())),
                   cell(hv_pop, 4),
                   out_pop.best.feasible
                       ? cell(out_pop.best.eval.w_pump * 1e3, 3)
                       : cell_na(),
                   cell(seconds_pop, 2)});
    std::printf("case %d:\n%s", id, table.str().c_str());
    std::printf("migrations %llu/%llu, pt swaps %llu/%llu, hypervolume "
                "ratio %.3f\n",
                static_cast<unsigned long long>(out_pop.migrations),
                static_cast<unsigned long long>(out_pop.migration_attempts),
                static_cast<unsigned long long>(out_pop.pt_swaps),
                static_cast<unsigned long long>(out_pop.pt_swap_attempts),
                ratio);

    if (!(hv_pop >= hv_single)) {
      std::printf("!! case %d: island frontier hypervolume %.6g fell below "
                  "the single-chain %.6g at equal budget\n",
                  id, hv_pop, hv_single);
      ok = false;
    }
    std::printf("\n");
  }
  if (!ok) return 1;
  std::printf("island frontier dominates at least the single-chain volume "
              "on every case (self-check passed)\n");
  return 0;
}

}  // namespace lcn::reproduce
