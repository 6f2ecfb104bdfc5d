// S20 — next-gen solver core: multigrid vs ILU(0) preconditioning on 4RM
// steady solves, swept over grid sizes from the Table-2 scale (101×101
// cells) up to ≥4× that node count (202×202). Per (grid, config) it reports
// Krylov iterations and wall time; a SELL-C-σ vs CSR SpMV microbenchmark
// rides along. Every measurement is appended to
// bench_results/BENCH_multigrid.json. At the largest grid the bench
// self-checks the §S20 claim — multigrid cuts Krylov iterations by at least
// 3× vs ILU(0) — and exits nonzero if the win evaporates.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "network/generators.hpp"
#include "sparse/sell.hpp"
#include "thermal/model_4rm.hpp"

namespace {

using namespace lcn;

CoolingProblem make_problem(int g) {
  CoolingProblem problem;
  problem.grid = Grid2D(g, g, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  // Keep the areal power density at the Table-2 scale as the die grows.
  const double per_die = 25.0 * (static_cast<double>(g) / 101.0) *
                         (static_cast<double>(g) / 101.0);
  for (int die = 0; die < 2; ++die) {
    problem.source_power.emplace_back(problem.grid, per_die);
  }
  return problem;
}

struct Run {
  double seconds = 0.0;
  std::uint64_t krylov_iters = 0;
  instrument::Snapshot counters;
};

Run timed_solve(const AssembledThermal& system, const SteadySolverConfig& cfg) {
  Run run;
  SteadyWorkspace ws;  // fresh per config: setup cost is part of the price
  const instrument::Snapshot before = instrument::snapshot();
  const WallTimer timer;
  const ThermalField field = solve_steady(system, 1e-9, nullptr, &ws, &cfg);
  run.seconds = timer.seconds();
  run.counters = instrument::delta(before, instrument::snapshot());
  run.krylov_iters =
      run.counters.bicgstab_iterations + run.counters.gmres_iterations;
  (void)field;
  return run;
}

void report(int g, std::size_t nodes, const char* config, const Run& run,
            double speedup_vs_ilu = 0.0) {
  std::printf("  %-12s %8llu iters  %8.3f s\n", config,
              static_cast<unsigned long long>(run.krylov_iters), run.seconds);
  benchutil::PerfRecord record;
  record.bench = "bench_multigrid";
  record.config = strfmt("g%d/%s", g, config);
  record.threads = global_pool_threads();
  record.seconds = run.seconds;
  record.metrics.emplace_back("nodes", static_cast<double>(nodes));
  record.metrics.emplace_back("krylov_iters",
                              static_cast<double>(run.krylov_iters));
  if (speedup_vs_ilu > 0.0) {
    record.metrics.emplace_back("time_speedup_vs_ilu0", speedup_vs_ilu);
  }
  record.counters = run.counters;
  benchutil::append_perf_record(record, "BENCH_multigrid.json");
}

void spmv_microbench(int g, const sparse::CsrMatrix& a) {
  const int reps = 50;
  sparse::Vector x(a.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 1e-3 * static_cast<double>(i % 97);
  }
  sparse::Vector y;
  a.multiply(x, y);  // warm
  const WallTimer csr_timer;
  for (int r = 0; r < reps; ++r) a.multiply(x, y);
  const double csr_s = csr_timer.seconds();

  const sparse::SellMatrix sell(a);
  sell.multiply(x, y);  // warm
  const WallTimer sell_timer;
  for (int r = 0; r < reps; ++r) sell.multiply(x, y);
  const double sell_s = sell_timer.seconds();

  const double pad = static_cast<double>(sell.padded_slots()) /
                     static_cast<double>(sell.nnz());
  std::printf("  spmv x%d      csr %.4f s   sell %.4f s   (%.2fx, padding "
              "%.3f)\n",
              reps, csr_s, sell_s, csr_s / sell_s, pad);
  benchutil::PerfRecord record;
  record.bench = "bench_multigrid";
  record.config = strfmt("g%d/spmv", g);
  record.threads = global_pool_threads();
  record.seconds = sell_s;
  record.metrics.emplace_back("csr_seconds", csr_s);
  record.metrics.emplace_back("sell_seconds", sell_s);
  record.metrics.emplace_back("sell_speedup", csr_s / sell_s);
  record.metrics.emplace_back("sell_padding_ratio", pad);
  benchutil::append_perf_record(record, "BENCH_multigrid.json");
}

}  // namespace

int main() {
  benchutil::banner("Multigrid vs ILU(0) — 4RM steady solves",
                    "DESIGN.md §S20 (next-gen solver core)");
  const bool fast = env_flag("LCN_FAST");
  // Table-2 dies are 101×101 cells; the large point holds ≥4× that node
  // count. LCN_FAST shrinks the sweep for CI smoke runs.
  const std::vector<int> grids = fast ? std::vector<int>{51, 101}
                                      : std::vector<int>{101, 202};
  bool ok = true;

  for (int g : grids) {
    const CoolingProblem problem = make_problem(g);
    const std::vector<CoolingNetwork> nets(
        static_cast<std::size_t>(problem.stack.channel_count()),
        make_straight_channels(problem.grid));
    const Thermal4RM sim(problem, nets);
    const AssembledThermal system = sim.assemble(2000.0);
    const std::size_t nodes = system.matrix.rows();
    std::printf("\n%dx%d grid, 2 dies: %zu nodes, %zu nnz\n", g, g, nodes,
                system.matrix.nnz());

    // Config names keep their "-fp64" suffix so records stay comparable
    // with earlier BENCH_multigrid.json lines.
    SteadySolverConfig ilu_cfg;  // default: ILU(0)
    const Run ilu = timed_solve(system, ilu_cfg);
    report(g, nodes, "ilu0-fp64", ilu);

    SteadySolverConfig mg_cfg;
    mg_cfg.precon = SteadySolverConfig::Precon::kMultigrid;
    const Run mg = timed_solve(system, mg_cfg);
    report(g, nodes, "mg-fp64", mg, ilu.seconds / mg.seconds);

    std::printf("  mg-fp64 vs ilu0: %.1fx fewer iterations, %.2fx wall time\n",
                static_cast<double>(ilu.krylov_iters) /
                    static_cast<double>(std::max<std::uint64_t>(
                        mg.krylov_iters, 1)),
                ilu.seconds / mg.seconds);

    spmv_microbench(g, system.matrix);

    // §S20 self-check at the largest grid of the sweep.
    if (g == grids.back()) {
      if (mg.krylov_iters * 3 > ilu.krylov_iters) {
        std::printf("  !! expected >= 3x Krylov iteration reduction from "
                    "multigrid\n");
        ok = false;
      }
      if (!fast && mg.seconds >= ilu.seconds) {
        std::printf("  !! expected a wall-time win from multigrid\n");
        ok = false;
      }
    }
  }

  if (!ok) {
    std::printf("\nFAILED: see !! lines above\n");
    return 1;
  }
  std::printf("\nOK\n");
  return 0;
}
