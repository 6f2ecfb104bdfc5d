// Timing contracts: the speed-ups the symbolic/numeric split (DESIGN.md
// §S18), the split ILU(0) and fused BiCGSTAB kernels (§S18), the transient
// stepper (§S23), the metrics registry (§S24) and the fair-share scheduler
// (§S22) exist for. Each compares two wall times taken in one process, so
// the tests build into their own binary and run with RUN_SERIAL: a parallel
// ctest run would skew the ratios. Workload sizes are small smoke sizes; the
// thresholds leave room for a noisy host.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/instrument.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "geom/benchmarks.hpp"
#include "network/generators.hpp"
#include "reference_krylov.hpp"
#include "service/scheduler.hpp"
#include "sparse/solvers.hpp"
#include "thermal/model_2rm.hpp"
#include "thermal/model_4rm.hpp"
#include "thermal/transient.hpp"

namespace lcn {
namespace {

/// Per-call wall time of `slow(i)` over `slow_reps` calls divided by that of
/// `fast(i)` over `fast_reps` calls.
template <class Slow, class Fast>
double time_ratio(int slow_reps, Slow slow, int fast_reps, Fast fast) {
  const WallTimer slow_timer;
  for (int i = 0; i < slow_reps; ++i) slow(i);
  const double slow_s = slow_timer.seconds() / slow_reps;
  const WallTimer fast_timer;
  for (int i = 0; i < fast_reps; ++i) fast(i);
  return slow_s / (fast_timer.seconds() / fast_reps);
}

/// The largest speed-up of three runs of `measure`, each with its own
/// set-up: a shared host can slow any one run, a regression slows all three.
template <class Measure>
double best_of_three(Measure measure) {
  return std::max({measure(), measure(), measure()});
}

double probe_pressure(int i) { return 3000.0 + 7.0 * static_cast<double>(i); }

/// Assembly speed-up of a model whose plan is built over `fresh_reps` models
/// that never assembled, so each pays the full symbolic + numeric cost.
template <class Model, class... Args>
double assembly_speedup(int fresh_reps, int refill_reps, const Args&... args) {
  return best_of_three([&] {
    std::vector<Model> fresh;
    fresh.reserve(static_cast<std::size_t>(fresh_reps));
    for (int i = 0; i < fresh_reps; ++i) fresh.emplace_back(args...);
    const Model probing(args...);
    probing.assemble(probe_pressure(0));
    return time_ratio(
        fresh_reps, [&](int i) { fresh[i].assemble(probe_pressure(i)); },
        refill_reps, [&](int i) { probing.assemble(probe_pressure(i)); });
  });
}

std::vector<CoolingNetwork> case1_tree(const BenchmarkCase& bench) {
  return {make_tree_network(bench.problem.grid,
                            make_uniform_layout(bench.problem.grid, 30, 64))};
}

TEST(TimingContract, Refill2RmAssemblyAtLeastTwiceFresh) {
  const BenchmarkCase bench = make_iccad_case(1);
  EXPECT_GE(assembly_speedup<Thermal2RM>(4, 60, bench.problem,
                                         case1_tree(bench), 4),
            2.0);
}

TEST(TimingContract, Refill4RmAssemblyAtLeastTwiceFresh) {
  const BenchmarkCase bench = make_iccad_case(1);
  EXPECT_GE(
      assembly_speedup<Thermal4RM>(2, 20, bench.problem, case1_tree(bench)),
      2.0);
}

TEST(TimingContract, RefillSteadyProbeAtLeastTwiceFresh) {
  // A full probe is assemble + preconditioner + steady solve, the unit the
  // pressure searches pay per P_sys. Fresh: a new model, a from-scratch ILU
  // and an allocating solve. Refill: the cached plan, a numeric-only
  // refactorization and a persistent workspace. Both walk a tight pressure
  // ladder with warm starts, like Algorithm 2's searches.
  const BenchmarkCase bench = make_iccad_case(1);
  const std::vector<CoolingNetwork> nets = case1_tree(bench);
  auto probe = [](const AssembledThermal& sys, std::vector<double>& warm,
                  SteadyWorkspace* ws) {
    warm = solve_steady(sys, 1e-9, warm.empty() ? nullptr : &warm, ws)
               .temperatures;
  };
  EXPECT_GE(best_of_three([&] {
              std::vector<Thermal2RM> fresh;
              fresh.reserve(6);
              for (int i = 0; i < 6; ++i) {
                fresh.emplace_back(bench.problem, nets, 4);
              }
              const Thermal2RM probing(bench.problem, nets, 4);
              probing.assemble(4000.0);
              SteadyWorkspace workspace;
              std::vector<double> fresh_warm;
              std::vector<double> refill_warm;
              return time_ratio(
                  6,
                  [&](int i) {
                    probe(fresh[i].assemble(4000.0 + i), fresh_warm, nullptr);
                  },
                  30,
                  [&](int i) {
                    probe(probing.assemble(4000.0 + i), refill_warm,
                          &workspace);
                  });
            }),
            2.0);
}

TEST(TimingContract, FusedKernelsSolve4RmAtLeast1p25xReference) {
  // One Krylov iteration is two ILU(0) applies, two SpMVs and the vector
  // passes. The split, reciprocal-pivot factor and the fused BiCGSTAB race
  // the CSR-layout factor and the textbook loop (tests/reference_krylov.hpp)
  // on a cold 1e-9 solve of the case-1 4RM system, the sign-off's unit of
  // work, at 1 thread like the benchmark's design_1t_s.
  const BenchmarkCase bench = make_iccad_case(1);
  const Thermal4RM model(bench.problem, case1_tree(bench));
  const AssembledThermal sys = model.assemble(1e4);
  const sparse::CsrMatrix& a = sys.matrix;
  const sparse::Ilu0Preconditioner split(a);
  const reference::Ilu0 csr(a);
  const sparse::Vector cold(a.rows(), sys.inlet_temperature);
  sparse::SolveOptions opts;
  opts.rel_tolerance = 1e-9;
  const std::size_t saved_threads = global_pool_threads();
  set_global_pool_threads(1);
  sparse::Vector x;
  EXPECT_GE(best_of_three([&] {
              return time_ratio(
                  1,
                  [&](int) {
                    x = cold;
                    EXPECT_TRUE(reference::bicgstab(a, sys.rhs, x, csr, 1e-9,
                                                    10 * a.rows() + 100)
                                    .converged);
                  },
                  1,
                  [&](int) {
                    x = cold;
                    sparse::SolverWorkspace ws;
                    EXPECT_TRUE(
                        sparse::bicgstab_solve(a, sys.rhs, x, split, ws, opts)
                            .converged);
                  });
            }),
            1.25);
  set_global_pool_threads(saved_threads);
}

TEST(TimingContract, TransientRefillStepAtLeastThriceFresh) {
  // The Table-2 scale: a 101x101 grid, two dies, straight channels.
  CoolingProblem problem;
  problem.grid = Grid2D(101, 101, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  const double per_die = 4.0 * (101.0 / 21.0) * (101.0 / 21.0);
  problem.source_power.push_back(
      synthesize_power_map(problem.grid, per_die, 21));
  problem.source_power.push_back(
      synthesize_power_map(problem.grid, 0.75 * per_die, 22));
  const std::vector<CoolingNetwork> nets(
      static_cast<std::size_t>(problem.stack.channel_count()),
      make_straight_channels(problem.grid));
  auto pressure = [](int i) { return 5.0e3 + 2.0 * static_cast<double>(i); };

  EXPECT_GE(best_of_three([&] {
              // Fresh: a new model's first assembly plus a new stepper.
              std::vector<Thermal2RM> fresh;
              fresh.reserve(2);
              for (int i = 0; i < 2; ++i) fresh.emplace_back(problem, nets, 4);
              // Refill: rebind one stepper on a numerically refilled
              // assembly.
              const Thermal2RM model(problem, nets, 4);
              AssembledThermal sys = model.assemble(pressure(0));
              TransientStepper stepper(sys, 1e-3);
              std::vector<double> temps(stepper.nodes(), 300.0);
              stepper.step(temps, 1e-9);  // first solve off the clock
              return time_ratio(
                  2,
                  [&](int i) {
                    const AssembledThermal fresh_sys =
                        fresh[i].assemble(pressure(i));
                    TransientStepper fresh_stepper(fresh_sys, 1e-3);
                    std::vector<double> t(fresh_stepper.nodes(), 300.0);
                    fresh_stepper.step(t, 1e-9);
                  },
                  8,
                  [&](int i) {
                    sys = model.assemble(pressure(i));
                    stepper.rebind(sys, 1e-3);
                    EXPECT_TRUE(stepper.last_rebind_refilled())
                        << "rebind " << i;
                    stepper.step(temps, 1e-9);
                  });
            }),
            3.0);
}

TEST(TimingContract, MetricsObserveWithinBoundOfCounterAdd) {
  // An enabled observation is a 38-bound lower_bound plus two relaxed adds,
  // so single digits are expected; the bound is generous because a
  // regression (a lock, an allocation) lands far beyond it.
  constexpr double kMaxObserveOverAdd = 40.0;
  constexpr int kIters = 2'000'000;
  const int saved_level = trace::level();
  trace::set_level(trace::kFine);
  // Values spanning the bucket range, so the bucket search is not one
  // branch-predicted path.
  std::vector<double> values(1024);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1e-6 * static_cast<double>(1 + (i * 37) % 4000);
  }
  const auto& histogram = metrics::global_shard().histograms[static_cast<
      std::size_t>(metrics::Hist::cache_lookup_seconds)];
  const std::uint64_t count_before = histogram.snapshot().count;
  EXPECT_LE(time_ratio(
                kIters,
                [&](int i) {
                  metrics::observe(metrics::Hist::cache_lookup_seconds,
                                   values[i & (values.size() - 1)]);
                },
                kIters,
                [](int) {
                  instrument::add(instrument::Counter::pressure_probes);
                }),
            kMaxObserveOverAdd);
  trace::set_level(saved_level);
  EXPECT_EQ(histogram.snapshot().count - count_before,
            static_cast<std::uint64_t>(kIters));
}

TEST(TimingContract, FourServiceLanesDoubleThroughput) {
  // Single evaluate jobs are Amdahl-limited, so concurrent lanes overlap
  // independent solves. With fewer than 4 cores there is no overlap to win.
  const std::size_t hardware = std::thread::hardware_concurrency();
  const std::size_t pool = global_pool_threads();
  if (hardware < 4 || pool < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads and a pool of >= 4 (hardware "
                 << hardware << ", pool " << pool << ")";
  }
  service::JobRequest request;
  request.kind = service::JobKind::kEvaluate;
  request.case_id = 1;
  request.sim = SimConfig{ThermalModelKind::k2RM, 4};
  // `jobs` evaluate jobs on `lanes` lanes; every one must complete.
  auto serve = [&](std::size_t lanes, int jobs) {
    service::Scheduler scheduler(service::Scheduler::Options{lanes});
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < jobs; ++i) ids.push_back(scheduler.submit(request));
    for (const std::uint64_t id : ids) {
      const service::JobResult result = scheduler.wait(id);
      EXPECT_EQ(result.status, service::JobStatus::kDone)
          << "job " << id << ": " << result.error;
    }
  };
  // Prewarm the shared flow-plan cache, so both widths measure steady-state
  // serving rather than the first tenant's plan analysis.
  serve(1, 1);
  EXPECT_GE(best_of_three([&] {
              return time_ratio(
                  1, [&](int) { serve(1, 8); }, 1, [&](int) { serve(4, 8); });
            }),
            2.0);
}

}  // namespace
}  // namespace lcn
