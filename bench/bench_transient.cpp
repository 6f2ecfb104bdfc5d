// S23 — dynamic-scenario engine throughput: backward-Euler co-simulation
// stepping rate (steps/s) at the small (21×21) and Table-2 (101×101) grid
// scales under the full feedback stack — bursty power trace, thermostat
// pump with a slew limit, thermal throttling and the CDU coolant loop. A
// plan-refill vs fresh-assembly microbenchmark rides along: one transient
// step on a rebound (numeric-refill) stepper vs one step paying the full
// model + symbolic-analysis price, as the pre-§S23 pipeline did per probe.
// Every measurement is appended to bench_results/BENCH_transient.json. At
// the largest grid the bench self-checks that the refill path is >= 3x
// cheaper per step and exits nonzero if the win evaporates.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "network/generators.hpp"
#include "scenario/scenario.hpp"
#include "thermal/model_2rm.hpp"
#include "thermal/transient.hpp"

namespace {

using namespace lcn;

CoolingProblem make_problem(int g) {
  CoolingProblem problem;
  problem.grid = Grid2D(g, g, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  // Hold the areal power density fixed as the die grows.
  const double per_die =
      4.0 * (static_cast<double>(g) / 21.0) * (static_cast<double>(g) / 21.0);
  problem.source_power.push_back(synthesize_power_map(problem.grid, per_die, 21));
  problem.source_power.push_back(
      synthesize_power_map(problem.grid, 0.75 * per_die, 22));
  return problem;
}

std::vector<CoolingNetwork> replicate(const CoolingProblem& problem,
                                      const CoolingNetwork& net) {
  return std::vector<CoolingNetwork>(
      static_cast<std::size_t>(problem.stack.channel_count()), net);
}

void report(int g, const char* config, double seconds, int steps,
            const instrument::Snapshot& counters,
            std::vector<std::pair<std::string, double>> metrics) {
  const double per_step_us = 1e6 * seconds / static_cast<double>(steps);
  std::printf("  %-14s %8.1f us/step  %8.0f steps/s  (%d steps, %.3f s)\n",
              config, per_step_us,
              static_cast<double>(steps) / seconds, steps, seconds);
  benchutil::PerfRecord record;
  record.bench = "bench_transient";
  record.config = strfmt("g%d/%s", g, config);
  record.threads = global_pool_threads();
  record.seconds = seconds;
  record.metrics.emplace_back("steps", static_cast<double>(steps));
  record.metrics.emplace_back("per_step_us", per_step_us);
  record.metrics.emplace_back("steps_per_s",
                              static_cast<double>(steps) / seconds);
  for (auto& m : metrics) record.metrics.push_back(std::move(m));
  record.counters = counters;
  benchutil::append_perf_record(record, "BENCH_transient.json");
}

/// Full scenario-engine run: the §S23 feedback stack end to end.
void engine_bench(int g, const CoolingProblem& problem,
                  const CoolingNetwork& net, int steps) {
  ScenarioConfig config;
  config.sim = SimConfig{ThermalModelKind::k2RM, 4};
  config.dt = 1e-3;
  config.steps = steps;
  config.trace.kind = TraceKind::kBursty;
  config.trace.seed = 7;
  config.pump.kind = PumpPolicyKind::kThermostat;
  config.pump.p_fixed = 6.0e3;
  config.pump.t_target = 320.0;
  config.pump.gain = 400.0;
  config.pump.p_min = 2.0e3;
  config.pump.p_max = 1.2e4;
  config.pump.slew_rate = 2.0e6;
  config.throttle.t_throttle = 360.0;
  config.cdu_enabled = true;

  const instrument::Snapshot before = instrument::snapshot();
  const WallTimer timer;
  const ScenarioResult result = run_scenario(problem, net, config);
  const double seconds = timer.seconds();
  report(g, "engine", seconds, result.steps,
         instrument::delta(before, instrument::snapshot()),
         {{"peak_t_max", result.peak_t_max},
          {"peak_delta_t", result.peak_delta_t}});
}

/// Per-step price of the plan-refill path: rebind the stepper on a
/// numerically refilled assembly (new pressure, cached plan) and advance.
double refill_per_step_us(int g, const CoolingProblem& problem,
                          const std::vector<CoolingNetwork>& nets, int reps,
                          bool* ok) {
  const Thermal2RM model(problem, nets, 4);
  AssembledThermal sys = model.assemble(5.0e3);
  TransientStepper stepper(sys, 1e-3);
  std::vector<double> temps(stepper.nodes(), 300.0);
  stepper.step(temps, 1e-9);  // warm: first solve off the clock

  const instrument::Snapshot before = instrument::snapshot();
  const WallTimer timer;
  for (int i = 0; i < reps; ++i) {
    sys = model.assemble(5.0e3 + 2.0 * static_cast<double>(i));
    stepper.rebind(sys, 1e-3);
    if (!stepper.last_rebind_refilled()) {
      std::printf("  !! rebind fell back to symbolic analysis\n");
      *ok = false;
    }
    stepper.step(temps, 1e-9);
  }
  const double seconds = timer.seconds();
  report(g, "step/refill", seconds, reps,
         instrument::delta(before, instrument::snapshot()), {});
  return 1e6 * seconds / static_cast<double>(reps);
}

/// Per-step price of the historical path: a virgin model's first assembly
/// plus a from-scratch stepper (full symbolic analysis) per step.
double fresh_per_step_us(int g, const CoolingProblem& problem,
                         const std::vector<CoolingNetwork>& nets, int reps) {
  std::vector<Thermal2RM> virgins;
  virgins.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) virgins.emplace_back(problem, nets, 4);

  const instrument::Snapshot before = instrument::snapshot();
  const WallTimer timer;
  for (int i = 0; i < reps; ++i) {
    const AssembledThermal sys =
        virgins[static_cast<std::size_t>(i)].assemble(
            5.0e3 + 2.0 * static_cast<double>(i));
    TransientStepper stepper(sys, 1e-3);
    std::vector<double> temps(stepper.nodes(), 300.0);
    stepper.step(temps, 1e-9);
  }
  const double seconds = timer.seconds();
  report(g, "step/fresh", seconds, reps,
         instrument::delta(before, instrument::snapshot()), {});
  return 1e6 * seconds / static_cast<double>(reps);
}

}  // namespace

int main() {
  benchutil::banner("Dynamic-scenario engine — stepping throughput",
                    "DESIGN.md §S23 (time-capable co-simulation stack)");
  const bool fast = env_flag("LCN_FAST");
  const std::vector<int> grids = {21, 101};
  bool ok = true;

  for (int g : grids) {
    const bool large = g > 50;
    const int engine_steps = fast ? (large ? 6 : 20) : (large ? 40 : 150);
    const int refill_reps = fast ? (large ? 8 : 30) : (large ? 40 : 150);
    const int fresh_reps = fast ? (large ? 2 : 6) : (large ? 8 : 24);

    const CoolingProblem problem = make_problem(g);
    const CoolingNetwork net = make_straight_channels(problem.grid);
    const std::vector<CoolingNetwork> nets = replicate(problem, net);
    std::printf("\n%dx%d grid, 2 dies\n", g, g);

    engine_bench(g, problem, net, engine_steps);
    const double refill_us = refill_per_step_us(g, problem, nets, refill_reps,
                                                &ok);
    const double fresh_us = fresh_per_step_us(g, problem, nets, fresh_reps);
    const double speedup = fresh_us / refill_us;
    std::printf("  refill speedup: %.1fx\n", speedup);

    benchutil::PerfRecord record;
    record.bench = "bench_transient";
    record.config = strfmt("g%d/speedup", g);
    record.threads = global_pool_threads();
    record.metrics.emplace_back("refill_speedup", speedup);
    benchutil::append_perf_record(record, "BENCH_transient.json");

    // §S23 self-check at the largest grid of the sweep.
    if (g == grids.back() && speedup < 3.0) {
      std::printf("  !! expected >= 3x per-step win from plan refill\n");
      ok = false;
    }
  }

  if (!ok) {
    std::printf("\nFAILED: see !! lines above\n");
    return 1;
  }
  std::printf("\nOK\n");
  return 0;
}
