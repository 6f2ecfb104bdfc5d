#include "reliability/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/instrument.hpp"
#include "common/strings.hpp"
#include "common/task_context.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"

namespace lcn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Linear-interpolated quantile of an unsorted sample (deterministic: the
/// sample is copied and sorted; comparisons on doubles are exact).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace

const char* recovery_kind_name(RecoveryKind kind) {
  switch (kind) {
    case RecoveryKind::kNotNeeded: return "ok";
    case RecoveryKind::kRecovered: return "recovered";
    case RecoveryKind::kUnrecoverable: return "unrecoverable";
  }
  return "?";
}

NominalDesign evaluate_nominal(const CoolingProblem& problem,
                               const CoolingNetwork& network,
                               double p_command, const SimConfig& sim) {
  LCN_REQUIRE(p_command > 0.0, "commanded pressure must be positive");
  SystemEvaluator eval(problem, network, sim);
  const ThermalProbe at_p = eval.probe(p_command);
  return NominalDesign{problem,
                       network,
                       sim,
                       p_command,
                       eval.model(),
                       at_p,
                       eval.pumping_power(p_command),
                       eval.solved_temperatures(p_command)};
}

ScenarioOutcome evaluate_scenario(const NominalDesign& nominal,
                                  const FaultScenario& scenario,
                                  const DesignConstraints& limits,
                                  const SweepOptions& options) {
  ScenarioSplit split = split_scenario(nominal.problem, scenario);
  ScenarioOutcome out;
  out.scenario = scenario;
  out.p_delivered = nominal.p_command * split.pressure_derate;
  out.t_margin = -kInf;
  out.dt_margin = -kInf;
  // The nominal field, shifted by the inlet drift, starts the first solve
  // (a full blockage that removes nodes falls back to T_in).
  std::vector<double> first_guess = nominal.temperatures;
  const double drift =
      split.boundary.inlet_temperature - nominal.problem.inlet_temperature;
  for (double& t : first_guess) t += drift;
  // Own evaluator, not evaluate(): recovery reuses its model and probes.
  // probe() solves at verdict accuracy — the margins are reported numbers —
  // and the recovery search's loose probes warm-start from that field.
  try {
    std::shared_ptr<const ThermalModel> model = nominal.model;
    if (!split.structural.empty()) {
      const DegradedSystem degraded =
          apply_scenario(nominal.problem, nominal.network, split.structural);
      model = std::make_shared<const ThermalModel>(make_thermal_model(
          degraded.problem, degraded.network, nominal.sim));
    }
    SystemEvaluator eval(std::move(model), std::move(split.boundary),
                         std::move(first_guess));
    out.at_p = eval.probe(out.p_delivered);
    out.w_pump = eval.pumping_power(out.p_delivered);
    out.evaluated = true;
    out.t_margin = limits.t_max - out.at_p.t_max;
    out.dt_margin = limits.delta_t_max - out.at_p.delta_t;
    out.feasible = out.t_margin >= 0.0 && out.dt_margin >= 0.0;
    if (!out.feasible) {
      instrument::add(instrument::Counter::scenarios_infeasible);
      if (options.plan_recovery) {
        instrument::add(instrument::Counter::recovery_searches);
        // Algorithm 2 on the degraded system: the smallest *delivered*
        // pressure meeting both limits; the pump must command it through
        // the droop. The scenario is known to fail at p_delivered, so the
        // search enters its cold grid there; the hinted walk returns the
        // cold search's point.
        const EvalResult recovery =
            evaluate_p1(eval, limits, options.search, out.p_delivered);
        if (recovery.feasible) {
          out.recovery = RecoveryKind::kRecovered;
          out.recovery_p_sys = recovery.p_sys / split.pressure_derate;
          out.recovery_w_pump = recovery.w_pump;
        } else {
          out.recovery = RecoveryKind::kUnrecoverable;
        }
      }
    }
  } catch (const RuntimeError&) {
    // The degraded flow system is not evaluable (every inlet decoupled, a
    // liquid component cut off from its ports, ...): no pump command can
    // help, so the scenario is unrecoverable by construction.
    out.evaluated = false;
    instrument::add(instrument::Counter::scenarios_infeasible);
    out.recovery = RecoveryKind::kUnrecoverable;
  }
  instrument::add(instrument::Counter::scenarios_evaluated);
  return out;
}

SweepReport run_sweep(const CoolingProblem& problem,
                      const CoolingNetwork& network,
                      const DesignConstraints& limits, double p_nominal,
                      const SweepOptions& options) {
  LCN_REQUIRE(options.scenarios >= 0, "scenario count must be non-negative");
  LCN_REQUIRE(p_nominal > 0.0, "nominal pressure must be positive");
  trace::Span sweep_span("reliability_sweep");
  if (sweep_span.active()) {
    sweep_span.set_args(strfmt("\"scenarios\":%d,\"seed\":%llu",
                               options.scenarios,
                               static_cast<unsigned long long>(options.seed)));
  }
  WallTimer timer;

  // Exceptions from the nominal evaluation propagate to the caller.
  const NominalDesign nominal =
      evaluate_nominal(problem, network, p_nominal, options.sim);
  SweepReport report;
  report.p_nominal = p_nominal;
  report.nominal = nominal.at_p;
  report.w_nominal = nominal.w_pump;

  const int source_layers = static_cast<int>(problem.source_power.size());
  const auto n = static_cast<std::size_t>(options.scenarios);
  report.outcomes.resize(n);

  // Fan scenarios over the pool. Each index samples from its own (seed, k)
  // stream and writes only its slot, so the outcome vector — and every
  // statistic reduced from it below in index order — is bit-identical at any
  // thread count.
  global_pool().parallel_for(n, [&](std::size_t k) {
    // Cooperative cancellation (§S22): a cancelled sweep's report is
    // discarded wholesale, so short-circuiting remaining scenarios here
    // cannot leak a partial statistic.
    throw_if_cancelled();
    const trace::Span span("fault_scenario", trace::kFine);
    Rng rng = scenario_rng(options.seed, k);
    const FaultScenario scenario =
        sample_scenario(options.distribution, problem.grid, source_layers,
                        rng);
    report.outcomes[k] =
        evaluate_scenario(nominal, scenario, limits, options);
  });

  // Reduce in scenario order.
  std::vector<double> t_margins;
  std::vector<double> dt_margins;
  t_margins.reserve(n);
  dt_margins.reserve(n);
  std::size_t exceed_t = 0;
  std::size_t exceed_dt = 0;
  double worst_margin = kInf;
  double recovery_extra = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const ScenarioOutcome& out = report.outcomes[k];
    if (out.evaluated) {
      ++report.evaluated;
      t_margins.push_back(out.t_margin);
      dt_margins.push_back(out.dt_margin);
    }
    if (!out.evaluated || out.at_p.t_max > limits.t_max) ++exceed_t;
    if (!out.evaluated || out.at_p.delta_t > limits.delta_t_max) ++exceed_dt;
    if (!out.feasible) ++report.infeasible;
    if (out.recovery == RecoveryKind::kRecovered) {
      ++report.recovered;
      recovery_extra += out.recovery_w_pump - report.w_nominal;
    } else if (out.recovery == RecoveryKind::kUnrecoverable) {
      ++report.unrecoverable;
    }
    if (out.t_margin < worst_margin) {
      worst_margin = out.t_margin;
      report.worst_scenario = static_cast<int>(k);
    }
  }
  if (n > 0) {
    const auto dn = static_cast<double>(n);
    report.p_exceed_t_max = static_cast<double>(exceed_t) / dn;
    report.p_exceed_delta_t = static_cast<double>(exceed_dt) / dn;
    report.p_infeasible = static_cast<double>(report.infeasible) / dn;
  }
  if (report.recovered > 0) {
    report.mean_recovery_w_extra =
        recovery_extra / static_cast<double>(report.recovered);
  }
  report.t_margin_q10 = quantile(t_margins, 0.1);
  report.t_margin_q50 = quantile(t_margins, 0.5);
  report.t_margin_q90 = quantile(t_margins, 0.9);
  report.dt_margin_q10 = quantile(dt_margins, 0.1);
  report.dt_margin_q50 = quantile(dt_margins, 0.5);
  report.dt_margin_q90 = quantile(dt_margins, 0.9);
  report.seconds = timer.seconds();
  return report;
}

}  // namespace lcn
