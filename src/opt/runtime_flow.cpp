#include "opt/runtime_flow.hpp"

#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "thermal/transient.hpp"

namespace lcn {

RuntimePlan plan_runtime_flow(const CoolingProblem& nominal,
                              const CoolingNetwork& network,
                              const DesignConstraints& limits,
                              const std::vector<PowerPhase>& phases,
                              const RuntimeOptions& options) {
  LCN_REQUIRE(!phases.empty(), "need at least one power phase");
  RuntimePlan plan;
  plan.feasible = true;

  for (const PowerPhase& phase : phases) {
    LCN_REQUIRE(phase.layer_scale.size() == nominal.source_power.size(),
                "one scale factor per source layer required");
    LCN_REQUIRE(phase.duration > 0.0, "phase duration must be positive");

    CoolingProblem scaled = nominal;
    for (std::size_t i = 0; i < scaled.source_power.size(); ++i) {
      LCN_REQUIRE(phase.layer_scale[i] >= 0.0,
                  "power scale must be non-negative");
      scaled.source_power[i].scale_to(nominal.source_power[i].total() *
                                      phase.layer_scale[i]);
    }

    PhasePlan pp;
    const EvalResult result = evaluate(scaled, network, limits,
                                       EvalMode::kFullP1, options.sim,
                                       options.search);
    pp.feasible = result.feasible;
    if (result.feasible) {
      pp.p_sys = result.p_sys;
      pp.w_pump = result.w_pump;
      pp.at_p = result.at_p;
    }
    plan.feasible = plan.feasible && pp.feasible;
    plan.phases.push_back(pp);
  }

  if (plan.feasible) {
    double worst_pressure = 0.0;
    for (const PhasePlan& pp : plan.phases) {
      worst_pressure = std::max(worst_pressure, pp.p_sys);
    }
    // Pumping power scales as P²/R with a power-independent R, so the
    // worst-case-pressure energy uses the same resistance.
    double r_sys = 0.0;
    if (!plan.phases.empty() && plan.phases.front().p_sys > 0.0) {
      r_sys = plan.phases.front().p_sys * plan.phases.front().p_sys /
              plan.phases.front().w_pump;
    }
    for (std::size_t i = 0; i < phases.size(); ++i) {
      plan.adaptive_energy += plan.phases[i].w_pump * phases[i].duration;
      plan.worst_case_energy +=
          (worst_pressure * worst_pressure / r_sys) * phases[i].duration;
    }
  }
  return plan;
}

TransientCheck verify_plan_transient(const CoolingProblem& nominal,
                                     const CoolingNetwork& network,
                                     const DesignConstraints& limits,
                                     const std::vector<PowerPhase>& phases,
                                     const RuntimePlan& plan, double dt,
                                     const RuntimeOptions& options) {
  LCN_REQUIRE(plan.feasible, "can only verify a feasible plan");
  LCN_REQUIRE(plan.phases.size() == phases.size(),
              "plan/phase count mismatch");
  LCN_REQUIRE(dt > 0.0, "time step must be positive");

  // Ride the scenario engine: the phases become a kPhases trace and the
  // plan's pressures a per-phase pump schedule. State carries across phase
  // switches inside the engine; power scaling rides the RHS boundary, so
  // only the pressure changes touch the operator.
  ScenarioConfig scenario;
  scenario.sim = options.sim;
  scenario.dt = dt;
  scenario.rel_tolerance = 1e-9;
  scenario.trace.kind = TraceKind::kPhases;
  scenario.trace.phases = phases;
  scenario.pump.kind = PumpPolicyKind::kSchedule;
  for (const PhasePlan& pp : plan.phases) {
    scenario.pump.schedule.push_back(pp.p_sys);
  }

  TransientCheck check;
  check.phase_peaks.assign(phases.size(), 0.0);
  const ScenarioResult result = run_scenario(nominal, network, scenario);
  for (const ScenarioSample& s : result.samples) {
    LCN_CHECK(s.phase >= 0 &&
                  s.phase < static_cast<int>(check.phase_peaks.size()),
              "phase trace must tag every sample");
    double& peak = check.phase_peaks[static_cast<std::size_t>(s.phase)];
    peak = std::max(peak, s.t_max);
  }
  check.peak_t_max = result.peak_t_max;
  check.peak_delta_t = result.peak_delta_t;
  check.within_t_max = check.peak_t_max <= limits.t_max * (1.0 + 1e-6);
  return check;
}

}  // namespace lcn
