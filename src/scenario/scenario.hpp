// Dynamic-scenario engine (DESIGN.md §S23): time-stepped co-simulation of
// the chip thermal model under a pluggable power trace, a pump control
// policy with actuator limits, thermal-throttling feedback, time-triggered
// faults, and an optional rack/CDU coolant loop feeding back into the chip
// inlet temperature each step.
//
// Per step the engine
//   1. evaluates the power trace and the timed power-excursion faults into
//      per-source-layer scales, multiplied by the throttle governor's scale
//      (computed from the previous step's T_max — one-step-delayed feedback,
//      like a real DVFS loop);
//   2. applies the pump policy (fixed / per-phase schedule / thermostat)
//      under its slew-rate limit, then derates the command by the active
//      pump-droop faults and, with a CDU, by the pump curve's deliverable
//      head;
//   3. rebuilds the degraded model when the set of active channel blockages
//      changed (a full symbolic rebuild — rare), refills the assembly plan
//      when the delivered pressure changed (numeric refill), or refills only
//      the RHS when just power/boundary moved (the cheap common case);
//   4. advances one backward-Euler step, extracts T_max/ΔT, and advances the
//      CDU loop with the advected heat — its new supply temperature becomes
//      the next step's inlet temperature.
//
// Determinism: all control-path arithmetic is serial scalar math and the
// stepper's kernels follow the parallel-equivalence idiom, so trajectories
// are bit-identical for any LCN_THREADS. Cancellation: the step loop calls
// throw_if_cancelled(), so a served scenario job or a Ctrl-C'd CLI run
// unwinds promptly with lcn::Cancelled.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "flow/loop.hpp"
#include "opt/evaluator.hpp"
#include "reliability/fault_model.hpp"
#include "thermal/boundary.hpp"
#include "thermal/transient.hpp"

namespace lcn {

/// One workload interval: per-source-layer scale factors on the nominal
/// power maps for `duration` seconds. (Shared with the run-time flow
/// planner in src/opt/runtime_flow.*, which generalized into this engine.)
struct PowerPhase {
  /// Scale factors applied to each source layer's nominal power map.
  std::vector<double> layer_scale;
  double duration = 1.0;  ///< s
};

enum class TraceKind : std::uint8_t {
  kConstant = 0,  ///< fixed scale on every layer
  kPhases = 1,    ///< explicit PowerPhase schedule (per-layer scales)
  kPeriodic = 2,  ///< square wave between `low` and `high`
  kBursty = 3,    ///< seeded two-state (idle/burst) renewal process
};

struct PowerTrace {
  TraceKind kind = TraceKind::kConstant;
  double scale = 1.0;  ///< kConstant scale
  /// kPhases: the schedule. Step counts per phase are ceil(duration/dt)
  /// (min 1), overriding ScenarioConfig::steps.
  std::vector<PowerPhase> phases;
  // kPeriodic: square wave, `high` for the first `duty` fraction of each
  // period, `low` for the rest.
  double period = 0.1;  ///< s
  double duty = 0.5;
  double low = 0.5;
  double high = 1.0;
  // kBursty: alternates idle_scale/burst_scale; state durations are drawn
  // exponentially with the given means from a deterministic per-trace rng
  // stream, so the trace depends only on `seed`.
  double idle_scale = 0.5;
  double burst_scale = 1.5;
  double mean_idle = 0.05;   ///< s
  double mean_burst = 0.02;  ///< s
  std::uint64_t seed = 1;
};

enum class PumpPolicyKind : std::uint8_t {
  kFixed = 0,       ///< constant commanded pressure
  kSchedule = 1,    ///< one commanded pressure per trace phase
  kThermostat = 2,  ///< proportional on (T_max − t_target)
};

/// Pump controller. Commands are chip pressure drops in Pa; the actuator
/// limit caps the command's rate of change at `slew_rate` Pa/s.
struct PumpPolicy {
  PumpPolicyKind kind = PumpPolicyKind::kFixed;
  double p_fixed = 5.0e3;  ///< kFixed command / kThermostat base, Pa
  /// kSchedule: commanded pressure per phase (aligned with trace.phases).
  std::vector<double> schedule;
  // kThermostat: p = clamp(p_fixed + gain·(T_prev_max − t_target)).
  double t_target = 345.0;  ///< K
  double gain = 500.0;      ///< Pa/K
  double p_min = 1.0e3;     ///< Pa (must stay positive: P_sys > 0)
  double p_max = 2.0e4;     ///< Pa
  /// Max |dP/dt| of the command, Pa/s; 0 = unlimited.
  double slew_rate = 0.0;
};

/// Thermal throttling: power scale as a function of the previous step's
/// T_max — 1 below `t_throttle`, linear down to `min_scale` at `t_critical`.
struct ThrottlePolicy {
  double t_throttle = 0.0;  ///< K; <= 0 disables throttling
  double t_critical = 0.0;  ///< K; <= t_throttle resolves to t_throttle + 5
  double min_scale = 0.2;
};

struct ScenarioConfig {
  SimConfig sim{ThermalModelKind::k2RM, 4};
  double dt = 1e-3;  ///< s
  /// Step count (kPhases traces derive it from the phase durations).
  int steps = 100;
  double rel_tolerance = 1e-9;
  PowerTrace trace;
  PumpPolicy pump;
  ThrottlePolicy throttle;
  /// Timed faults on the scenario clock. Channel blockages must have
  /// severity < 1 (partial): the engine carries the temperature state across
  /// the rebuild, which requires a structure-preserving degradation.
  std::vector<TimedFault> faults;
  bool cdu_enabled = false;
  CduConfig cdu;
};

struct ScenarioSample {
  int step = 0;        ///< 1-based
  double time = 0.0;   ///< s, end of step
  int phase = -1;      ///< kPhases index, -1 otherwise
  double t_max = 0.0;  ///< K
  double delta_t = 0.0;
  double power_scale = 1.0;     ///< trace scale (layer 0, before throttle)
  double throttle_scale = 1.0;  ///< governor scale applied this step
  double p_command = 0.0;       ///< Pa after the slew limit
  double p_delivered = 0.0;     ///< Pa after droop derate / pump curve
  double inlet_temperature = 0.0;  ///< K, chip inlet this step
  double w_pump = 0.0;             ///< W at the delivered pressure
  double heat_to_coolant = 0.0;    ///< W advected out by the coolant
  double cdu_supply = 0.0;  ///< K loop supply (0 when no CDU)
  double cdu_return = 0.0;  ///< K loop return (0 when no CDU)
};

struct ScenarioResult {
  std::vector<ScenarioSample> samples;
  double peak_t_max = 0.0;
  double peak_delta_t = 0.0;
  double final_inlet = 0.0;  ///< K, last step's chip inlet
  std::vector<double> final_temps;
  int steps = 0;
};

using ScenarioCallback = std::function<void(const ScenarioSample&)>;

/// Total step count a config will run (phase traces override `steps`).
int scenario_step_count(const ScenarioConfig& config);

/// Run a scenario on one (problem, network) pair. `on_sample` (optional) is
/// invoked after every step, before the sample lands in the result — the
/// CLI streams rows from it. Each sample is also mirrored to the session's
/// ProgressSink and the trace ring as a `scenario_step` instant (§S19/§S22).
ScenarioResult run_scenario(const CoolingProblem& problem,
                            const CoolingNetwork& network,
                            const ScenarioConfig& config,
                            const ScenarioCallback& on_sample = {});

}  // namespace lcn
