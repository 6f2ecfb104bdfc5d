// Fault models for cooling-network reliability analysis (DESIGN.md §S17).
//
// Every evaluation elsewhere in the library assumes a pristine system: exact
// channel geometry, nominal pump pressure, nominal inlet temperature. Real
// interlayer liquid cooling degrades — channels clog with particulates, pumps
// droop, inlet coolant warms, workloads overshoot their power budgets. A
// `FaultScenario` is a list of such perturbations; applying it to a
// (problem, network) pair yields a *degraded copy* of both without mutating
// the originals, so the nominal design stays available for comparison.
//
// Fault semantics:
//   kChannelBlockage  a square patch of radius `radius` around (row, col),
//                     mapped to the nearest liquid cells of the network at
//                     apply time (fault locations are defined on the grid so
//                     one scenario is applicable to any candidate network).
//                     severity < 1 scales the hydraulic conductance of the
//                     affected cells by (1 - severity) via
//                     FlowOptions::cell_conductance_scale; severity >= 1
//                     removes the cells (and their ports) outright.
//   kPumpDroop        the pump delivers only (1 - severity) of the commanded
//                     pressure; recorded as DegradedSystem::pressure_derate.
//   kInletDrift       inlet coolant enters `magnitude` K warmer.
//   kPowerExcursion   one source layer (or all, layer = -1) dissipates
//                     (1 + magnitude) times its nominal power.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "network/cooling_network.hpp"
#include "thermal/boundary.hpp"
#include "thermal/problem.hpp"

namespace lcn {

enum class FaultKind : std::uint8_t {
  kChannelBlockage = 0,
  kPumpDroop = 1,
  kInletDrift = 2,
  kPowerExcursion = 3,
};

struct Fault {
  FaultKind kind = FaultKind::kPumpDroop;
  /// Blockage patch center (grid frame) and Chebyshev radius.
  int row = 0;
  int col = 0;
  int radius = 0;
  /// Blockage / pump-droop severity in [0, 1]; 1 = full loss.
  double severity = 0.0;
  /// Inlet drift in K, or fractional power excursion (0.2 = +20 %).
  double magnitude = 0.0;
  /// Source layer hit by a power excursion; -1 = all layers.
  int layer = -1;

  friend bool operator==(const Fault&, const Fault&) = default;
};

struct FaultScenario {
  std::vector<Fault> faults;

  bool empty() const { return faults.empty(); }
  /// Short human-readable summary, e.g. "block(12,8 r1 70%) + droop(20%)".
  std::string describe() const;
};

/// A degraded copy of the system under one scenario. `pressure_derate` maps
/// commanded pump pressure to delivered pressure (droop faults compose
/// multiplicatively); geometry and boundary-condition faults are baked into
/// `problem` / `network`.
struct DegradedSystem {
  CoolingProblem problem;
  CoolingNetwork network;
  double pressure_derate = 1.0;

  double delivered_pressure(double commanded_p_sys) const {
    return commanded_p_sys * pressure_derate;
  }
};

/// Apply a scenario; the inputs are untouched. A zero-magnitude scenario
/// returns bit-identical copies (unit conductance scales are not installed),
/// so its evaluation reproduces the nominal metrics exactly.
DegradedSystem apply_scenario(const CoolingProblem& nominal,
                              const CoolingNetwork& network,
                              const FaultScenario& scenario);

/// A scenario split the way the dynamic engine applies faults (§S23): only
/// blockages change the hydraulic structure (apply `structural` to get the
/// degraded network); droop only derates the pump; inlet drift and power
/// excursions only touch the right-hand side, as a BoundaryState over the
/// nominal problem. `boundary.power_scale` stays empty (nominal power,
/// added verbatim) when no excursion is present. Drifts add and droops and
/// excursions multiply in fault order. apply_scenario() bakes the same
/// split into its copy.
struct ScenarioSplit {
  FaultScenario structural;
  double pressure_derate = 1.0;
  BoundaryState boundary;
};

ScenarioSplit split_scenario(const CoolingProblem& nominal,
                             const FaultScenario& scenario);

/// Distribution the Monte-Carlo engine samples scenarios from. Each fault
/// class appears independently with its own probability; magnitudes are
/// uniform over the configured ranges. Defaults model routine wear
/// (moderate clogging, mild droop/drift) with occasional severe events.
struct FaultDistribution {
  double p_blockage = 0.6;           ///< P(at least the first blockage)
  int max_blockages = 2;             ///< further ones at p_blockage^k
  double full_blockage_fraction = 0.2;  ///< share of blockages that are full
  double severity_min = 0.3;         ///< partial-blockage severity range
  double severity_max = 0.9;
  int radius_max = 1;                ///< blockage patch Chebyshev radius

  double p_pump_droop = 0.35;
  double droop_max = 0.3;            ///< up to 30 % pressure loss

  double p_inlet_drift = 0.35;
  double drift_max = 8.0;            ///< up to +8 K inlet temperature

  double p_power_excursion = 0.3;
  double excursion_max = 0.25;       ///< up to +25 % layer power
};

/// Sample one scenario. Blockage centers are uniform over the grid;
/// `source_layers` bounds the power-excursion layer choice.
FaultScenario sample_scenario(const FaultDistribution& distribution,
                              const Grid2D& grid, int source_layers, Rng& rng);

/// Independent per-scenario rng stream keyed by (seed, index) — the PR-1
/// per-neighbor pattern, so sweep sampling is identical no matter which
/// thread draws which scenario.
Rng scenario_rng(std::uint64_t seed, std::size_t index);

// --- Time-triggered faults (DESIGN.md §S23).
//
// A dynamic scenario schedules faults on the simulation clock: a blockage
// appears at its onset time, a pump droop ramps in over `ramp` seconds, the
// inlet drifts warmer as the facility loop loads up. Continuous fault kinds
// (droop, drift, excursion) scale linearly with the activation; structural
// faults (blockage) switch on at onset at full configured severity — a
// partially ramped blockage would change the hydraulic structure every step.

struct TimedFault {
  double onset = 0.0;  ///< s on the scenario clock
  double ramp = 0.0;   ///< s from onset to full effect; 0 = step change
  Fault fault;
};

/// Structural (blockage) faults active at time t, at full severity.
/// Feed to apply_scenario() when the active set changes.
FaultScenario active_structural_faults(const std::vector<TimedFault>& faults,
                                       double t);

/// Commanded→delivered pressure factor at t: droop faults compose
/// multiplicatively, each scaled by its activation.
double timed_pressure_derate(const std::vector<TimedFault>& faults, double t);

/// Additional inlet warming at t, K: drift magnitudes sum, each scaled by
/// its activation.
double timed_inlet_drift(const std::vector<TimedFault>& faults, double t);

/// Power multiplier for one source layer at t: excursion faults hitting the
/// layer (or all layers) compose multiplicatively.
double timed_power_factor(const std::vector<TimedFault>& faults, double t,
                          int source_layer);

}  // namespace lcn
