#include "reliability/fault_model.hpp"

#include <algorithm>
#include <limits>

#include "common/strings.hpp"

namespace lcn {

namespace {

/// Liquid cell nearest to (row, col): smallest squared Euclidean distance,
/// ties broken by the ascending scan order (lowest linear id), so the mapping
/// is deterministic for any candidate network. Returns the grid linear id,
/// or SIZE_MAX when the network has no liquid cells.
std::size_t nearest_liquid_cell(const Grid2D& grid,
                                const std::vector<std::size_t>& liquid,
                                int row, int col) {
  std::size_t best = std::numeric_limits<std::size_t>::max();
  long best_d2 = std::numeric_limits<long>::max();
  for (const std::size_t cell : liquid) {
    const CellCoord cc = grid.coord(cell);
    const long dr = cc.row - row;
    const long dc = cc.col - col;
    const long d2 = dr * dr + dc * dc;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = cell;
    }
  }
  return best;
}

void apply_blockage(DegradedSystem& sys, const Fault& fault) {
  const Grid2D& grid = sys.network.grid();
  // Collect the affected liquid cells: each patch cell maps to the nearest
  // liquid cell (dedup'd), so a blockage defined on a solid region still
  // lands on the channel it would clog in practice.
  const std::vector<std::size_t> liquid = sys.network.liquid_cells();
  std::vector<std::size_t> targets;
  for (int r = fault.row - fault.radius; r <= fault.row + fault.radius; ++r) {
    for (int c = fault.col - fault.radius; c <= fault.col + fault.radius;
         ++c) {
      const std::size_t cell = nearest_liquid_cell(grid, liquid, r, c);
      if (cell == std::numeric_limits<std::size_t>::max()) continue;
      if (std::find(targets.begin(), targets.end(), cell) == targets.end()) {
        targets.push_back(cell);
      }
    }
  }
  if (fault.severity >= 1.0) {
    for (const std::size_t cell : targets) {
      const CellCoord cc = grid.coord(cell);
      sys.network.remove_ports_at(cc.row, cc.col);
      sys.network.set_solid(cc.row, cc.col);
    }
    return;
  }
  if (fault.severity <= 0.0) return;  // zero-magnitude: bit-identical system
  std::vector<double>& scale =
      sys.problem.flow_options.cell_conductance_scale;
  if (scale.empty()) scale.assign(grid.cell_count(), 1.0);
  const double factor = std::max(1.0 - fault.severity, 1e-6);
  for (const std::size_t cell : targets) {
    scale[cell] = std::max(scale[cell] * factor, 1e-6);
  }
}

/// Activation of a timed fault at time t: 0 before onset, linear over the
/// ramp, 1 afterwards.
double timed_activation(const TimedFault& timed, double t) {
  if (t < timed.onset) return 0.0;
  if (timed.ramp <= 0.0) return 1.0;
  const double a = (t - timed.onset) / timed.ramp;
  return a < 1.0 ? a : 1.0;
}

}  // namespace

std::string FaultScenario::describe() const {
  if (faults.empty()) return "nominal";
  std::string out;
  for (const Fault& fault : faults) {
    if (!out.empty()) out += " + ";
    switch (fault.kind) {
      case FaultKind::kChannelBlockage:
        out += strfmt("block(%d,%d r%d %s)", fault.row, fault.col,
                      fault.radius,
                      fault.severity >= 1.0
                          ? "full"
                          : strfmt("%.0f%%", fault.severity * 100.0).c_str());
        break;
      case FaultKind::kPumpDroop:
        out += strfmt("droop(%.0f%%)", fault.severity * 100.0);
        break;
      case FaultKind::kInletDrift:
        out += strfmt("drift(+%.1fK)", fault.magnitude);
        break;
      case FaultKind::kPowerExcursion:
        out += fault.layer < 0
                   ? strfmt("power(all +%.0f%%)", fault.magnitude * 100.0)
                   : strfmt("power(L%d +%.0f%%)", fault.layer,
                            fault.magnitude * 100.0);
        break;
    }
  }
  return out;
}

DegradedSystem apply_scenario(const CoolingProblem& nominal,
                              const CoolingNetwork& network,
                              const FaultScenario& scenario) {
  LCN_REQUIRE(network.grid() == nominal.grid,
              "apply_scenario: network grid must match the problem grid");
  const ScenarioSplit split = split_scenario(nominal, scenario);
  DegradedSystem sys{nominal, network, split.pressure_derate};
  for (const Fault& fault : split.structural.faults) apply_blockage(sys, fault);
  sys.problem.inlet_temperature = split.boundary.inlet_temperature;
  for (std::size_t l = 0; l < split.boundary.power_scale.size(); ++l) {
    PowerMap& map = sys.problem.source_power[l];
    for (int r = 0; r < map.grid().rows(); ++r) {
      for (int c = 0; c < map.grid().cols(); ++c) {
        map.at(r, c) *= split.boundary.power_scale[l];
      }
    }
  }
  return sys;
}

ScenarioSplit split_scenario(const CoolingProblem& nominal,
                             const FaultScenario& scenario) {
  ScenarioSplit split;
  split.boundary.inlet_temperature = nominal.inlet_temperature;
  const auto layers = static_cast<int>(nominal.source_power.size());
  for (const Fault& fault : scenario.faults) {
    switch (fault.kind) {
      case FaultKind::kChannelBlockage:
        split.structural.faults.push_back(fault);
        break;
      case FaultKind::kPumpDroop:
        LCN_REQUIRE(fault.severity >= 0.0 && fault.severity < 1.0,
                    "pump droop severity must be in [0, 1)");
        split.pressure_derate *= 1.0 - fault.severity;
        break;
      case FaultKind::kInletDrift:
        split.boundary.inlet_temperature += fault.magnitude;
        break;
      case FaultKind::kPowerExcursion: {
        LCN_REQUIRE(fault.layer < layers,
                    "power excursion layer out of range");
        std::vector<double>& scale = split.boundary.power_scale;
        if (scale.empty()) scale.assign(nominal.source_power.size(), 1.0);
        for (int l = 0; l < layers; ++l) {
          if (fault.layer >= 0 && l != fault.layer) continue;
          scale[static_cast<std::size_t>(l)] *= 1.0 + fault.magnitude;
        }
        break;
      }
    }
  }
  return split;
}

FaultScenario sample_scenario(const FaultDistribution& distribution,
                              const Grid2D& grid, int source_layers,
                              Rng& rng) {
  FaultScenario scenario;
  for (int k = 0; k < distribution.max_blockages; ++k) {
    if (rng.next_double() >= distribution.p_blockage) break;
    Fault fault;
    fault.kind = FaultKind::kChannelBlockage;
    fault.row = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(grid.rows())));
    fault.col = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(grid.cols())));
    fault.radius = distribution.radius_max > 0
                       ? static_cast<int>(rng.next_below(
                             static_cast<std::uint64_t>(
                                 distribution.radius_max + 1)))
                       : 0;
    fault.severity =
        rng.next_double() < distribution.full_blockage_fraction
            ? 1.0
            : rng.next_real(distribution.severity_min,
                            distribution.severity_max);
    scenario.faults.push_back(fault);
  }
  if (rng.next_double() < distribution.p_pump_droop) {
    Fault fault;
    fault.kind = FaultKind::kPumpDroop;
    fault.severity = rng.next_real(0.0, distribution.droop_max);
    scenario.faults.push_back(fault);
  }
  if (rng.next_double() < distribution.p_inlet_drift) {
    Fault fault;
    fault.kind = FaultKind::kInletDrift;
    fault.magnitude = rng.next_real(0.0, distribution.drift_max);
    scenario.faults.push_back(fault);
  }
  if (rng.next_double() < distribution.p_power_excursion && source_layers > 0) {
    Fault fault;
    fault.kind = FaultKind::kPowerExcursion;
    fault.magnitude = rng.next_real(0.0, distribution.excursion_max);
    // One extra slot means "all layers at once".
    const auto pick = rng.next_below(
        static_cast<std::uint64_t>(source_layers) + 1);
    fault.layer = pick == static_cast<std::uint64_t>(source_layers)
                      ? -1
                      : static_cast<int>(pick);
    scenario.faults.push_back(fault);
  }
  return scenario;
}

Rng scenario_rng(std::uint64_t seed, std::size_t index) {
  SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(index) *
                        0x9e3779b97f4a7c15ULL));
  return Rng(sm.next());
}

FaultScenario active_structural_faults(const std::vector<TimedFault>& faults,
                                       double t) {
  FaultScenario active;
  for (const TimedFault& timed : faults) {
    if (timed.fault.kind != FaultKind::kChannelBlockage) continue;
    if (t >= timed.onset) active.faults.push_back(timed.fault);
  }
  return active;
}

double timed_pressure_derate(const std::vector<TimedFault>& faults, double t) {
  double derate = 1.0;
  for (const TimedFault& timed : faults) {
    if (timed.fault.kind != FaultKind::kPumpDroop) continue;
    derate *= 1.0 - timed.fault.severity * timed_activation(timed, t);
  }
  return derate;
}

double timed_inlet_drift(const std::vector<TimedFault>& faults, double t) {
  double drift = 0.0;
  for (const TimedFault& timed : faults) {
    if (timed.fault.kind != FaultKind::kInletDrift) continue;
    drift += timed.fault.magnitude * timed_activation(timed, t);
  }
  return drift;
}

double timed_power_factor(const std::vector<TimedFault>& faults, double t,
                          int source_layer) {
  double factor = 1.0;
  for (const TimedFault& timed : faults) {
    if (timed.fault.kind != FaultKind::kPowerExcursion) continue;
    if (timed.fault.layer != -1 && timed.fault.layer != source_layer) continue;
    factor *= 1.0 + timed.fault.magnitude * timed_activation(timed, t);
  }
  return factor;
}

}  // namespace lcn
