// 4-register-model thermal simulation (paper §2.2).
//
// Thermal cells conform to the basic-cell grid in every layer: each cell of
// each layer is one node. Heat transfer:
//   solid–solid   (Eq. 4)  conduction through cuboids,
//   solid–liquid  (Eq. 5)  convective film in series with half-cell
//                          conduction, both vertically (top/bottom channel
//                          walls) and in-plane (side walls),
//   liquid–liquid (Eq. 6)  advection with central differencing on the local
//                          flow rates from the flow solver.
// This is the accurate/sign-off simulator the 2RM model is validated against
// (Fig. 9) and matches the ICCAD 2015 contest extension of 3D-ICE.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "thermal/assembly_plan.hpp"
#include "thermal/field.hpp"
#include "thermal/problem.hpp"
#include "network/cooling_network.hpp"

namespace lcn {

class Thermal4RM {
 public:
  /// `networks` carries one cooling network per channel layer (ordered by
  /// Layer::channel_index). Unit-pressure flow fields are solved here once;
  /// simulate() scales them to any P_sys (the flow problem is linear).
  Thermal4RM(CoolingProblem problem, std::vector<CoolingNetwork> networks);

  /// Assemble the steady RC system at a given system pressure drop. First
  /// call builds the cached AssemblyPlan (symbolic pattern + P_sys-invariant
  /// values); every call — including the first — produces a system
  /// bit-identical to the historical fresh traversal.
  AssembledThermal assemble(double p_sys) const {
    return plan().assemble(p_sys);
  }
  /// assemble(p_sys) under a per-step boundary (inlet temperature, power
  /// scale per source layer; ThermalAssemblyPlan::assemble).
  AssembledThermal assemble(double p_sys, const BoundaryState& boundary) const {
    return plan().assemble(p_sys, boundary);
  }

  /// The cached symbolic assembly plan (built on first use; shared across
  /// copies of this model).
  const ThermalAssemblyPlan& plan() const;

  /// Assemble + solve + extract metrics.
  ThermalField simulate(double p_sys) const;

  /// Total pumping power over all channel layers at P_sys (Eq. 10; layers
  /// share the same pressure drop and their flows add).
  double pumping_power(double p_sys) const;
  /// Total system volumetric flow at P_sys.
  double system_flow(double p_sys) const;

  const CoolingProblem& problem() const { return problem_; }
  const std::vector<CoolingNetwork>& networks() const { return networks_; }
  const FlowSolution& flow(int channel_index) const {
    return flows_.at(static_cast<std::size_t>(channel_index));
  }

  std::size_t node_count() const;

  /// Node id of (layer, row, col) — exposed for tests and map extraction.
  std::size_t node(int layer, int row, int col) const;

 private:
  std::shared_ptr<const ThermalAssemblyPlan> build_plan() const;

  CoolingProblem problem_;
  std::vector<CoolingNetwork> networks_;
  std::vector<FlowSolution> flows_;  ///< unit-pressure, per channel layer
  /// Lazily-built assembly plan; shared_ptr members keep the model copyable
  /// (copies share the cached plan — it depends only on immutable state).
  mutable std::shared_ptr<std::mutex> plan_mutex_ =
      std::make_shared<std::mutex>();
  mutable std::shared_ptr<const ThermalAssemblyPlan> plan_;
};

}  // namespace lcn
