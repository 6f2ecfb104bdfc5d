#include "reliability/robust.hpp"

#include "common/instrument.hpp"

namespace lcn {

RobustSample::RobustSample(const Grid2D& grid, int source_layers,
                           const RobustOptions& options) {
  LCN_REQUIRE(options.scenarios >= 0,
              "robust scenario count must be non-negative");
  scenarios_.reserve(static_cast<std::size_t>(options.scenarios));
  std::uint64_t fp = 0x9e3779b97f4a7c15ULL ^
                     static_cast<std::uint64_t>(options.scenarios);
  for (int k = 0; k < options.scenarios; ++k) {
    Rng rng = scenario_rng(options.seed, static_cast<std::size_t>(k));
    FaultScenario scenario =
        sample_scenario(options.distribution, grid, source_layers, rng);
    fp ^= scenario_fingerprint(scenario) + 0x9e3779b97f4a7c15ULL +
          (fp << 6) + (fp >> 2);
    scenarios_.push_back(std::move(scenario));
  }
  fingerprint_ = fp;
}

EvalResult robust_evaluate(const CoolingProblem& nominal,
                           const CoolingNetwork& network,
                           const DesignConstraints& limits, EvalMode mode,
                           const SimConfig& sim,
                           const PressureSearchOptions& search,
                           const RobustSample& sample) {
  LCN_REQUIRE(mode == EvalMode::kFullP1 || mode == EvalMode::kFullP2,
              "robust evaluation supports the full P1/P2 modes only");
  EvalResult worst = evaluate(nominal, network, limits, mode, sim, search);
  if (!worst.feasible) return worst;

  for (const FaultScenario& scenario : sample.scenarios()) {
    const DegradedSystem degraded =
        apply_scenario(nominal, network, scenario);
    instrument::add(instrument::Counter::scenarios_evaluated);
    EvalResult result = evaluate(degraded.problem, degraded.network, limits,
                                 mode, sim, search);
    // A droop caps the pressure the search may assume: scale the found
    // operating point back to the commanded frame so scores stay in
    // commanded-pressure units across scenarios.
    if (!result.feasible) {
      instrument::add(instrument::Counter::scenarios_infeasible);
      return EvalResult::infeasible_result();
    }
    if (degraded.pressure_derate != 1.0) {
      result.p_sys /= degraded.pressure_derate;
    }
    if (result.score > worst.score) worst = result;
  }
  return worst;
}

}  // namespace lcn
