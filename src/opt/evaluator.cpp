#include "opt/evaluator.hpp"

#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "common/trace.hpp"

namespace lcn {

ThermalModel make_thermal_model(const CoolingProblem& problem,
                                const CoolingNetwork& network,
                                const SimConfig& config) {
  std::vector<CoolingNetwork> nets(
      static_cast<std::size_t>(problem.stack.channel_count()), network);
  if (config.model == ThermalModelKind::k4RM) {
    return ThermalModel(std::in_place_type<Thermal4RM>, problem,
                        std::move(nets));
  }
  return ThermalModel(std::in_place_type<Thermal2RM>, problem, std::move(nets),
                      config.thermal_cell);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::atomic<int> tight_search_scopes{0};

/// ΔT (or, with `zero` = T_in, T_max) as a search compares it with
/// `target`: solved loosely, and tightly inside the guard band.
PressureProbe guarded(SystemEvaluator& eval, double ThermalProbe::*metric,
                      double target, double zero = 0.0) {
  return guard_probe(
      [&eval, metric](double p) {
        return eval.probe(p, ProbeAccuracy::kSearch).*metric;
      },
      [&eval, metric](double p) { return eval.probe(p).*metric; }, target,
      zero);
}

PressureProbe guarded_t_max(SystemEvaluator& eval, double target) {
  return guarded(eval, &ThermalProbe::t_max, target, eval.inlet_temperature());
}

}  // namespace

ScopedTightSearchProbes::ScopedTightSearchProbes() { ++tight_search_scopes; }
ScopedTightSearchProbes::~ScopedTightSearchProbes() { --tight_search_scopes; }

SystemEvaluator::SystemEvaluator(const CoolingProblem& problem,
                                 const CoolingNetwork& network,
                                 const SimConfig& config)
    : SystemEvaluator(std::make_shared<const ThermalModel>(
                          make_thermal_model(problem, network, config)),
                      BoundaryState{problem.inlet_temperature, {}}) {}

SystemEvaluator::SystemEvaluator(std::shared_ptr<const ThermalModel> model,
                                 BoundaryState boundary,
                                 std::vector<double> first_guess)
    : model_(std::move(model)),
      boundary_(std::move(boundary)),
      first_guess_(std::move(first_guess)) {
  LCN_REQUIRE(model_ != nullptr, "evaluator needs a thermal model");
}

AssembledThermal SystemEvaluator::assemble(double p_sys) const {
  return std::visit(
      [this, p_sys](const auto& sim) { return sim.assemble(p_sys, boundary_); },
      *model_);
}

ThermalProbe SystemEvaluator::probe(double p_sys, ProbeAccuracy accuracy) {
  // A NaN key would break the map's ordering.
  LCN_REQUIRE(p_sys > 0.0 && std::isfinite(p_sys),
              "probe pressure must be positive and finite");
  if (tight_search_scopes.load(std::memory_order_relaxed) > 0) {
    accuracy = ProbeAccuracy::kVerdict;
  }
  const auto seen = solved_.find(p_sys);
  if (seen != solved_.end() &&
      (seen->second.accuracy == ProbeAccuracy::kVerdict ||
       accuracy == ProbeAccuracy::kSearch)) {
    return seen->second.probe;
  }
  const trace::Span span("thermal_probe", trace::kFine);
  const std::vector<double> guess = initial_guess(p_sys);
  const AssembledThermal system = assemble(p_sys);
  ThermalField field = solve_steady(
      system,
      accuracy == ProbeAccuracy::kSearch ? kSearchProbeTolerance
                                         : kVerdictTolerance,
      guess.empty() ? nullptr : &guess, &workspace_);
  ++simulations_;
  const ThermalProbe result{field.delta_t, field.t_max};
  solved_.insert_or_assign(
      p_sys, Solved{result, accuracy, std::move(field.temperatures)});
  return result;
}

std::vector<double> SystemEvaluator::initial_guess(double p_sys) const {
  const auto above = solved_.lower_bound(p_sys);
  if (above != solved_.end() && above->first == p_sys) {
    return above->second.temperatures;  // the loose field here
  }
  if (above == solved_.begin()) {
    return above == solved_.end() ? first_guess_ : above->second.temperatures;
  }
  const auto below = std::prev(above);
  if (above == solved_.end()) return below->second.temperatures;
  // The coolant's temperature rise scales as 1/Q ∝ 1/P, so interpolate the
  // two bracketing fields linearly in 1/P.
  const double w = (1.0 / p_sys - 1.0 / above->first) /
                   (1.0 / below->first - 1.0 / above->first);
  const std::vector<double>& lo = below->second.temperatures;
  const std::vector<double>& hi = above->second.temperatures;
  std::vector<double> guess(hi.size());
  for (std::size_t i = 0; i < guess.size(); ++i) {
    guess[i] = hi[i] + w * (lo[i] - hi[i]);
  }
  return guess;
}

std::vector<double> SystemEvaluator::solved_temperatures(double p_sys) const {
  const auto seen = solved_.find(p_sys);
  return seen == solved_.end() ? std::vector<double>{}
                               : seen->second.temperatures;
}

double SystemEvaluator::pumping_power(double p_sys) const {
  return std::visit(
      [p_sys](const auto& sim) { return sim.pumping_power(p_sys); }, *model_);
}

double SystemEvaluator::system_resistance() const {
  const double q = std::visit(
      [](const auto& sim) { return sim.system_flow(1.0); }, *model_);
  LCN_CHECK(q > 0.0, "system flow at unit pressure must be positive");
  return 1.0 / q;
}

ThermalField SystemEvaluator::field(double p_sys) const {
  return solve_steady(assemble(p_sys));
}

EvalResult EvalResult::infeasible_result() {
  EvalResult out;
  out.score = kInf;
  out.feasible = false;
  return out;
}

EvalResult evaluate_p1(SystemEvaluator& eval, const DesignConstraints& limits,
                       const PressureSearchOptions& options,
                       double entry_hint) {
  // Step 1 (Algorithm 2 line 1): minimize P_sys under the ΔT constraint.
  const PressureSearchResult gradient = minimize_pressure_for_target(
      guarded(eval, &ThermalProbe::delta_t, limits.delta_t_max),
      limits.delta_t_max, options, entry_hint);
  if (!gradient.feasible) return EvalResult::infeasible_result();

  double p_sys = gradient.p_sys;

  // Step 2 (lines 3-5): if T*_max is violated, push P_sys up along the
  // monotone h; then re-check both constraints (raising P_sys may have moved
  // ΔT past its minimum back above ΔT*).
  const PressureProbe t_max = guarded_t_max(eval, limits.t_max);
  if (t_max(p_sys) > limits.t_max) {
    const PressureSearchResult peak = minimize_pressure_monotone(
        t_max, limits.t_max, p_sys, options.p_max, options);
    if (!peak.feasible) return EvalResult::infeasible_result();
    p_sys = peak.p_sys;
  }

  const ThermalProbe at_p = eval.probe(p_sys);
  if (at_p.delta_t > limits.delta_t_max * (1.0 + 1e-9) ||
      at_p.t_max > limits.t_max * (1.0 + 1e-9)) {
    return EvalResult::infeasible_result();
  }

  EvalResult out;
  out.feasible = true;
  out.p_sys = p_sys;
  out.w_pump = eval.pumping_power(p_sys);
  out.score = out.w_pump;
  out.at_p = at_p;
  return out;
}

EvalResult evaluate_p2(SystemEvaluator& eval, const DesignConstraints& limits,
                       const PressureSearchOptions& options) {
  LCN_REQUIRE(limits.w_pump_max > 0.0,
              "Problem 2 needs a positive pumping-power budget");
  // W = P²/R  =>  the budget caps the pressure at P* = sqrt(W*·R).
  const double p_star =
      std::sqrt(limits.w_pump_max * eval.system_resistance());
  if (p_star < options.p_min) return EvalResult::infeasible_result();

  // If P* sits on the falling side of f, it is optimal outright (§5);
  // detect it with one backward probe, otherwise golden-section. Both compare
  // loose ΔT probes and re-solve tightly the pairs inside the guard band.
  const PressureProbe loose_dt = [&eval](double p) {
    return eval.probe(p, ProbeAccuracy::kSearch).delta_t;
  };
  const PressureProbe tight_dt = [&eval](double p) { return eval.delta_t(p); };
  double p_opt;
  double f_star = loose_dt(p_star);
  const double p_back = p_star * 0.95;
  bool falling = false;
  if (p_back >= options.p_min) {
    double f_back = loose_dt(p_back);
    if (within_guard_band(f_back, f_star) ||
        within_guard_band(f_star, f_back)) {
      f_star = tight_dt(p_star);
      f_back = tight_dt(p_back);
    }
    falling = f_back >= f_star;
  }
  if (falling) {
    p_opt = p_star;
  } else {
    const double lo = std::max(options.p_min, p_star * 1e-3);
    p_opt = golden_section_min(loose_dt, lo, p_star, options, tight_dt).p_sys;
  }

  // Enforce T*_max: increasing pressure lowers T_max but must stay under P*.
  const PressureProbe t_max = guarded_t_max(eval, limits.t_max);
  if (t_max(p_opt) > limits.t_max) {
    const PressureSearchResult peak = minimize_pressure_monotone(
        t_max, limits.t_max, p_opt, p_star, options);
    if (!peak.feasible) return EvalResult::infeasible_result();
    p_opt = peak.p_sys;
  }

  const ThermalProbe at_p = eval.probe(p_opt);
  if (at_p.t_max > limits.t_max * (1.0 + 1e-9)) {
    return EvalResult::infeasible_result();
  }

  EvalResult out;
  out.feasible = true;
  out.p_sys = p_opt;
  out.w_pump = eval.pumping_power(p_opt);
  out.score = at_p.delta_t;
  out.at_p = at_p;
  return out;
}

EvalResult evaluate_p2_at(SystemEvaluator& eval,
                          const DesignConstraints& limits, double p_sys) {
  LCN_REQUIRE(p_sys > 0.0, "fixed evaluation pressure must be positive");
  const double w = eval.pumping_power(p_sys);
  if (limits.w_pump_max > 0.0 && w > limits.w_pump_max * (1.0 + 1e-9)) {
    return EvalResult::infeasible_result();
  }
  const ThermalProbe at_p = eval.probe(p_sys);
  if (at_p.t_max > limits.t_max * (1.0 + 1e-9)) {
    return EvalResult::infeasible_result();
  }
  EvalResult out;
  out.feasible = true;
  out.p_sys = p_sys;
  out.w_pump = w;
  out.score = at_p.delta_t;
  out.at_p = at_p;
  return out;
}

double p1_entry_hint(const CoolingProblem& problem,
                     const CoolingNetwork& network,
                     const DesignConstraints& limits,
                     const PressureSearchOptions& search) {
  try {
    SystemEvaluator coarse(problem, network, SimConfig{});
    return minimize_pressure_for_target(
               guarded(coarse, &ThermalProbe::delta_t, limits.delta_t_max),
               limits.delta_t_max, search)
        .p_sys;
  } catch (const RuntimeError&) {
    instrument::add(instrument::Counter::search_entry_fallbacks);
    return 0.0;
  }
}

EvalResult evaluate(const CoolingProblem& problem,
                    const CoolingNetwork& network,
                    const DesignConstraints& limits, EvalMode mode,
                    const SimConfig& sim, const PressureSearchOptions& search,
                    double pressure) {
  try {
    SystemEvaluator eval(problem, network, sim);
    switch (mode) {
      case EvalMode::kFullP1:
        // Built after `eval`, so a network that cannot be evaluated costs
        // no 2RM search.
        return evaluate_p1(eval, limits, search,
                           sim.model == ThermalModelKind::k4RM
                               ? p1_entry_hint(problem, network, limits,
                                               search)
                               : 0.0);
      case EvalMode::kFullP2:
        return evaluate_p2(eval, limits, search);
      case EvalMode::kP2Follower:
        return evaluate_p2_at(eval, limits, pressure);
      case EvalMode::kFixedPressure: {
        // ΔT at a fixed pressure: one simulation (§4.4 stage 1).
        const ThermalProbe at_p = eval.probe(pressure);
        return {.score = at_p.delta_t, .feasible = true, .p_sys = pressure,
                .w_pump = eval.pumping_power(pressure), .at_p = at_p};
      }
    }
  } catch (const RuntimeError&) {
    instrument::add(instrument::Counter::eval_failures);
  }
  return EvalResult::infeasible_result();
}

}  // namespace lcn
