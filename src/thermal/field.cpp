#include "thermal/field.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "common/trace.hpp"
#include "sparse/solvers.hpp"
#include "sparse/vector_ops.hpp"

namespace lcn {

ThermalField make_field(const AssembledThermal& system,
                        std::vector<double> temperatures) {
  LCN_REQUIRE(temperatures.size() == system.matrix.rows(),
              "temperature vector size mismatch");
  ThermalField field;
  field.temperatures = std::move(temperatures);
  field.map_rows = system.map_rows;
  field.map_cols = system.map_cols;

  field.t_max = 0.0;
  field.delta_t = 0.0;
  for (const auto& nodes : system.source_nodes) {
    std::vector<double> map;
    map.reserve(nodes.size());
    double lo = 1e300;
    double hi = -1e300;
    for (std::size_t node : nodes) {
      const double t = field.temperatures[node];
      map.push_back(t);
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    field.per_layer_delta.push_back(hi - lo);
    field.delta_t = std::max(field.delta_t, hi - lo);
    field.t_max = std::max(field.t_max, hi);
    field.source_maps.push_back(std::move(map));
  }
  return field;
}

double advected_heat(const AssembledThermal& system,
                     const std::vector<double>& temperatures) {
  double sum = 0.0;
  for (const auto& [node, flow] : system.outlet_terms) {
    sum += system.volumetric_heat * flow *
           (temperatures[node] - system.inlet_temperature);
  }
  return sum;
}

bool true_residual_ok(const sparse::CsrMatrix& matrix,
                      const sparse::Vector& rhs, const sparse::Vector& x,
                      double rel_tolerance) {
  sparse::Vector r = matrix.multiply(x);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = rhs[i] - r[i];
  const double bnorm = sparse::norm2(rhs);
  const double rnorm = sparse::norm2(r);
  if (rnorm <= 10.0 * rel_tolerance * bnorm) return true;
  instrument::add(instrument::Counter::residual_violations);
  return false;
}

void SteadyWorkspace::factor(const sparse::CsrMatrix& matrix) {
  const trace::Span span("ilu_factor", trace::kFine,
                         metrics::Hist::ilu_factor_seconds);
  if (precon_.has_value()) {
    precon_->refactor(matrix);
  } else {
    precon_.emplace(matrix);
  }
}

void SteadyWorkspace::solve(const sparse::CsrMatrix& matrix,
                            const sparse::Vector& rhs, sparse::Vector& x,
                            const std::string& context, double rel_tolerance) {
  LCN_REQUIRE(precon_.has_value(), "SteadyWorkspace::solve before factor()");
  const auto fail = [&](const std::string& why) {
    instrument::add(instrument::Counter::steady_solve_failures);
    throw RuntimeError(context + ": " + why);
  };
  sparse::SolveOptions opts;
  opts.rel_tolerance = rel_tolerance;
  const auto bicgstab = [&] {
    const sparse::SolveReport report =
        sparse::bicgstab_solve(matrix, rhs, x, *precon_, krylov_, opts);
    if (report.converged) return;
    fail("BiCGSTAB failed to converge (rel residual " +
         std::to_string(report.relative_residual) + " after " +
         std::to_string(report.iterations) + " iterations)");
  };
  bicgstab();
  if (true_residual_ok(matrix, rhs, x, rel_tolerance)) return;
  // Restarting from x resets the recurrence to the true residual.
  opts.rel_tolerance = 0.1 * rel_tolerance;
  bicgstab();
  if (!true_residual_ok(matrix, rhs, x, rel_tolerance)) {
    fail("true residual above 10x the tolerance " +
         std::to_string(rel_tolerance) + " after a re-solve");
  }
}

ThermalField solve_steady(const AssembledThermal& system, double rel_tolerance,
                          const std::vector<double>* initial_guess,
                          SteadyWorkspace* workspace) {
  std::vector<double> temps;
  if (initial_guess != nullptr &&
      initial_guess->size() == system.matrix.rows()) {
    temps = *initial_guess;
  } else {
    temps.assign(system.matrix.rows(), system.inlet_temperature);
  }
  SteadyWorkspace local;
  SteadyWorkspace& ws = workspace != nullptr ? *workspace : local;
  {
    // The timed interval is the factor plus the solve.
    const trace::Span span("solve_steady", trace::kFine,
                           metrics::Hist::solve_steady_seconds);
    ws.factor(system.matrix);
    ws.solve(system.matrix, system.rhs, temps, "steady thermal solve",
             rel_tolerance);
  }
  instrument::add(instrument::Counter::steady_solves);
  return make_field(system, std::move(temps));
}

}  // namespace lcn
