#include "validation.hpp"

#include "common/assert.hpp"

namespace lcn {

double rod_temperature(double x, double length, double area,
                       double conductivity, double total_power,
                       double t_end) {
  LCN_REQUIRE(length > 0.0 && area > 0.0 && conductivity > 0.0,
              "rod geometry must be positive");
  LCN_REQUIRE(x >= 0.0 && x <= length, "position outside the rod");
  // Heat generated uniformly: flux through section x is q(x) = P·x/L toward
  // the sink at x = L. Integrating dT/dx = -q/(kA) from L back to x:
  // T(x) = T_end + P/(kA) · (L² - x²) / (2L).
  return t_end +
         total_power * (length * length - x * x) /
             (2.0 * length * conductivity * area);
}

double coolant_outlet_temperature(double t_in, double heat,
                                  double volumetric_flow,
                                  const CoolantProperties& coolant) {
  LCN_REQUIRE(volumetric_flow > 0.0, "flow must be positive");
  return t_in + heat / (coolant.volumetric_heat * volumetric_flow);
}

double wall_temperature(double t_bulk, double heat, double film_coefficient,
                        double area) {
  LCN_REQUIRE(film_coefficient > 0.0 && area > 0.0,
              "film parameters must be positive");
  return t_bulk + heat / (film_coefficient * area);
}

}  // namespace lcn
