// Closed-form reference solutions used to validate the thermal models.
#pragma once

#include "geom/materials.hpp"

namespace lcn {

/// Steady 1-D conduction: a rod of length L, cross-section A, conductivity
/// k, insulated except at x = L where T = T_end, with uniform volumetric
/// heating of total power P. Temperature at position x (0 = insulated end):
/// T(x) = T_end + (P / (k·A)) · (L - x²/(2L) - L/2)  ... derived from
/// q(x) = P·x/L and dT/dx = -q/(k·A) integrated from L to x.
double rod_temperature(double x, double length, double area,
                       double conductivity, double total_power,
                       double t_end);

/// Bulk (mixed-mean) coolant temperature after absorbing `heat` watts from
/// an inlet at T_in with volumetric flow Q: T = T_in + heat / (C_v·Q).
double coolant_outlet_temperature(double t_in, double heat,
                                  double volumetric_flow,
                                  const CoolantProperties& coolant);

/// Wall temperature of a channel absorbing a uniform flux through film
/// coefficient h over area A: T_wall = T_bulk + heat / (h·A).
double wall_temperature(double t_bulk, double heat, double film_coefficient,
                        double area);

}  // namespace lcn
