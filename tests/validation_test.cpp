// Analytic validation of the thermal models against closed-form references
// (S5/S6 physics): coolant enthalpy rise in a single channel, conduction
// through the stack, and the helpers themselves.
#include <gtest/gtest.h>

#include "flow/flow_solver.hpp"
#include "network/generators.hpp"
#include "thermal/model_4rm.hpp"
#include "validation.hpp"

namespace lcn {
namespace {

TEST(ValidationHelpers, RodProfileBoundaryAndMonotonicity) {
  const double length = 1e-3;
  const double area = 1e-8;
  const double k = 130.0;
  const double power = 0.1;
  EXPECT_DOUBLE_EQ(rod_temperature(length, length, area, k, power, 350.0),
                   350.0);
  // Hotter toward the insulated end.
  double prev = rod_temperature(length, length, area, k, power, 350.0);
  for (double x = length; x >= 0.0; x -= length / 10.0) {
    const double t = rod_temperature(x, length, area, k, power, 350.0);
    EXPECT_GE(t, prev - 1e-12);
    prev = t;
  }
  // Total temperature drop = P·L/(2kA).
  EXPECT_NEAR(rod_temperature(0.0, length, area, k, power, 350.0) - 350.0,
              power * length / (2.0 * k * area), 1e-9);
}

TEST(ValidationHelpers, CoolantAndWallFormulas) {
  const CoolantProperties water;
  EXPECT_NEAR(coolant_outlet_temperature(300.0, 4.183, 1e-6, water), 301.0,
              1e-9);
  EXPECT_NEAR(wall_temperature(310.0, 1.0, 1e4, 1e-4), 311.0, 1e-12);
  EXPECT_THROW(coolant_outlet_temperature(300.0, 1.0, 0.0, water),
               ContractError);
}

TEST(Validation4RM, OutletCoolantMatchesEnthalpyBalance) {
  // Uniformly heated chip with straight channels: the mixed outlet
  // temperature implied by the advected-heat diagnostic must equal the
  // closed-form enthalpy rise.
  CoolingProblem problem;
  problem.grid = Grid2D(21, 21, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  problem.source_power.emplace_back(problem.grid, 1.5);
  problem.source_power.emplace_back(problem.grid, 1.5);
  const CoolingNetwork net = make_straight_channels(problem.grid);
  const Thermal4RM sim(problem, {net});

  const double p_sys = 3000.0;
  const AssembledThermal system = sim.assemble(p_sys);
  const ThermalField field = solve_steady(system, 1e-11);

  const double q_sys = sim.system_flow(p_sys);
  const double t_out_expected = coolant_outlet_temperature(
      300.0, problem.total_power(), q_sys, problem.coolant);

  // Flow-weighted mean outlet temperature from the model.
  double flow_sum = 0.0;
  double temp_flow_sum = 0.0;
  for (const auto& [node, flow] : system.outlet_terms) {
    flow_sum += flow;
    temp_flow_sum += flow * field.temperatures[node];
  }
  const double t_out_model = temp_flow_sum / flow_sum;
  EXPECT_NEAR(t_out_model, t_out_expected,
              (t_out_expected - 300.0) * 0.02 + 1e-6);
}

TEST(Validation4RM, VerticalConductionDropMatchesSeriesResistance) {
  // Uniform power in the top die only: the vertical temperature drop from
  // the top source layer down to the channel follows the series conduction
  // path (within the lateral-spreading tolerance of a uniform load).
  CoolingProblem problem;
  problem.grid = Grid2D(21, 21, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  problem.source_power.emplace_back(problem.grid, 0.0);
  problem.source_power.emplace_back(problem.grid, 2.0);  // top die only
  const CoolingNetwork net = make_straight_channels(problem.grid);
  const Thermal4RM sim(problem, {net});
  const ThermalField field = sim.simulate(20000.0);  // strong cooling

  // With strong flow the coolant is near 300 K; the top source layer
  // temperature is set by film + conduction resistance of the path
  // top-source -> channel. Check the order of magnitude and the direction
  // (top source must be the hottest layer).
  const auto& bottom = field.source_maps[0];
  const auto& top = field.source_maps[1];
  const int center = (field.map_rows / 2) * field.map_cols + field.map_cols / 2;
  EXPECT_GT(top[static_cast<std::size_t>(center)],
            bottom[static_cast<std::size_t>(center)]);
  EXPECT_GT(field.t_max, 300.5);
  EXPECT_LT(field.t_max, 330.0);
}

}  // namespace
}  // namespace lcn
