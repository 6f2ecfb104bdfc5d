// Tests for field/metric extraction, heatmap rendering, physical
// invariances (D4 symmetry of the full simulation pipeline), and the
// SteadyWorkspace that solve_steady and transient stepping share.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/instrument.hpp"
#include "network/generators.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/solvers.hpp"
#include "thermal/model_2rm.hpp"
#include "thermal/model_4rm.hpp"
#include "thermal/temp_map.hpp"
#include "triplet_list.hpp"

namespace lcn {
namespace {

AssembledThermal tiny_system() {
  AssembledThermal system;
  sparse::TripletList t(4, 4);
  for (std::size_t i = 0; i < 4; ++i) t.add(i, i, 1.0);
  system.matrix = t.to_csr();
  system.rhs.assign(4, 0.0);
  system.capacitance.assign(4, 1.0);
  system.source_nodes = {{0, 1}, {2, 3}};
  system.map_rows = 1;
  system.map_cols = 2;
  system.inlet_temperature = 300.0;
  system.volumetric_heat = 4.18e6;
  return system;
}

TEST(MakeField, ExtractsMetricsPerLayer) {
  const AssembledThermal system = tiny_system();
  const ThermalField field = make_field(system, {310.0, 312.0, 305.0, 330.0});
  EXPECT_DOUBLE_EQ(field.t_max, 330.0);
  EXPECT_DOUBLE_EQ(field.per_layer_delta[0], 2.0);
  EXPECT_DOUBLE_EQ(field.per_layer_delta[1], 25.0);
  EXPECT_DOUBLE_EQ(field.delta_t, 25.0);
  EXPECT_EQ(field.source_maps[0], (std::vector<double>{310.0, 312.0}));
}

TEST(MakeField, RejectsWrongSize) {
  const AssembledThermal system = tiny_system();
  EXPECT_THROW(make_field(system, {1.0, 2.0}), ContractError);
}

TEST(AdvectedHeat, SumsOutletEnthalpy) {
  AssembledThermal system = tiny_system();
  system.outlet_terms = {{1, 2e-9}, {3, 1e-9}};
  const double q = advected_heat(system, {300.0, 310.0, 300.0, 320.0});
  EXPECT_NEAR(q, 4.18e6 * (2e-9 * 10.0 + 1e-9 * 20.0), 1e-9);
}

TEST(AsciiHeatmap, RendersWithLegendAndRightShape) {
  const AssembledThermal system = tiny_system();
  const ThermalField field = make_field(system, {310.0, 312.0, 305.0, 330.0});
  const std::string art = ascii_heatmap(field, 0, 8);
  EXPECT_NE(art.find("min 310.00 K"), std::string::npos);
  EXPECT_NE(art.find("max 312.00 K"), std::string::npos);
  EXPECT_THROW(ascii_heatmap(field, 5), ContractError);
}

TEST(TemperatureCsv, MatrixShape) {
  const AssembledThermal system = tiny_system();
  const ThermalField field = make_field(system, {310.0, 312.0, 305.0, 330.0});
  EXPECT_EQ(temperature_csv(field, 0), "310.0000,312.0000\n");
  EXPECT_EQ(temperature_csv(field, 1), "305.0000,330.0000\n");
}

// Physical invariance: rotating the whole world (power maps + network) by a
// D4 symmetry must leave every metric unchanged.
class D4Invariance : public ::testing::TestWithParam<int> {};

TEST_P(D4Invariance, MetricsInvariantUnderWorldTransform) {
  const int code = GetParam();
  const D4Transform t(code);

  CoolingProblem problem;
  problem.grid = Grid2D(21, 21, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  problem.source_power.push_back(synthesize_power_map(problem.grid, 3.0, 8));
  problem.source_power.push_back(synthesize_power_map(problem.grid, 2.0, 9));

  const CoolingNetwork net =
      make_tree_network(problem.grid, make_uniform_layout(problem.grid, 6, 12));

  CoolingProblem transformed = problem;
  transformed.source_power.clear();
  for (const PowerMap& map : problem.source_power) {
    transformed.source_power.push_back(map.transformed(t));
  }
  const CoolingNetwork net_t = net.transformed(t);

  const Thermal2RM sim(problem, {net}, 3);
  const Thermal2RM sim_t(transformed, {net_t}, 3);
  const ThermalField a = sim.simulate(3000.0);
  const ThermalField b = sim_t.simulate(3000.0);
  EXPECT_NEAR(a.t_max, b.t_max, 0.05) << "code " << code;
  EXPECT_NEAR(a.delta_t, b.delta_t, 0.05) << "code " << code;
  EXPECT_NEAR(sim.system_flow(1.0), sim_t.system_flow(1.0),
              sim.system_flow(1.0) * 1e-6)
      << "code " << code;
}

INSTANTIATE_TEST_SUITE_P(Codes, D4Invariance, ::testing::Range(0, 8));

// 4RM invariance for one non-trivial code (full-resolution check).
TEST(D4Invariance4RM, Rotation90) {
  const D4Transform t(1);
  CoolingProblem problem;
  problem.grid = Grid2D(15, 15, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  problem.source_power.push_back(synthesize_power_map(problem.grid, 2.0, 5));
  problem.source_power.push_back(synthesize_power_map(problem.grid, 2.0, 6));
  const CoolingNetwork net = make_straight_channels(problem.grid);

  CoolingProblem transformed = problem;
  transformed.source_power.clear();
  for (const PowerMap& map : problem.source_power) {
    transformed.source_power.push_back(map.transformed(t));
  }
  const Thermal4RM sim(problem, {net});
  const Thermal4RM sim_t(transformed, {net.transformed(t)});
  const ThermalField a = sim.simulate(2000.0);
  const ThermalField b = sim_t.simulate(2000.0);
  EXPECT_NEAR(a.t_max, b.t_max, 1e-3);
  EXPECT_NEAR(a.delta_t, b.delta_t, 1e-3);
}

// ------------------------------------------------------------- solve_steady

CoolingProblem small_problem() {
  CoolingProblem problem;
  problem.grid = Grid2D(21, 21, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  for (int die = 0; die < 2; ++die) {
    problem.source_power.emplace_back(problem.grid, 1.0);
  }
  return problem;
}

std::vector<CoolingNetwork> straight_networks(const CoolingProblem& problem) {
  return std::vector<CoolingNetwork>(
      static_cast<std::size_t>(problem.stack.channel_count()),
      make_straight_channels(problem.grid));
}

TEST(SolveSteady, CallerWorkspaceBitIdenticalToNoWorkspace) {
  const CoolingProblem problem = small_problem();
  const Thermal4RM sim(problem, straight_networks(problem));
  const AssembledThermal system = sim.assemble(2000.0);

  const ThermalField own = solve_steady(system, 1e-9);
  SteadyWorkspace ws;
  const ThermalField with_ws = solve_steady(system, 1e-9, nullptr, &ws);
  EXPECT_EQ(own.temperatures, with_ws.temperatures);
}

// One workspace reused across model kinds and sparsity structures must give
// the bits of a fresh workspace every time: a new structure builds afresh, a
// same-structure refill refactorizes in place.
TEST(SteadyWorkspace, ReuseAcrossKindsAndStructuresMatchesFreshWorkspace) {
  const CoolingProblem problem = small_problem();
  const Thermal4RM sim4(problem, straight_networks(problem));
  const Thermal2RM sim2(problem, straight_networks(problem), 3);
  const AssembledThermal a4 = sim4.assemble(2000.0);
  const AssembledThermal b4 = sim4.assemble(3000.0);  // same plan, new values
  const AssembledThermal a2 = sim2.assemble(2000.0);  // another structure

  SteadyWorkspace reused;
  for (const AssembledThermal* system : {&a4, &b4, &a2, &b4}) {
    SteadyWorkspace fresh;
    const ThermalField want = solve_steady(*system, 1e-9, nullptr, &fresh);
    const ThermalField got = solve_steady(*system, 1e-9, nullptr, &reused);
    EXPECT_EQ(got.temperatures, want.temperatures);
  }
}

TEST(SteadyWorkspace, SolveBeforeFactorIsAContractError) {
  const CoolingProblem problem = small_problem();
  const Thermal2RM sim(problem, straight_networks(problem), 3);
  const AssembledThermal system = sim.assemble(2000.0);
  SteadyWorkspace ws;
  std::vector<double> x(system.matrix.rows(), 300.0);
  EXPECT_THROW(ws.solve(system.matrix, system.rhs, x, "unfactored", 1e-9),
               ContractError);
}

// A solve that cannot converge (tolerance 0) runs one BiCGSTAB pass over its
// whole budget, then throws naming its context and counts one failure: no
// retry, no second method.
TEST(SteadyWorkspace, UnconvergedSolveThrowsAfterOneBicgstabPass) {
  const CoolingProblem problem = small_problem();
  const Thermal2RM sim(problem, straight_networks(problem), 3);
  const AssembledThermal system = sim.assemble(2000.0);
  SteadyWorkspace ws;
  ws.factor(system.matrix);
  std::vector<double> x(system.matrix.rows(), system.inlet_temperature);

  const instrument::Snapshot before = instrument::snapshot();
  try {
    ws.solve(system.matrix, system.rhs, x, "zero-tolerance solve", 0.0);
    ADD_FAILURE() << "a zero-tolerance solve returned";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("zero-tolerance solve"),
              std::string::npos)
        << e.what();
  }
  const instrument::Snapshot d =
      instrument::delta(before, instrument::snapshot());
  EXPECT_EQ(d.bicgstab_solves, 1u);
  EXPECT_EQ(d.steady_solve_failures, 1u);
}

TEST(TrueResidual, FiresOnASolveStoppedEarly) {
  const CoolingProblem problem = small_problem();
  const Thermal4RM sim(problem, straight_networks(problem));
  const AssembledThermal system = sim.assemble(2000.0);
  const sparse::Ilu0Preconditioner ilu(system.matrix);

  // Three BiCGSTAB iterations from the inlet temperature: nowhere near 1e-9.
  std::vector<double> x(system.matrix.rows(), system.inlet_temperature);
  sparse::SolveOptions early;
  early.rel_tolerance = 1e-9;
  early.max_iterations = 3;
  sparse::SolverWorkspace ws;
  EXPECT_FALSE(sparse::bicgstab_solve(system.matrix, system.rhs, x, ilu, ws,
                                      early)
                   .converged);
  const std::uint64_t before = instrument::snapshot().residual_violations;
  EXPECT_FALSE(true_residual_ok(system.matrix, system.rhs, x, 1e-9));
  EXPECT_EQ(instrument::snapshot().residual_violations, before + 1);

  // The steady solve's own answer passes the same check without a count.
  const ThermalField field = solve_steady(system, 1e-9);
  EXPECT_TRUE(
      true_residual_ok(system.matrix, system.rhs, field.temperatures, 1e-9));
  EXPECT_EQ(instrument::snapshot().residual_violations, before + 1);
}

}  // namespace
}  // namespace lcn
