// Refill-equivalence suite for the symbolic/numeric split (DESIGN.md §S18):
// a system produced by refilling a cached plan — sparsity plan, thermal
// assembly plan, flow plan, refactored preconditioner, persistent solver
// workspace — must be *bit-identical* to one produced by a fresh symbolic
// analysis. Every comparison below is exact (operator== on double vectors,
// no tolerances). Assembly, refill and solve run on the calling thread; the
// suite is still parameterized over {1, 2, 4, 8} pool threads, so an
// assembly or refill that came to depend on the pool width would show.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/instrument.hpp"
#include "common/thread_pool.hpp"
#include "flow/flow_plan.hpp"
#include "flow/flow_solver.hpp"
#include "geom/benchmarks.hpp"
#include "geom/materials.hpp"
#include "network/generators.hpp"
#include "opt/evaluator.hpp"
#include "sparse/ic0.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/solvers.hpp"
#include "sparse/sparsity_plan.hpp"
#include "thermal/model_2rm.hpp"
#include "thermal/model_4rm.hpp"
#include "triplet_list.hpp"

namespace lcn {
namespace {

CoolingProblem plan_problem() {
  CoolingProblem problem;
  problem.grid = Grid2D(33, 33, 100e-6);
  problem.stack = make_interlayer_stack(2, 200e-6);
  problem.source_power.push_back(synthesize_power_map(problem.grid, 4.4, 31));
  problem.source_power.push_back(synthesize_power_map(problem.grid, 3.6, 32));
  return problem;
}

CoolingNetwork grid_network(const CoolingProblem& problem) {
  return make_tree_network(problem.grid,
                           make_uniform_layout(problem.grid, 10, 20));
}

std::vector<CoolingNetwork> replicated(const CoolingProblem& problem,
                                       const CoolingNetwork& net) {
  return std::vector<CoolingNetwork>(
      static_cast<std::size_t>(problem.stack.channel_count()), net);
}

/// Exact (bitwise) equality of two assembled systems.
void expect_bit_identical(const AssembledThermal& expected,
                          const AssembledThermal& actual) {
  EXPECT_EQ(expected.matrix.rows(), actual.matrix.rows());
  EXPECT_EQ(expected.matrix.row_ptr(), actual.matrix.row_ptr());
  EXPECT_EQ(expected.matrix.col_idx(), actual.matrix.col_idx());
  EXPECT_EQ(expected.matrix.values(), actual.matrix.values());
  EXPECT_EQ(expected.rhs, actual.rhs);
  EXPECT_EQ(expected.capacitance, actual.capacitance);
  EXPECT_EQ(expected.outlet_terms, actual.outlet_terms);
  EXPECT_EQ(expected.inlet_flow_total, actual.inlet_flow_total);
  EXPECT_EQ(expected.source_nodes, actual.source_nodes);
}

class RefillEquivalence : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { set_global_pool_threads(GetParam()); }
  static void TearDownTestSuite() { set_global_pool_threads(0); }
};

TEST_P(RefillEquivalence, SparsityPlanRefillMatchesCompress) {
  // Triplet sequence with heavy duplication and out-of-order emission — the
  // refill must reproduce a fresh TripletList::to_csr (tests/triplet_list.hpp)
  // bit-for-bit, including the order duplicates are summed in.
  const std::size_t n = 50;
  std::vector<sparse::Triplet> trips;
  for (std::size_t k = 0; k < 6 * n; ++k) {
    const std::size_t i = (k * 7) % n;
    const std::size_t j = (k * 13 + k / n) % n;
    const double v = 1e-3 * static_cast<double>(k % 17) + 0.037 +
                     1e-12 * static_cast<double>(k);  // never zero
    trips.push_back({i, j, v});
  }
  sparse::TripletList list(n, n);
  for (const sparse::Triplet& t : trips) list.add(t.row, t.col, t.value);
  const sparse::CsrMatrix fresh = list.to_csr();

  const sparse::SparsityPlan plan = sparse::SparsityPlan::analyze(n, n, trips);
  const sparse::CsrMatrix refilled = plan.refill_matrix(
      [&](std::size_t s) { return trips[s].value; });

  EXPECT_EQ(fresh.row_ptr(), refilled.row_ptr());
  EXPECT_EQ(fresh.col_idx(), refilled.col_idx());
  EXPECT_EQ(fresh.values(), refilled.values());
}

TEST_P(RefillEquivalence, RefilledThermal2RmMatchesFreshModel) {
  const CoolingProblem problem = plan_problem();
  const CoolingNetwork net = grid_network(problem);
  // Long-lived model: repeated probes refill one cached plan.
  const Thermal2RM probing(problem, replicated(problem, net), 4);
  probing.assemble(2000.0);  // builds the plan
  const instrument::Snapshot before = instrument::snapshot();
  for (const double p_sys : {2000.0, 3500.0, 5000.0, 2000.0}) {
    const AssembledThermal refilled = probing.assemble(p_sys);
    // Reference: a model constructed from scratch, so its plan — and the
    // symbolic analysis underneath — is rebuilt fresh for this probe.
    const Thermal2RM fresh(problem, replicated(problem, net), 4);
    expect_bit_identical(fresh.assemble(p_sys), refilled);
  }
  const instrument::Snapshot after = instrument::snapshot();
  const instrument::Snapshot d = instrument::delta(before, after);
  // The probing model never redoes symbolic work: 4 of the 8 assemblies are
  // pure refills on its cached plan, and the only symbolic builds are the 4
  // fresh reference models'.
  EXPECT_EQ(d.assemblies_refill, 8u);
  EXPECT_EQ(d.assemblies_symbolic, 4u);
}

TEST_P(RefillEquivalence, RefilledThermal4RmMatchesFreshModel) {
  const CoolingProblem problem = plan_problem();
  const CoolingNetwork net = grid_network(problem);
  const Thermal4RM probing(problem, replicated(problem, net));
  for (const double p_sys : {2500.0, 4000.0, 2500.0}) {
    const AssembledThermal refilled = probing.assemble(p_sys);
    const Thermal4RM fresh(problem, replicated(problem, net));
    expect_bit_identical(fresh.assemble(p_sys), refilled);
  }
}

TEST_P(RefillEquivalence, RefillSurvivesNetworkMutation) {
  // Interleave probes on a mutated network between probes on the original:
  // the flow-plan cache must keep the two patterns apart and each model's
  // assembly plan must stay bound to its own network.
  const CoolingProblem problem = plan_problem();
  const CoolingNetwork net = grid_network(problem);
  CoolingNetwork mutated =
      make_tree_network(problem.grid, make_uniform_layout(problem.grid, 8, 16));
  ASSERT_FALSE(net == mutated);

  const Thermal2RM original(problem, replicated(problem, net), 4);
  const AssembledThermal before_mutation = original.assemble(3000.0);

  const Thermal2RM changed(problem, replicated(problem, mutated), 4);
  const AssembledThermal mutated_sys = changed.assemble(3000.0);
  EXPECT_NE(before_mutation.matrix.values(), mutated_sys.matrix.values());

  // Back to the original network; force the reference through a cold cache
  // so it cannot share any symbolic state with the probing model.
  const AssembledThermal again = original.assemble(3000.0);
  expect_bit_identical(before_mutation, again);
  flow_plan_cache_clear();
  const Thermal2RM fresh(problem, replicated(problem, net), 4);
  expect_bit_identical(fresh.assemble(3000.0), again);
}

TEST_P(RefillEquivalence, RefillMatchesFreshUnderConductanceScaling) {
  // Reliability-style per-cell conductance scaling changes matrix values but
  // not the pattern — exactly the case the flow plan exists for.
  CoolingProblem problem = plan_problem();
  const CoolingNetwork net = grid_network(problem);
  problem.flow_options.cell_conductance_scale.assign(
      problem.grid.cell_count(), 1.0);
  for (std::size_t c = 0; c < problem.grid.cell_count(); c += 3) {
    problem.flow_options.cell_conductance_scale[c] = 0.35;
  }
  const Thermal2RM probing(problem, replicated(problem, net), 4);
  const AssembledThermal refilled = probing.assemble(4200.0);
  flow_plan_cache_clear();
  const Thermal2RM fresh(problem, replicated(problem, net), 4);
  expect_bit_identical(fresh.assemble(4200.0), refilled);
}

TEST_P(RefillEquivalence, FlowPlanRefillMatchesFreshFlowSolve) {
  CoolingProblem problem = plan_problem();
  const CoolingNetwork net = grid_network(problem);
  int channel_layer = -1;
  for (int l = 0; l < problem.stack.layer_count(); ++l) {
    if (problem.stack.layer(l).kind == LayerKind::kChannel) {
      channel_layer = l;
      break;
    }
  }
  ASSERT_GE(channel_layer, 0);
  FlowOptions options = problem.flow_options;
  options.cell_conductance_scale.assign(problem.grid.cell_count(), 1.0);
  for (std::size_t c = 1; c < problem.grid.cell_count(); c += 5) {
    options.cell_conductance_scale[c] = 0.6;
  }
  const FlowSolver solver(net, problem.channel_geometry(channel_layer),
                          problem.coolant, options);

  flow_plan_cache_clear();
  const instrument::Snapshot before = instrument::snapshot();
  const FlowSolution cold = solver.solve(1.0);   // cache miss: analyze
  const FlowSolution warm = solver.solve(1.0);   // cache hit: refill
  const instrument::Snapshot d =
      instrument::delta(before, instrument::snapshot());
  EXPECT_EQ(d.flow_plan_misses, 1u);
  EXPECT_EQ(d.flow_plan_hits, 1u);

  EXPECT_EQ(cold.pressure, warm.pressure);
  EXPECT_EQ(cold.q_east, warm.q_east);
  EXPECT_EQ(cold.q_south, warm.q_south);
  EXPECT_EQ(cold.port_flow, warm.port_flow);
  EXPECT_EQ(cold.system_flow, warm.system_flow);

  // Reference pressure field from a hand-built fresh triplet traversal (the
  // historical assembly path, reproduced verbatim): the refill-based solve
  // must match it bit-for-bit.
  const Grid2D& grid = net.grid();
  const std::size_t n = warm.liquid_cells.size();
  const double g_bulk = fluid_conductance(
      problem.channel_geometry(channel_layer), problem.coolant, grid.pitch());
  const double g_edge = g_bulk * options.edge_conductance_factor;
  const std::vector<double>& scale = options.cell_conductance_scale;
  auto pair_g = [&](std::size_t a, std::size_t b) {
    return g_bulk * (2.0 * scale[a] * scale[b] / (scale[a] + scale[b]));
  };
  sparse::TripletList trips(n, n);
  sparse::Vector rhs(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const CellCoord cc = grid.coord(warm.liquid_cells[i]);
    const int neighbors[2][2] = {{cc.row, cc.col + 1}, {cc.row + 1, cc.col}};
    for (const auto& nb : neighbors) {
      if (!grid.in_bounds(nb[0], nb[1])) continue;
      const std::int32_t jdx = warm.liquid_index[grid.index(nb[0], nb[1])];
      if (jdx < 0) continue;
      const auto j = static_cast<std::size_t>(jdx);
      const double g = pair_g(warm.liquid_cells[i], warm.liquid_cells[j]);
      trips.add(i, i, g);
      trips.add(j, j, g);
      trips.add(i, j, -g);
      trips.add(j, i, -g);
    }
  }
  for (const Port& port : net.ports()) {
    const auto i = static_cast<std::size_t>(
        warm.liquid_index[grid.index(port.row, port.col)]);
    const double g = g_edge * scale[grid.index(port.row, port.col)];
    trips.add(i, i, g);
    if (port.kind == PortKind::kInlet) rhs[i] += g * 1.0;
  }
  sparse::Vector pressure(n, 0.0);
  sparse::SolveOptions solve_opts;
  solve_opts.rel_tolerance = options.rel_tolerance;
  sparse::solve_spd_or_throw(trips.to_csr(), rhs, pressure,
                             "flow pressure solve", solve_opts);
  EXPECT_EQ(pressure, warm.pressure);
}

TEST_P(RefillEquivalence, PreconditionerRefactorMatchesFreshFactorization) {
  const CoolingProblem problem = plan_problem();
  const CoolingNetwork net = grid_network(problem);
  const Thermal2RM sim(problem, replicated(problem, net), 4);
  const AssembledThermal sys_a = sim.assemble(2000.0);
  const AssembledThermal sys_b = sim.assemble(5000.0);
  // Refilled systems share index arrays, so refactor() takes the
  // numeric-only path; its result must match a from-scratch factorization.
  ASSERT_EQ(sys_a.matrix.shared_row_ptr(), sys_b.matrix.shared_row_ptr());

  sparse::Ilu0Preconditioner refactored(sys_a.matrix);
  refactored.refactor(sys_b.matrix);
  const sparse::Ilu0Preconditioner fresh(sys_b.matrix);
  const sparse::Vector probe = sys_b.rhs;
  sparse::Vector out_refactored(probe.size(), 0.0);
  sparse::Vector out_fresh(probe.size(), 0.0);
  refactored.apply(probe, out_refactored);
  fresh.apply(probe, out_fresh);
  EXPECT_EQ(out_fresh, out_refactored);
}

TEST_P(RefillEquivalence, WorkspaceSolveMatchesAllocatingSolve) {
  const CoolingProblem problem = plan_problem();
  const CoolingNetwork net = grid_network(problem);
  const Thermal2RM sim(problem, replicated(problem, net), 4);

  SteadyWorkspace workspace;
  std::vector<double> warm_alloc;
  std::vector<double> warm_ws;
  for (const double p_sys : {2000.0, 3500.0, 5000.0}) {
    const AssembledThermal sys = sim.assemble(p_sys);
    const ThermalField alloc = solve_steady(
        sys, 1e-9, warm_alloc.empty() ? nullptr : &warm_alloc);
    const ThermalField reused = solve_steady(
        sys, 1e-9, warm_ws.empty() ? nullptr : &warm_ws, &workspace);
    EXPECT_EQ(alloc.temperatures, reused.temperatures);
    EXPECT_EQ(alloc.t_max, reused.t_max);
    EXPECT_EQ(alloc.delta_t, reused.delta_t);
    warm_alloc = alloc.temperatures;
    warm_ws = reused.temperatures;
  }
}

TEST_P(RefillEquivalence, EvaluatorProbeCacheKeysOnBitPattern) {
  const CoolingProblem problem = plan_problem();
  const CoolingNetwork net = grid_network(problem);
  SystemEvaluator eval(problem, net, SimConfig{ThermalModelKind::k2RM, 4});
  const ThermalProbe first = eval.probe(3000.0);
  ASSERT_EQ(eval.simulations(), 1u);
  // Exact same double: served from the probe cache, no new simulation.
  const ThermalProbe again = eval.probe(3000.0);
  EXPECT_EQ(eval.simulations(), 1u);
  EXPECT_EQ(first.delta_t, again.delta_t);
  EXPECT_EQ(first.t_max, again.t_max);
  // A neighboring double is a different bit pattern — exact-match semantics
  // mean it simulates again (cheaply, through the cached plan).
  eval.probe(std::nextafter(3000.0, 4000.0));
  EXPECT_EQ(eval.simulations(), 2u);
}

TEST_P(RefillEquivalence, EvaluatorWorkspaceCountsReuses) {
  const CoolingProblem problem = plan_problem();
  const CoolingNetwork net = grid_network(problem);
  SystemEvaluator eval(problem, net, SimConfig{ThermalModelKind::k2RM, 4});
  const instrument::Snapshot before = instrument::snapshot();
  eval.probe(2000.0);
  eval.probe(2600.0);
  eval.probe(3200.0);
  const instrument::Snapshot d =
      instrument::delta(before, instrument::snapshot());
  EXPECT_GE(d.bicgstab_solves, 3u);
  EXPECT_EQ(d.assemblies_refill, 3u);
}

INSTANTIATE_TEST_SUITE_P(Threads, RefillEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lcn
