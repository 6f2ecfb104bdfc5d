// Tests for the next-gen solver core (DESIGN.md §S20): SELL-C-σ SpMV
// bit-compatibility with CSR across thread counts, the multigrid
// preconditioner (hierarchy shape, convergence, thread determinism, the
// refactor() structure-change fallback for MG/ILU/IC), and the preconditioner
// selection of solve_steady and transient stepping through the shared
// SteadyWorkspace.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "network/generators.hpp"
#include "sparse/ic0.hpp"
#include "sparse/multigrid.hpp"
#include "sparse/sell.hpp"
#include "sparse/solvers.hpp"
#include "thermal/model_2rm.hpp"
#include "thermal/model_4rm.hpp"
#include "thermal/transient.hpp"

namespace lcn {
namespace {

using sparse::CsrMatrix;
using sparse::MgGridHint;
using sparse::MultigridPreconditioner;
using sparse::SolveOptions;
using sparse::SolveReport;
using sparse::TripletList;
using sparse::Vector;

// 2D 5-point Laplacian on a g x g grid (above kSpmvGrain for g >= 140).
CsrMatrix laplacian2d(std::size_t g) {
  const std::size_t n = g * g;
  TripletList trip(n, n);
  for (std::size_t r = 0; r < g; ++r) {
    for (std::size_t c = 0; c < g; ++c) {
      const std::size_t i = r * g + c;
      trip.add(i, i, 4.0);
      if (r > 0) trip.add(i, i - g, -1.0);
      if (r + 1 < g) trip.add(i, i + g, -1.0);
      if (c > 0) trip.add(i, i - 1, -1.0);
      if (c + 1 < g) trip.add(i, i + 1, -1.0);
    }
  }
  return trip.to_csr();
}

MgGridHint plane_hint(std::size_t g) {
  MgGridHint hint;
  for (std::size_t r = 0; r < g; ++r) {
    for (std::size_t c = 0; c < g; ++c) {
      hint.layer.push_back(0);
      hint.row.push_back(static_cast<std::int32_t>(r));
      hint.col.push_back(static_cast<std::int32_t>(c));
    }
  }
  return hint;
}

Vector varied_vector(std::size_t n) {
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.37 * static_cast<double>(i)) +
           1e-3 * static_cast<double>(i % 101);
  }
  return x;
}

CoolingProblem small_problem(int n = 21, int dies = 2) {
  CoolingProblem problem;
  problem.grid = Grid2D(n, n, 100e-6);
  problem.stack = make_interlayer_stack(dies, 200e-6);
  for (int die = 0; die < dies; ++die) {
    problem.source_power.emplace_back(problem.grid, 2.0 / dies);
  }
  return problem;
}

std::vector<CoolingNetwork> straight_networks(const CoolingProblem& problem) {
  return std::vector<CoolingNetwork>(
      static_cast<std::size_t>(problem.stack.channel_count()),
      make_straight_channels(problem.grid));
}

// ---------------------------------------------------------------- SELL-C-σ

TEST(SellMatrix, MultiplyBitIdenticalToCsrAcrossThreadCounts) {
  const CsrMatrix a = laplacian2d(150);  // fans out: ~112k nnz
  const Vector x = varied_vector(a.cols());
  Vector ref;
  a.multiply_serial(x, ref);

  const sparse::SellMatrix sell(a);
  EXPECT_EQ(sell.nnz(), a.nnz());
  EXPECT_GE(sell.padded_slots(), sell.nnz());
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    set_global_pool_threads(threads);
    Vector y;
    sell.multiply(x, y);
    EXPECT_EQ(y, ref) << "threads=" << threads;
  }
  set_global_pool_threads(0);
}

TEST(SellMatrix, RefillTracksNewValuesOnSharedStructure) {
  CsrMatrix a = laplacian2d(40);
  sparse::SellMatrix sell(a);
  ASSERT_TRUE(sell.shares_structure(a));

  // Same structure, new values (borrowing the shared index arrays).
  Vector values = a.values();
  for (double& v : values) v *= 1.75;
  const CsrMatrix b(a.rows(), a.cols(), a.shared_row_ptr(), a.shared_col_idx(),
                    std::move(values));
  sell.refill(b);
  const Vector x = varied_vector(b.cols());
  Vector ref;
  b.multiply_serial(x, ref);
  Vector y;
  sell.multiply(x, y);
  EXPECT_EQ(y, ref);
}

TEST(SellMatrix, RefillRebuildsOnStructureChange) {
  sparse::SellMatrix sell(laplacian2d(30));
  const CsrMatrix other = laplacian2d(17);  // different pattern entirely
  EXPECT_FALSE(sell.shares_structure(other));
  sell.refill(other);
  EXPECT_EQ(sell.rows(), other.rows());
  EXPECT_EQ(sell.nnz(), other.nnz());
  const Vector x = varied_vector(other.cols());
  Vector ref;
  other.multiply_serial(x, ref);
  Vector y;
  sell.multiply(x, y);
  EXPECT_EQ(y, ref);
}

// --------------------------------------------------------------- multigrid

TEST(Multigrid, BuildsDeepHierarchyFromGridHint) {
  const std::size_t g = 64;
  const CsrMatrix a = laplacian2d(g);
  const MgGridHint hint = plane_hint(g);
  const MultigridPreconditioner mg(a, &hint);
  ASSERT_GE(mg.level_count(), 3u);
  EXPECT_EQ(mg.level_rows(0), a.rows());
  // 2x2 in-plane coarsening: every level shrinks ~4x.
  EXPECT_LE(mg.level_rows(1), a.rows() / 3);
}

TEST(Multigrid, ApplyIsDeterministicAcrossThreadCounts) {
  const std::size_t g = 150;
  const CsrMatrix a = laplacian2d(g);
  const MgGridHint hint = plane_hint(g);
  const MultigridPreconditioner mg(a, &hint);
  const Vector r = varied_vector(a.rows());

  set_global_pool_threads(1);
  Vector ref;
  mg.apply(r, ref);
  for (std::size_t threads : {2u, 4u, 8u}) {
    set_global_pool_threads(threads);
    Vector z;
    mg.apply(r, z);
    EXPECT_EQ(z, ref) << "threads=" << threads;
  }
  set_global_pool_threads(0);
}

TEST(Multigrid, PreconditionedSolveConvergesFasterThanJacobi) {
  const std::size_t g = 96;
  const CsrMatrix a = laplacian2d(g);
  const MgGridHint hint = plane_hint(g);
  const Vector b = varied_vector(a.rows());

  SolveOptions opts;
  opts.rel_tolerance = 1e-10;
  Vector x_mg;
  const MultigridPreconditioner mg(a, &hint);
  const SolveReport mg_report = bicgstab_solve(a, b, x_mg, mg, opts);
  ASSERT_TRUE(mg_report.converged);

  Vector x_j;
  const sparse::JacobiPreconditioner jacobi(a);
  const SolveReport j_report = bicgstab_solve(a, b, x_j, jacobi, opts);
  ASSERT_TRUE(j_report.converged);
  EXPECT_LT(mg_report.iterations * 3, j_report.iterations);

  Vector r = a.multiply(x_mg);
  sparse::axpy(-1.0, b, r);
  EXPECT_LT(sparse::norm2(r) / sparse::norm2(b), 1e-9);
}

TEST(Multigrid, AlgebraicFallbackWithoutHintStillConverges) {
  const CsrMatrix a = laplacian2d(48);
  const MultigridPreconditioner mg(a, nullptr);
  ASSERT_GE(mg.level_count(), 2u);
  const Vector b = varied_vector(a.rows());
  Vector x;
  const SolveReport report = bicgstab_solve(a, b, x, mg);
  EXPECT_TRUE(report.converged);
}

// refactor() contract shared by every refactorable preconditioner: after a
// refactor to a matrix with a DIFFERENT symbolic structure, the
// preconditioner must behave exactly like one freshly built from that
// matrix (full-reconstruction fallback, not a stale numeric refill).
template <class Precon>
void expect_refactor_equals_fresh(const CsrMatrix& first,
                                  const CsrMatrix& second) {
  Precon refactored(first);
  refactored.refactor(second);
  const Precon fresh(second);
  const Vector r = varied_vector(second.rows());
  Vector z_refactored, z_fresh;
  refactored.apply(r, z_refactored);
  fresh.apply(r, z_fresh);
  EXPECT_EQ(z_refactored, z_fresh);
}

TEST(PreconRefactor, FallsBackToFullRebuildOnStructureFlip) {
  const CsrMatrix small = laplacian2d(23);
  const CsrMatrix big = laplacian2d(41);
  expect_refactor_equals_fresh<sparse::Ilu0Preconditioner>(small, big);
  expect_refactor_equals_fresh<sparse::Ic0Preconditioner>(small, big);
  expect_refactor_equals_fresh<MultigridPreconditioner>(small, big);
  // And back down again mid-sequence.
  expect_refactor_equals_fresh<sparse::Ilu0Preconditioner>(big, small);
  expect_refactor_equals_fresh<MultigridPreconditioner>(big, small);
}

TEST(PreconRefactor, SharedStructureRefillMatchesFresh) {
  const CsrMatrix a = laplacian2d(32);
  Vector values = a.values();
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] *= 1.0 + 1e-3 * static_cast<double>(i % 7);
  }
  const CsrMatrix b(a.rows(), a.cols(), a.shared_row_ptr(), a.shared_col_idx(),
                    std::move(values));
  expect_refactor_equals_fresh<sparse::Ilu0Preconditioner>(a, b);

  // For multigrid the bit-identity claim holds on the geometric path, where
  // aggregation depends only on grid coordinates. (Hint-less algebraic
  // aggregation follows the strongest couplings of the *built* matrix, so a
  // numeric refill legitimately keeps the original hierarchy.)
  const MgGridHint hint = plane_hint(32);
  MultigridPreconditioner refactored(a, &hint);
  refactored.refactor(b);
  const MultigridPreconditioner fresh(b, &hint);
  const Vector r = varied_vector(b.rows());
  Vector z_refactored, z_fresh;
  refactored.apply(r, z_refactored);
  fresh.apply(r, z_fresh);
  EXPECT_EQ(z_refactored, z_fresh);
}

// ------------------------------------------------------------- solve_steady

TEST(SolveSteadyConfig, DefaultConfigBitIdenticalToLegacyPath) {
  const CoolingProblem problem = small_problem();
  const Thermal4RM sim(problem, straight_networks(problem));
  const AssembledThermal system = sim.assemble(2000.0);

  // No config (env knobs unset in tests) vs explicit default config vs a
  // caller-held workspace: all three must produce the same bits.
  const ThermalField legacy = solve_steady(system, 1e-9);
  const SteadySolverConfig def;
  const ThermalField with_config =
      solve_steady(system, 1e-9, nullptr, nullptr, &def);
  EXPECT_EQ(legacy.temperatures, with_config.temperatures);

  SteadyWorkspace ws;
  const ThermalField with_ws = solve_steady(system, 1e-9, nullptr, &ws, &def);
  EXPECT_EQ(legacy.temperatures, with_ws.temperatures);
  EXPECT_EQ(ws.precon(), SteadySolverConfig::Precon::kIlu0);
}

TEST(SolveSteadyConfig, MultigridAgreesWithDefault) {
  const CoolingProblem problem = small_problem();
  const Thermal4RM sim(problem, straight_networks(problem));
  const AssembledThermal system = sim.assemble(2000.0);
  ASSERT_NE(system.mg_hint, nullptr);
  ASSERT_EQ(system.mg_hint->size(), system.matrix.rows());

  const ThermalField ref = solve_steady(system, 1e-10);

  SteadySolverConfig mg_cfg;
  mg_cfg.precon = SteadySolverConfig::Precon::kMultigrid;
  SteadyWorkspace mg_ws;
  const ThermalField mg_field =
      solve_steady(system, 1e-10, nullptr, &mg_ws, &mg_cfg);
  EXPECT_EQ(mg_ws.precon(), SteadySolverConfig::Precon::kMultigrid);

  // Same system solved to 1e-10: fields agree to solver tolerance.
  ASSERT_EQ(ref.temperatures.size(), mg_field.temperatures.size());
  double scale = 0.0;
  for (double t : ref.temperatures) scale = std::max(scale, std::abs(t));
  for (std::size_t i = 0; i < ref.temperatures.size(); ++i) {
    EXPECT_NEAR(mg_field.temperatures[i], ref.temperatures[i], 1e-6 * scale);
  }
}

TEST(SolveSteadyConfig, MultigridWorkspaceRefactorsAcrossProbes) {
  const CoolingProblem problem = small_problem();
  const Thermal2RM sim(problem, straight_networks(problem), 3);
  SteadySolverConfig cfg;
  cfg.precon = SteadySolverConfig::Precon::kMultigrid;
  SteadyWorkspace ws;
  double prev = 1e300;
  for (double p : {1000.0, 2000.0, 4000.0}) {
    const AssembledThermal system = sim.assemble(p);
    const ThermalField field = solve_steady(system, 1e-9, nullptr, &ws, &cfg);
    EXPECT_LT(field.t_max, prev) << "P=" << p;
    prev = field.t_max;
  }
  EXPECT_EQ(ws.precon(), SteadySolverConfig::Precon::kMultigrid);
}

TEST(SolveSteadyConfig, FromEnvDefaultsMatchSeedConfig) {
  const SteadySolverConfig cfg = SteadySolverConfig::from_env();
  const SteadySolverConfig def;
  EXPECT_EQ(cfg.precon, def.precon);
}

// --------------------------------------------------------- SteadyWorkspace

// One workspace reused across preconditioner kinds and sparsity structures
// must give the bits of a fresh workspace every time: a kind switch or a new
// structure builds afresh, a same-structure refill refactorizes in place.
TEST(SteadyWorkspace, ReuseAcrossKindsAndStructuresMatchesFreshWorkspace) {
  const CoolingProblem problem = small_problem();
  const Thermal4RM sim4(problem, straight_networks(problem));
  const Thermal2RM sim2(problem, straight_networks(problem), 3);
  const AssembledThermal a4 = sim4.assemble(2000.0);
  const AssembledThermal b4 = sim4.assemble(3000.0);  // same plan, new values
  const AssembledThermal a2 = sim2.assemble(2000.0);  // another structure

  SteadySolverConfig ilu;
  SteadySolverConfig mg;
  mg.precon = SteadySolverConfig::Precon::kMultigrid;
  const struct {
    const AssembledThermal* system;
    const SteadySolverConfig* cfg;
  } sequence[] = {{&a4, &ilu}, {&b4, &ilu}, {&a4, &mg}, {&b4, &mg},
                  {&a2, &mg},  {&a2, &ilu}, {&b4, &ilu}};

  SteadyWorkspace reused;
  for (const auto& [system, cfg] : sequence) {
    SteadyWorkspace fresh;
    const ThermalField want = solve_steady(*system, 1e-9, nullptr, &fresh, cfg);
    const ThermalField got = solve_steady(*system, 1e-9, nullptr, &reused, cfg);
    EXPECT_EQ(got.temperatures, want.temperatures);
    EXPECT_EQ(reused.precon(), cfg->precon);
  }
}

TEST(SteadyWorkspace, SolveBeforeFactorIsAContractError) {
  const CoolingProblem problem = small_problem();
  const Thermal2RM sim(problem, straight_networks(problem), 3);
  const AssembledThermal system = sim.assemble(2000.0);
  SteadyWorkspace ws;
  EXPECT_FALSE(ws.precon().has_value());
  std::vector<double> x(system.matrix.rows(), 300.0);
  EXPECT_THROW(ws.solve(system.matrix, system.rhs, x, "unfactored", 1e-9),
               ContractError);
}

// Transient stepping sets its preconditioner up through the same workspace
// as solve_steady, so the multigrid choice reaches it too and converges to
// the ILU(0) trajectory within solver tolerance.
TEST(SteadyWorkspace, TransientMultigridMatchesIlu0Trajectory) {
  const CoolingProblem problem = small_problem();
  const Thermal4RM sim(problem, straight_networks(problem));
  const AssembledThermal system = sim.assemble(2000.0);
  const std::vector<double> cold(system.matrix.rows(), 300.0);

  TransientOptions options;
  options.dt = 2e-3;
  options.steps = 20;
  options.rel_tolerance = 1e-10;
  options.solver = SteadySolverConfig{};
  const auto ilu = simulate_transient(system, cold, options);
  options.solver->precon = SteadySolverConfig::Precon::kMultigrid;
  const auto mg = simulate_transient(system, cold, options);

  ASSERT_EQ(ilu.size(), mg.size());
  for (std::size_t i = 0; i < ilu.size(); ++i) {
    EXPECT_NEAR(mg[i].t_max, ilu[i].t_max, 1e-6) << "step " << i;
    EXPECT_NEAR(mg[i].delta_t, ilu[i].delta_t, 1e-6) << "step " << i;
  }
}

}  // namespace
}  // namespace lcn
