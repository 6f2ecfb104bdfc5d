// The two Krylov hot kernels against their reference forms
// (tests/reference_krylov.hpp) on the case-1 thermal systems the searches
// solve: the split-layout ILU(0) applies to within rounding of the CSR-layout
// one, the fused BiCGSTAB tracks the textbook loop's iteration count and
// meets its tolerance on the true residual, and refactors stay bitwise equal
// to fresh builds (DESIGN.md §S18 "ILU(0) split layout and the fused
// BiCGSTAB").
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/task_context.hpp"
#include "geom/benchmarks.hpp"
#include "network/generators.hpp"
#include "reference_krylov.hpp"
#include "sparse/solvers.hpp"
#include "thermal/field.hpp"
#include "thermal/model_2rm.hpp"
#include "thermal/model_4rm.hpp"

namespace lcn {
namespace {

constexpr double kPressures[] = {3e3, 1e4, 3e4};

struct CaseOneSystem {
  std::string label;
  AssembledThermal system;
};

/// Case-1 2RM and 4RM systems on a uniform tree at 3, 10 and 30 kPa.
std::vector<CaseOneSystem> case_one_systems() {
  const BenchmarkCase bench = make_iccad_case(1);
  const std::vector<CoolingNetwork> nets = {make_tree_network(
      bench.problem.grid, make_uniform_layout(bench.problem.grid, 8, 16))};
  const Thermal2RM two(bench.problem, nets, 4);
  const Thermal4RM four(bench.problem, nets);
  std::vector<CaseOneSystem> out;
  for (const double p : kPressures) {
    out.push_back({"2RM " + std::to_string(p), two.assemble(p)});
    out.push_back({"4RM " + std::to_string(p), four.assemble(p)});
  }
  return out;
}

sparse::Vector varied_vector(std::size_t n) {
  sparse::Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.37 * static_cast<double>(i)) +
           1e-3 * static_cast<double>(i % 101);
  }
  return x;
}

/// max_i |got_i − want_i| / max_i |want_i|: the largest difference relative
/// to the vector's scale. (Elementwise ratios are meaningless where `want`
/// crosses zero.)
double max_relative_difference(const sparse::Vector& got,
                               const sparse::Vector& want) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    diff = std::max(diff, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return diff / scale;
}

TEST(Ilu0Apply, MatchesCsrLayoutReferenceOnCaseOneSystems) {
  for (const CaseOneSystem& c : case_one_systems()) {
    const sparse::CsrMatrix& a = c.system.matrix;
    const sparse::Ilu0Preconditioner split(a);
    const reference::Ilu0 csr(a);
    for (const sparse::Vector& r : {c.system.rhs, varied_vector(a.rows())}) {
      sparse::Vector got, want;
      split.apply(r, got);
      csr.apply(r, want);
      ASSERT_EQ(got.size(), want.size()) << c.label;
      EXPECT_LE(max_relative_difference(got, want), 1e-12) << c.label;
    }
  }
}

// The forward sweep reads r[i] before it writes z[i], so applying in place
// is the same as applying into a second vector.
TEST(Ilu0Apply, InPlaceApplyMatchesOutOfPlace) {
  const CaseOneSystem c = case_one_systems()[1];
  const sparse::Ilu0Preconditioner m(c.system.matrix);
  sparse::Vector z = c.system.rhs;
  sparse::Vector want;
  m.apply(c.system.rhs, want);
  m.apply(z, z);
  EXPECT_EQ(z, want);
}

TEST(PreconRefactor, SharedStructureRefillMatchesFreshOnCaseOneSystems) {
  // case_one_systems() alternates 2RM and 4RM; each model's assemblies are
  // refills that share its plan's index arrays, the numeric-only path.
  const std::vector<CaseOneSystem> systems = case_one_systems();
  for (std::size_t model = 0; model < 2; ++model) {
    const sparse::CsrMatrix& first = systems[model].system.matrix;
    sparse::Ilu0Preconditioner refactored(first);
    for (std::size_t k = model; k < systems.size(); k += 2) {
      const sparse::CsrMatrix& next = systems[k].system.matrix;
      ASSERT_EQ(next.shared_col_idx(), first.shared_col_idx());
      refactored.refactor(next);
      const sparse::Ilu0Preconditioner fresh(next);
      const sparse::Vector r = varied_vector(next.rows());
      sparse::Vector z_refactored, z_fresh;
      refactored.apply(r, z_refactored);
      fresh.apply(r, z_fresh);
      EXPECT_EQ(z_refactored, z_fresh) << systems[k].label;
    }
  }
}

TEST(Ilu0, RejectsRowsWithDescendingColumns) {
  // Row 1 lists column 1 before column 0: the elimination order ILU(0)
  // needs is gone, so the symbolic phase refuses the structure.
  const sparse::CsrMatrix a(2, 2, std::vector<std::size_t>{0, 1, 3},
                            std::vector<std::size_t>{0, 1, 0},
                            std::vector<double>{4.0, 3.0, 1.0});
  EXPECT_THROW(sparse::Ilu0Preconditioner m(a), ContractError);
}

// The fused passes keep every reduction serial and in element order, so with
// the same preconditioner they round exactly like the textbook loop's
// separate kernels: same iteration count, bit-identical solution. The
// iteration count is the contract (within 3); bit-identity is what the
// design gives today.
TEST(BicgstabFused, MatchesTextbookLoopOnCaseOneSystems) {
  for (const CaseOneSystem& c : case_one_systems()) {
    const sparse::CsrMatrix& a = c.system.matrix;
    const sparse::Vector& b = c.system.rhs;
    const sparse::Ilu0Preconditioner m(a);
    for (const double tol : {1e-6, 1e-9}) {
      const sparse::Vector cold(a.rows(), c.system.inlet_temperature);
      sparse::Vector x_fused = cold;
      sparse::SolveOptions opts;
      opts.rel_tolerance = tol;
      sparse::SolverWorkspace ws;
      const sparse::SolveReport fused =
          sparse::bicgstab_solve(a, b, x_fused, m, ws, opts);
      sparse::Vector x_ref = cold;
      const reference::BicgstabResult textbook =
          reference::bicgstab(a, b, x_ref, m, tol, 10 * a.rows() + 100);
      const std::string where = c.label + " tol " + std::to_string(tol);
      ASSERT_TRUE(fused.converged) << where;
      ASSERT_TRUE(textbook.converged) << where;
      const auto fused_iters = static_cast<long>(fused.iterations);
      const auto ref_iters = static_cast<long>(textbook.iterations);
      EXPECT_LE(std::labs(fused_iters - ref_iters), 3L)
          << where << ": fused " << fused_iters << ", textbook " << ref_iters;
      EXPECT_EQ(x_fused, x_ref) << where;
      EXPECT_LE(reference::true_relative_residual(a, b, x_fused), tol)
          << where;
    }
  }
}

TEST(IluFactorLatency, OneObservationPerFactorCall) {
  const int saved_level = trace::level();
  metrics::MetricShard shard;
  TaskContext ctx;
  ctx.telemetry = &shard;
  const ScopedTaskContext scope(&ctx);
  auto observed = [&] {
    return shard.snapshot().hist(metrics::Hist::ilu_factor_seconds).count;
  };
  const std::vector<CaseOneSystem> systems = case_one_systems();

  trace::set_level(trace::kFine);
  SteadyWorkspace workspace;
  std::uint64_t factor_calls = 0;
  for (const CaseOneSystem& c : systems) {
    workspace.factor(c.system.matrix);
    ++factor_calls;
  }
  // solve_steady factors once per call, with or without a workspace.
  solve_steady(systems[0].system, 1e-6, nullptr, &workspace);
  solve_steady(systems[0].system, 1e-6);
  factor_calls += 2;
  EXPECT_EQ(observed(), factor_calls);

  // A fine site: silent at the coarse level.
  trace::set_level(trace::kCoarse);
  workspace.factor(systems[1].system.matrix);
  EXPECT_EQ(observed(), factor_calls);
  trace::set_level(saved_level);
}

}  // namespace
}  // namespace lcn
