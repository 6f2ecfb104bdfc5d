// Unit tests for the sparse linear algebra substrate (S1).
#include <gtest/gtest.h>

#include <cmath>

#include "common/instrument.hpp"
#include "common/rng.hpp"
#include "csr_inspect.hpp"
#include "dense.hpp"
#include "reference_krylov.hpp"
#include "sparse/csr.hpp"
#include "sparse/preconditioner.hpp"
#include "sparse/solvers.hpp"
#include "triplet_list.hpp"

namespace lcn::sparse {
namespace {

CsrMatrix small_matrix() {
  // [ 4 -1  0]
  // [-1  4 -1]
  // [ 0 -1  4]
  TripletList t(3, 3);
  t.add(0, 0, 4.0);
  t.add(0, 1, -1.0);
  t.add(1, 0, -1.0);
  t.add(1, 1, 4.0);
  t.add(1, 2, -1.0);
  t.add(2, 1, -1.0);
  t.add(2, 2, 4.0);
  return t.to_csr();
}

TEST(TripletList, MergesDuplicatesBySumming) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.5);
  t.add(1, 1, -1.0);
  t.add(0, 1, 0.5);
  const CsrMatrix a = t.to_csr();
  EXPECT_EQ(a.nnz(), 3u);
  EXPECT_DOUBLE_EQ(csr_at(a, 0, 0), 3.5);
  EXPECT_DOUBLE_EQ(csr_at(a, 0, 1), 0.5);
  EXPECT_DOUBLE_EQ(csr_at(a, 1, 1), -1.0);
  EXPECT_DOUBLE_EQ(csr_at(a, 1, 0), 0.0);
}

TEST(TripletList, DropsExplicitZeros) {
  TripletList t(2, 2);
  t.add(0, 0, 0.0);
  t.add(1, 1, 1.0);
  EXPECT_EQ(t.to_csr().nnz(), 1u);
}

TEST(TripletList, RejectsOutOfRangeIndices) {
  TripletList t(2, 2);
  EXPECT_THROW(t.add(2, 0, 1.0), ContractError);
  EXPECT_THROW(t.add(0, 2, 1.0), ContractError);
}

TEST(CsrMatrix, MultiplyMatchesDense) {
  const CsrMatrix a = small_matrix();
  const Vector x = {1.0, 2.0, 3.0};
  const Vector y = a.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0 + 8.0 - 3.0);
  EXPECT_DOUBLE_EQ(y[2], -2.0 + 12.0);
}

TEST(CsrMatrix, SymmetryGapDetectsAsymmetry) {
  EXPECT_DOUBLE_EQ(csr_symmetry_gap(small_matrix()), 0.0);
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add(0, 1, 2.0);
  t.add(1, 0, 1.0);
  EXPECT_DOUBLE_EQ(csr_symmetry_gap(t.to_csr()), 1.0);
}

TEST(CsrMatrix, DiagonalExtraction) {
  const Vector d = csr_diagonal(small_matrix());
  EXPECT_EQ(d, (Vector{4.0, 4.0, 4.0}));
}

TEST(DenseLu, SolvesSmallSystemExactly) {
  DenseMatrix a(3, 3);
  a(0, 0) = 2.0; a(0, 1) = 1.0; a(0, 2) = -1.0;
  a(1, 0) = -3.0; a(1, 1) = -1.0; a(1, 2) = 2.0;
  a(2, 0) = -2.0; a(2, 1) = 1.0; a(2, 2) = 2.0;
  const DenseLu lu(a);
  const Vector x = lu.solve({8.0, -11.0, -3.0});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(x[2], -1.0, 1e-12);
}

TEST(DenseLu, ThrowsOnSingularMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_THROW(DenseLu lu(a), RuntimeError);
}

// Random SPD system: A = B^T B + n I assembled sparsely from a banded B.
CsrMatrix random_spd(std::size_t n, Rng& rng) {
  TripletList t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 4.0 + rng.next_double());
    if (i + 1 < n) {
      const double off = -1.0 + 0.2 * rng.next_double();
      t.add(i, i + 1, off);
      t.add(i + 1, i, off);
    }
    if (i + 7 < n) {
      const double off = -0.3 * rng.next_double();
      t.add(i, i + 7, off);
      t.add(i + 7, i, off);
    }
  }
  return t.to_csr();
}

TEST(CgSolve, ConvergesOnRandomSpdSystems) {
  Rng rng(42);
  for (std::size_t n : {5u, 50u, 500u}) {
    const CsrMatrix a = random_spd(n, rng);
    Vector b(n);
    for (auto& v : b) v = rng.next_real(-1.0, 1.0);
    Vector x;
    const reference::Jacobi m(a);
    const SolveReport report = cg_solve(a, b, x, m);
    EXPECT_TRUE(report.converged) << "n=" << n;
    Vector r = a.multiply(x);
    axpy(-1.0, b, r);
    EXPECT_LT(norm2(r) / norm2(b), 1e-9) << "n=" << n;
  }
}

TEST(CgSolve, ZeroRhsGivesZeroSolution) {
  const CsrMatrix a = small_matrix();
  Vector x = {5.0, 5.0, 5.0};
  const reference::Identity id;
  const SolveReport report = cg_solve(a, Vector(3, 0.0), x, id);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(x, Vector(3, 0.0));
}

CsrMatrix random_nonsymmetric(std::size_t n, Rng& rng, double advection) {
  TripletList t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 5.0 + rng.next_double());
    if (i + 1 < n) {
      t.add(i, i + 1, -1.0 - advection * rng.next_double());
      t.add(i + 1, i, -1.0 + advection * rng.next_double());
    }
    if (i + 11 < n) t.add(i, i + 11, -0.4 * rng.next_double());
  }
  return t.to_csr();
}

TEST(BicgstabSolve, ConvergesOnNonsymmetricSystems) {
  Rng rng(7);
  for (std::size_t n : {4u, 64u, 400u}) {
    const CsrMatrix a = random_nonsymmetric(n, rng, 0.8);
    Vector b(n);
    for (auto& v : b) v = rng.next_real(-2.0, 2.0);
    Vector x;
    const Ilu0Preconditioner m(a);
    SolverWorkspace ws;
    const SolveReport report = bicgstab_solve(a, b, x, m, ws);
    EXPECT_TRUE(report.converged) << "n=" << n;
    Vector r = a.multiply(x);
    axpy(-1.0, b, r);
    EXPECT_LT(norm2(r) / norm2(b), 1e-8) << "n=" << n;
  }
}

TEST(BicgstabSolve, MatchesDenseLuSolution) {
  Rng rng(99);
  const std::size_t n = 30;
  const CsrMatrix a = random_nonsymmetric(n, rng, 0.5);
  Vector b(n);
  for (auto& v : b) v = rng.next_real(-1.0, 1.0);

  Vector x_iter;
  const Ilu0Preconditioner m(a);
  SolverWorkspace ws;
  ASSERT_TRUE(bicgstab_solve(a, b, x_iter, m, ws).converged);

  const DenseLu lu(DenseMatrix::from_csr(a));
  const Vector x_ref = lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_iter[i], x_ref[i], 1e-7 * (1.0 + std::abs(x_ref[i])));
  }
}

TEST(Ilu0, ExactForTriangularPattern) {
  // For a lower-triangular matrix ILU(0) is an exact factorization, so one
  // preconditioner application solves the system.
  TripletList t(4, 4);
  t.add(0, 0, 2.0);
  t.add(1, 0, -1.0);
  t.add(1, 1, 3.0);
  t.add(2, 1, -0.5);
  t.add(2, 2, 1.5);
  t.add(3, 3, 4.0);
  const CsrMatrix a = t.to_csr();
  const Ilu0Preconditioner m(a);
  const Vector b = {2.0, 2.0, 1.0, 8.0};
  Vector z;
  m.apply(b, z);
  const Vector az = a.multiply(z);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(az[i], b[i], 1e-12);
}

TEST(Ilu0, ThrowsOnMissingDiagonal) {
  TripletList t(2, 2);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  EXPECT_THROW(Ilu0Preconditioner m(t.to_csr()), RuntimeError);
}

TEST(JacobiPreconditioner, ScalesByInverseDiagonal) {
  const reference::Jacobi m(small_matrix());
  Vector z;
  m.apply({4.0, 8.0, -4.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 2.0);
  EXPECT_DOUBLE_EQ(z[2], -1.0);
}

// Property sweep: CG and BiCGSTAB agree with the dense reference across
// sizes and seeds.
class SolverAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverAgreement, SpdCgMatchesDense) {
  Rng rng(GetParam());
  const std::size_t n = 20 + rng.next_below(30);
  const CsrMatrix a = random_spd(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.next_real(-1.0, 1.0);
  Vector x;
  const reference::Jacobi m(a);
  ASSERT_TRUE(cg_solve(a, b, x, m).converged);
  const DenseLu lu(DenseMatrix::from_csr(a));
  const Vector ref = lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], ref[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// A diagonal system and its exact, representable solution: started there,
// the initial residual is exactly zero and both solvers stop before their
// first iteration.
CsrMatrix diagonal3() {
  TripletList t(3, 3);
  t.add(0, 0, 2.0);
  t.add(1, 1, 4.0);
  t.add(2, 2, 8.0);
  return t.to_csr();
}
const Vector kDiagonal3Rhs = {2.0, 8.0, -4.0};
const Vector kDiagonal3Solution = {1.0, 2.0, -0.5};

TEST(BicgstabSolve, BreakdownReportsTheIterationItStoppedAt) {
  // r = 0 makes rho = r0 · r vanish, a breakdown before iteration 1. The
  // report and the counter bill the iterations run, not the budget.
  const CsrMatrix a = diagonal3();
  const Ilu0Preconditioner m(a);
  Vector x = kDiagonal3Solution;
  const instrument::Snapshot before = instrument::snapshot();
  SolverWorkspace ws;
  const SolveReport report = bicgstab_solve(a, kDiagonal3Rhs, x, m, ws);
  const instrument::Snapshot d =
      instrument::delta(before, instrument::snapshot());
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, 0u);
  EXPECT_EQ(report.relative_residual, 0.0);
  EXPECT_EQ(x, kDiagonal3Solution);
  EXPECT_EQ(d.bicgstab_solves, 1u);
  EXPECT_EQ(d.bicgstab_iterations, 0u);
}

TEST(CgSolve, ExactInitialGuessIsConverged) {
  // p = 0 makes p · Ap = 0; at zero residual that exit is convergence, so
  // solve_spd_or_throw keeps the answer after one CG solve.
  const CsrMatrix a = diagonal3();
  const reference::Jacobi m(a);
  Vector x = kDiagonal3Solution;
  const SolveReport report = cg_solve(a, kDiagonal3Rhs, x, m);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, 0u);
  EXPECT_EQ(report.relative_residual, 0.0);
  EXPECT_EQ(x, kDiagonal3Solution);

  const instrument::Snapshot before = instrument::snapshot();
  solve_spd_or_throw(a, kDiagonal3Rhs, x, "exact guess");
  const instrument::Snapshot d =
      instrument::delta(before, instrument::snapshot());
  EXPECT_EQ(d.cg_solves, 1u);
  EXPECT_EQ(x, kDiagonal3Solution);
}

// 2D 5-point Laplacian on a g x g grid.
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

Vector varied_vector(std::size_t n) {
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(0.37 * static_cast<double>(i)) +
           1e-3 * static_cast<double>(i % 101);
  }
  return x;
}

// ILU(0) refactor() contract (DESIGN.md §S18): after a refactor, whether to
// a matrix sharing the previous structure (numeric refill) or to one with a
// DIFFERENT structure (full-reconstruction fallback), the preconditioner must
// behave exactly like one freshly built from the new matrix.
void expect_refactor_equals_fresh(const CsrMatrix& first,
                                  const CsrMatrix& second) {
  Ilu0Preconditioner refactored(first);
  refactored.refactor(second);
  const Ilu0Preconditioner fresh(second);
  const Vector r = varied_vector(second.rows());
  Vector z_refactored, z_fresh;
  refactored.apply(r, z_refactored);
  fresh.apply(r, z_fresh);
  EXPECT_EQ(z_refactored, z_fresh);
}

TEST(PreconRefactor, FallsBackToFullRebuildOnStructureFlip) {
  const CsrMatrix small = laplacian2d(23);
  const CsrMatrix big = laplacian2d(41);
  expect_refactor_equals_fresh(small, big);
  // And back down again mid-sequence.
  expect_refactor_equals_fresh(big, small);
}

TEST(PreconRefactor, SharedStructureRefillMatchesFresh) {
  const CsrMatrix a = laplacian2d(32);
  Vector values = a.values();
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] *= 1.0 + 1e-3 * static_cast<double>(i % 7);
  }
  const CsrMatrix b(a.rows(), a.cols(), a.shared_row_ptr(), a.shared_col_idx(),
                    std::move(values));
  expect_refactor_equals_fresh(a, b);
}

// A refactor that throws in the symbolic phase must not leave the failed
// structure behind as "analyzed": refactoring to it again re-runs the
// diagonal search (and throws again), and a valid matrix afterwards still
// gives the fresh factors.
TEST(PreconRefactor, MissingDiagonalKeepsNoStaleStructure) {
  const CsrMatrix good = laplacian2d(9);
  TripletList t(good.rows(), good.cols());
  for (std::size_t i = 1; i < good.rows(); ++i) t.add(i, i, 1.0);
  t.add(0, 1, 1.0);
  const CsrMatrix bad = t.to_csr();

  Ilu0Preconditioner m(good);
  EXPECT_THROW(m.refactor(bad), RuntimeError);
  EXPECT_THROW(m.refactor(bad), RuntimeError);
  m.refactor(good);
  const Ilu0Preconditioner fresh(good);
  const Vector r = varied_vector(good.rows());
  Vector z, z_fresh;
  m.apply(r, z);
  fresh.apply(r, z_fresh);
  EXPECT_EQ(z, z_fresh);
}

}  // namespace
}  // namespace lcn::sparse
