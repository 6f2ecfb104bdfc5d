// Tests for the IC(0) preconditioner on SPD systems.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "reference_krylov.hpp"
#include "sparse/ic0.hpp"
#include "sparse/solvers.hpp"
#include "triplet_list.hpp"

namespace lcn::sparse {
namespace {

CsrMatrix laplacian_1d(std::size_t n) {
  TripletList t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 2.0 + (i == 0 || i + 1 == n ? 1.0 : 0.0));
    if (i + 1 < n) {
      t.add(i, i + 1, -1.0);
      t.add(i + 1, i, -1.0);
    }
  }
  return t.to_csr();
}

TEST(Ic0, ExactForTridiagonalSpd) {
  // IC(0) on a tridiagonal SPD matrix is the exact Cholesky factorization,
  // so one application solves the system.
  const CsrMatrix a = laplacian_1d(12);
  const Ic0Preconditioner m(a);
  Vector b(12);
  Rng rng(3);
  for (auto& v : b) v = rng.next_real(-1.0, 1.0);
  Vector z;
  m.apply(b, z);
  const Vector az = a.multiply(z);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(az[i], b[i], 1e-10);
}

TEST(Ic0, AcceleratesCgOverJacobi) {
  // 2D 5-point Laplacian with a grounded diagonal.
  const int n = 40;
  TripletList t(static_cast<std::size_t>(n) * n,
                static_cast<std::size_t>(n) * n);
  auto id = [n](int r, int c) {
    return static_cast<std::size_t>(r) * n + static_cast<std::size_t>(c);
  };
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      t.add(id(r, c), id(r, c), 4.01);
      if (r + 1 < n) {
        t.add(id(r, c), id(r + 1, c), -1.0);
        t.add(id(r + 1, c), id(r, c), -1.0);
      }
      if (c + 1 < n) {
        t.add(id(r, c), id(r, c + 1), -1.0);
        t.add(id(r, c + 1), id(r, c), -1.0);
      }
    }
  }
  const CsrMatrix a = t.to_csr();
  Vector b(a.rows(), 1.0);

  Vector x1;
  const reference::Jacobi jacobi(a);
  const SolveReport r1 = cg_solve(a, b, x1, jacobi);
  Vector x2;
  const Ic0Preconditioner ic0(a);
  const SolveReport r2 = cg_solve(a, b, x2, ic0);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_NEAR(x1[i], x2[i], 1e-6 * (1.0 + std::abs(x1[i])));
  }
}

TEST(Ic0, ThrowsOnIndefiniteMatrix) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 1, 3.0);
  t.add(1, 0, 3.0);
  t.add(1, 1, 1.0);  // eigenvalues 4, -2
  EXPECT_THROW(Ic0Preconditioner m(t.to_csr()), RuntimeError);
}

TEST(Ic0, ThrowsOnMissingDiagonal) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 0, 0.5);
  EXPECT_THROW(Ic0Preconditioner m(t.to_csr()), ContractError);
}

}  // namespace
}  // namespace lcn::sparse
