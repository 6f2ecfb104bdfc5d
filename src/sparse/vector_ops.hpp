// Dense vector kernels shared by the iterative solvers. Every kernel runs on
// the calling thread in index order, so results do not depend on the pool
// width; parallelism is spent on the coarse loops (SA/island neighbours,
// sweep scenarios) that call the solvers.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/assert.hpp"

namespace lcn::sparse {

using Vector = std::vector<double>;

inline double dot(const Vector& a, const Vector& b) {
  LCN_ASSERT(a.size() == b.size(), "dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

inline double norm2(const Vector& a) { return std::sqrt(dot(a, a)); }

/// y += alpha * x
inline void axpy(double alpha, const Vector& x, Vector& y) {
  LCN_ASSERT(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// y = x + beta * y
inline void xpby(const Vector& x, double beta, Vector& y) {
  LCN_ASSERT(x.size() == y.size(), "xpby: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] + beta * y[i];
}

}  // namespace lcn::sparse
