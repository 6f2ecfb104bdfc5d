// Dense vector kernels shared by the iterative solvers.
//
// Element-wise kernels (axpy, xpby, scale) fan out over the global thread
// pool for large vectors; each element is written by exactly one task with
// the serial operation order, so results are bit-identical for any thread
// count. Reductions (dot, norm2) stay serial on purpose: chunked partial
// sums round differently per thread count, which would break the
// serial/parallel equivalence guarantee the SA determinism tests pin down.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/assert.hpp"
#include "sparse/parallel.hpp"

namespace lcn::sparse {

using Vector = std::vector<double>;

inline double dot(const Vector& a, const Vector& b) {
  LCN_ASSERT(a.size() == b.size(), "dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

inline double norm2(const Vector& a) { return std::sqrt(dot(a, a)); }

inline double norm_inf(const Vector& a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::abs(v));
  return m;
}

/// y += alpha * x
inline void axpy(double alpha, const Vector& x, Vector& y) {
  LCN_ASSERT(x.size() == y.size(), "axpy: size mismatch");
  if (parallel_kernels_enabled(x.size(), kVectorGrain)) {
    parallel_ranges(x.size(), [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) y[i] += alpha * x[i];
    });
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

/// y = x + beta * y
inline void xpby(const Vector& x, double beta, Vector& y) {
  LCN_ASSERT(x.size() == y.size(), "xpby: size mismatch");
  if (parallel_kernels_enabled(x.size(), kVectorGrain)) {
    parallel_ranges(x.size(), [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) y[i] = x[i] + beta * y[i];
    });
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] + beta * y[i];
}

inline void scale(double alpha, Vector& x) {
  if (parallel_kernels_enabled(x.size(), kVectorGrain)) {
    parallel_ranges(x.size(), [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) x[i] *= alpha;
    });
    return;
  }
  for (double& v : x) v *= alpha;
}

}  // namespace lcn::sparse
