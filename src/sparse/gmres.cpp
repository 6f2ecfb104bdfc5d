#include "sparse/gmres.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"

namespace lcn::sparse {

namespace {
// Counter + latency + fine-level span on every exit path; the span member
// is first so its end event fires after the dtor body attaches the outcome
// args.
struct IterationRecorder {
  trace::Span span{"gmres_solve", trace::kFine};
  metrics::ScopedLatency latency{metrics::Hist::gmres_seconds};
  const SolveReport& report;
  ~IterationRecorder() {
    instrument::add(instrument::Counter::gmres_solves);
    instrument::add(instrument::Counter::gmres_iterations, report.iterations);
    if (span.active()) {
      span.set_args(strfmt("\"iters\":%zu,\"rel\":%.3e,\"converged\":%s",
                           report.iterations, report.relative_residual,
                           report.converged ? "true" : "false"));
    }
  }
};

// The final residual_history entry always equals the reported residual; the
// per-iteration entries are the Givens-implied estimates, so the true
// residual computed at restart boundaries is appended when it differs.
void finish_history(SolveReport& report, bool recording) {
  if (!recording) return;
  if (report.residual_history.empty() ||
      report.residual_history.back() != report.relative_residual) {
    report.residual_history.push_back(report.relative_residual);
  }
}

// The one GMRES implementation; all scratch lives in the workspace. Every
// vector is re-initialised to exactly the state the historical allocating
// version constructed (including the zero fills), so iterates are
// bit-identical whether the workspace is fresh or reused.
SolveReport gmres_impl(const CsrMatrix& a, const Vector& b, Vector& x,
                       const Preconditioner& m, const GmresOptions& options,
                       SolverWorkspace& ws) {
  const std::size_t n = a.rows();
  LCN_REQUIRE(a.cols() == n, "GMRES needs a square matrix");
  LCN_REQUIRE(b.size() == n, "GMRES rhs size mismatch");
  LCN_REQUIRE(options.restart >= 1, "GMRES restart must be >= 1");
  x.resize(n, 0.0);

  SolveReport report;
  const IterationRecorder recorder{.report = report};
  const bool recording = options.record_residuals;
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    x.assign(n, 0.0);
    report.converged = true;
    finish_history(report, recording);
    return report;
  }

  const std::size_t restart = std::min<std::size_t>(options.restart, n);
  const std::size_t max_outer =
      options.max_outer != 0 ? options.max_outer : (10 * n) / restart + 4;

  // Arnoldi basis (restart+1 vectors) and Hessenberg in Givens-reduced form.
  ws.basis.resize(restart + 1);
  for (Vector& v : ws.basis) v.assign(n, 0.0);
  ws.h.resize(restart + 1);
  for (Vector& row : ws.h) row.assign(restart, 0.0);
  std::vector<Vector>& basis = ws.basis;
  std::vector<Vector>& h = ws.h;
  ws.cs.assign(restart, 0.0);
  ws.sn.assign(restart, 0.0);
  ws.g.assign(restart + 1, 0.0);
  Vector& cs = ws.cs;
  Vector& sn = ws.sn;
  Vector& g = ws.g;
  Vector& z = ws.z;
  Vector& w = ws.w;

  std::size_t total_iters = 0;
  for (std::size_t outer = 0; outer < max_outer; ++outer) {
    // r = b - A x
    a.multiply(x, w);
    Vector& r = ws.r;
    r = b;
    axpy(-1.0, w, r);
    const double beta = norm2(r);
    report.relative_residual = beta / bnorm;
    if (report.relative_residual < options.rel_tolerance) {
      report.converged = true;
      report.iterations = total_iters;
      finish_history(report, recording);
      return report;
    }

    basis[0] = r;
    scale(1.0 / beta, basis[0]);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    std::size_t k = 0;
    for (; k < restart; ++k) {
      ++total_iters;
      // w = A M^{-1} v_k
      m.apply(basis[k], z);
      a.multiply(z, w);
      // Modified Gram-Schmidt.
      for (std::size_t i = 0; i <= k; ++i) {
        h[i][k] = dot(w, basis[i]);
        axpy(-h[i][k], basis[i], w);
      }
      h[k + 1][k] = norm2(w);
      if (h[k + 1][k] > 1e-300) {
        basis[k + 1] = w;
        scale(1.0 / h[k + 1][k], basis[k + 1]);
      }
      // Apply previous Givens rotations to the new column.
      for (std::size_t i = 0; i < k; ++i) {
        const double tmp = cs[i] * h[i][k] + sn[i] * h[i + 1][k];
        h[i + 1][k] = -sn[i] * h[i][k] + cs[i] * h[i + 1][k];
        h[i][k] = tmp;
      }
      // New rotation annihilating h[k+1][k].
      const double denom =
          std::sqrt(h[k][k] * h[k][k] + h[k + 1][k] * h[k + 1][k]);
      if (denom < 1e-300) {
        ++k;
        break;  // lucky breakdown: exact solution in the subspace
      }
      cs[k] = h[k][k] / denom;
      sn[k] = h[k + 1][k] / denom;
      h[k][k] = denom;
      h[k + 1][k] = 0.0;
      g[k + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];

      if (recording) {
        report.residual_history.push_back(std::abs(g[k + 1]) / bnorm);
      }
      if (std::abs(g[k + 1]) / bnorm < options.rel_tolerance) {
        ++k;
        break;
      }
    }

    // Back-substitute y from the k x k triangular system, x += M^{-1} V y.
    ws.y.assign(k, 0.0);
    Vector& y = ws.y;
    for (std::size_t ii = k; ii-- > 0;) {
      double sum = g[ii];
      for (std::size_t j = ii + 1; j < k; ++j) sum -= h[ii][j] * y[j];
      y[ii] = sum / h[ii][ii];
    }
    ws.update.assign(n, 0.0);
    Vector& update = ws.update;
    for (std::size_t j = 0; j < k; ++j) axpy(y[j], basis[j], update);
    m.apply(update, z);
    axpy(1.0, z, x);
  }

  a.multiply(x, w);
  Vector& r = ws.r;
  r = b;
  axpy(-1.0, w, r);
  report.relative_residual = norm2(r) / bnorm;
  report.converged = report.relative_residual < options.rel_tolerance;
  report.iterations = total_iters;
  finish_history(report, recording);
  return report;
}
}  // namespace

SolveReport gmres_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                        const Preconditioner& m, const GmresOptions& options) {
  SolverWorkspace ws;
  return gmres_impl(a, b, x, m, options, ws);
}

SolveReport gmres_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                        const Preconditioner& m, SolverWorkspace& ws,
                        const GmresOptions& options) {
  instrument::add(instrument::Counter::workspace_reuses);
  return gmres_impl(a, b, x, m, options, ws);
}

}  // namespace lcn::sparse
