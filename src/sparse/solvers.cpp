#include "sparse/solvers.hpp"

#include <cmath>
#include <optional>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "sparse/ic0.hpp"

namespace lcn::sparse {

namespace {
std::size_t effective_max_iters(const SolveOptions& opts, std::size_t n) {
  return opts.max_iterations != 0 ? opts.max_iterations : 10 * n + 100;
}

// Runs `solve` inside one fine span that times its latency histogram and
// carries the outcome, then bills the solve and its final iteration count.
template <class Solve>
SolveReport recorded(const char* name, metrics::Hist hist,
                     instrument::Counter solves,
                     instrument::Counter iterations, const Solve& solve) {
  trace::Span span(name, trace::kFine, hist);
  const SolveReport report = solve();
  instrument::add(solves);
  instrument::add(iterations, report.iterations);
  if (span.active()) {
    span.set_args(strfmt("\"iters\":%zu,\"rel\":%.3e,\"converged\":%s",
                         report.iterations, report.relative_residual,
                         report.converged ? "true" : "false"));
  }
  return report;
}

SolveReport bicgstab_impl(const CsrMatrix& a, const Vector& b, Vector& x,
                          const Preconditioner& m, const SolveOptions& opts,
                          SolverWorkspace& ws) {
  const std::size_t n = a.rows();
  LCN_REQUIRE(a.cols() == n, "BiCGSTAB needs a square matrix");
  LCN_REQUIRE(b.size() == n, "BiCGSTAB rhs size mismatch");
  x.resize(n, 0.0);

  const double bnorm = norm2(b);
  SolveReport report;
  if (bnorm == 0.0) {
    x.assign(n, 0.0);
    report.converged = true;
    return report;
  }

  Vector& r = ws.r;
  r = b;
  a.multiply(x, ws.ax);
  axpy(-1.0, ws.ax, r);
  Vector& r0 = ws.r0;
  r0 = r;
  ws.p.assign(n, 0.0);
  ws.v.assign(n, 0.0);
  ws.s.resize(n);
  Vector& p = ws.p;
  Vector& v = ws.v;
  Vector& s = ws.s;
  Vector& phat = ws.phat;
  Vector& shat = ws.shat;
  Vector& t = ws.t;

  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  // r0 · r for the next iteration, carried out of the x/r pass. Every
  // reduction below is serial and sums in element order, so the iterates
  // are those of the one-kernel-per-step loop at any thread count.
  double rho_next = dot(r0, r);

  // `it` outlives the loop: a breakdown stops after `it` whole iterations.
  const std::size_t max_iters = effective_max_iters(opts, n);
  std::size_t it = 0;
  for (; it < max_iters; ++it) {
    // Breakdown: the next beta would divide by a vanishing rho or omega.
    if (std::abs(rho_next) < 1e-300 || std::abs(omega) < 1e-300) break;
    // Pass 1: p = r + beta * (p - omega * v).
    if (it == 0) {
      p = r;
    } else {
      const double beta = (rho_next / rho) * (alpha / omega);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
      }
    }
    rho = rho_next;

    m.apply(p, phat);
    a.multiply(phat, v);
    const double r0v = dot(r0, v);
    if (std::abs(r0v) < 1e-300) break;
    alpha = rho / r0v;

    // Pass 2: s = r - alpha * v and ||s||^2.
    double ss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = r[i] - alpha * v[i];
      ss += s[i] * s[i];
    }
    if (std::sqrt(ss) / bnorm < opts.rel_tolerance) {
      axpy(alpha, phat, x);
      report.converged = true;
      report.iterations = it + 1;
      report.relative_residual = std::sqrt(ss) / bnorm;
      return report;
    }

    m.apply(s, shat);
    a.multiply(shat, t);
    double tt = 0.0;
    double ts = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      tt += t[i] * t[i];
      ts += t[i] * s[i];
    }
    if (tt < 1e-300) break;
    omega = ts / tt;

    // Pass 3: x += alpha * phat + omega * shat (two roundings, in that
    // order), r = s - omega * t, ||r||^2 and the next r0 · r.
    double rr = 0.0;
    rho_next = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = (x[i] + alpha * phat[i]) + omega * shat[i];
      r[i] = s[i] - omega * t[i];
      rr += r[i] * r[i];
      rho_next += r0[i] * r[i];
    }

    const double rel = std::sqrt(rr) / bnorm;
    if (rel < opts.rel_tolerance) {
      report.converged = true;
      report.iterations = it + 1;
      report.relative_residual = rel;
      return report;
    }
  }

  a.multiply(x, ws.ax);
  Vector& final_r = ws.t;
  final_r = b;
  axpy(-1.0, ws.ax, final_r);
  report.iterations = it;
  report.relative_residual = norm2(final_r) / bnorm;
  report.converged = report.relative_residual < opts.rel_tolerance;
  return report;
}

SolveReport cg_impl(const CsrMatrix& a, const Vector& b, Vector& x,
                    const Preconditioner& m, const SolveOptions& opts) {
  const std::size_t n = a.rows();
  LCN_REQUIRE(a.cols() == n, "CG needs a square matrix");
  LCN_REQUIRE(b.size() == n, "CG rhs size mismatch");
  x.resize(n, 0.0);

  const double bnorm = norm2(b);
  SolveReport report;
  if (bnorm == 0.0) {
    x.assign(n, 0.0);
    report.converged = true;
    return report;
  }

  Vector r = b;
  Vector ax;
  a.multiply(x, ax);
  axpy(-1.0, ax, r);
  Vector z;
  m.apply(r, z);
  Vector p = z;
  Vector ap;
  double rz = dot(r, z);

  const std::size_t max_iters = effective_max_iters(opts, n);
  for (std::size_t it = 0; it < max_iters; ++it) {
    a.multiply(p, ap);
    const double pap = dot(p, ap);
    if (pap <= 0.0) {
      // Not SPD, numerically degenerate, or p = 0 because x is already the
      // solution — bail out with best effort.
      report.iterations = it;
      report.relative_residual = norm2(r) / bnorm;
      report.converged = report.relative_residual < opts.rel_tolerance;
      return report;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);

    const double rel = norm2(r) / bnorm;
    if (rel < opts.rel_tolerance) {
      report.converged = true;
      report.iterations = it + 1;
      report.relative_residual = rel;
      return report;
    }

    m.apply(r, z);
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    xpby(z, beta, p);
  }

  report.iterations = max_iters;
  report.relative_residual = norm2(r) / bnorm;
  return report;
}

}  // namespace

SolveReport cg_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                     const Preconditioner& m, const SolveOptions& opts) {
  return recorded("cg_solve", metrics::Hist::cg_seconds,
                  instrument::Counter::cg_solves,
                  instrument::Counter::cg_iterations,
                  [&] { return cg_impl(a, b, x, m, opts); });
}

SolveReport bicgstab_solve(const CsrMatrix& a, const Vector& b, Vector& x,
                           const Preconditioner& m, SolverWorkspace& ws,
                           const SolveOptions& opts) {
  return recorded("bicgstab_solve", metrics::Hist::bicgstab_seconds,
                  instrument::Counter::bicgstab_solves,
                  instrument::Counter::bicgstab_iterations,
                  [&] { return bicgstab_impl(a, b, x, m, opts, ws); });
}

void solve_spd_or_throw(const CsrMatrix& a, const Vector& b, Vector& x,
                        const std::string& context, const SolveOptions& opts) {
  std::optional<Ic0Preconditioner> ic0;
  try {
    ic0.emplace(a);
  } catch (const RuntimeError& e) {
    throw RuntimeError(context + ": " + e.what());
  }
  const SolveReport report = cg_solve(a, b, x, *ic0, opts);
  if (!report.converged) {
    throw RuntimeError(context + ": CG failed to converge (rel residual " +
                       std::to_string(report.relative_residual) + " after " +
                       std::to_string(report.iterations) + " iterations)");
  }
  LCN_DEBUG() << context << ": CG converged in " << report.iterations
              << " iters, rel residual " << report.relative_residual;
}

}  // namespace lcn::sparse
