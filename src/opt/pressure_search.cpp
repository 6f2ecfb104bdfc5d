#include "opt/pressure_search.hpp"

#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "common/instrument.hpp"
#include "common/trace.hpp"

namespace lcn {

namespace {

/// Probe wrapper that counts evaluations and enforces the probe budget.
class CountingProbe {
 public:
  CountingProbe(const PressureProbe& f, int budget) : f_(f), budget_(budget) {}

  double operator()(double p) {
    ++count_;
    instrument::add(instrument::Counter::pressure_probes);
    // Soft budget: Algorithm 3 terminates by interval width; the budget is a
    // backstop against pathological probes (e.g. noisy f).
    LCN_CHECK(count_ <= 4 * budget_, "pressure search probe budget exhausted");
    return f_(p);
  }

  int count() const { return count_; }

 private:
  const PressureProbe& f_;
  int budget_;
  int count_ = 0;
};

}  // namespace

bool within_guard_band(double value, double reference, double zero) {
  return std::abs(value - reference) <= kProbeGuardBand * std::abs(value - zero);
}

PressureProbe guard_probe(PressureProbe loose, PressureProbe tight,
                          double target, double zero) {
  return [loose = std::move(loose), tight = std::move(tight), target,
          zero](double p) {
    const double value = loose(p);
    return within_guard_band(value, target, zero) ? tight(p) : value;
  };
}

PressureSearchResult minimize_pressure_for_target(
    const PressureProbe& raw_f, double target,
    const PressureSearchOptions& options, double entry_hint) {
  const trace::Span span("pressure_search", trace::kFine);
  LCN_REQUIRE(options.p_min > 0.0 && options.p_min < options.p_max,
              "invalid pressure bounds");
  CountingProbe f(raw_f, options.max_probes);
  PressureSearchResult out;
  double p0 = 0.0;
  double f0 = 0.0;
  double step = 0.0;
  double p1 = 0.0;
  double f1 = 0.0;

  // --- Hinted entry: walk the cold grid, unprobed, to the pair (p0, p1)
  // that brackets the hint, stopping before any point the cold walk would
  // clamp to p_max, then check the state the cold walk would be in there.
  bool entered = false;
  if (entry_hint > 0.0) {
    instrument::add(instrument::Counter::search_entries);
    step = options.p_init * options.r_init;
    p0 = options.p_init + step;
    step *= 2.0;
    p1 = p0 + step;
    if (p1 < options.p_max) {
      while (p1 < entry_hint && p1 + 2.0 * step < options.p_max) {
        p0 = p1;
        step *= 2.0;
        p1 = p0 + step;
      }
      f0 = f(p0);
      f1 = f(p1);
      entered = f0 > target && f0 >= f1;
    }
    if (!entered) instrument::add(instrument::Counter::search_entry_fallbacks);
  }

  // --- Initialization (Algorithm 3 lines 1-4): ensure f(P0) > target and
  // f(P0) >= f(P1), i.e. P0 sits left of both the *left* crossing and the
  // minimum. Landing on the rising (right) side loops back to the halving
  // step ("go to 2"), walking past the feasible valley to its left edge.
  if (!entered) {
    p0 = options.p_init;
    f0 = f(p0);
    for (;;) {
      bool hit_floor = false;
      while (f0 <= target) {  // line 2
        if (p0 / 2.0 < options.p_min) {
          hit_floor = true;
          break;
        }
        p0 /= 2.0;
        f0 = f(p0);
      }
      if (hit_floor) {
        // Everything down to the numerical floor is feasible.
        out.p_sys = p0;
        out.f_value = f0;
        out.feasible = true;
        out.probes = f.count();
        return out;
      }
      step = p0 * options.r_init;  // line 3
      p1 = p0 + step;
      f1 = f(p1);
      if (f0 >= f1) break;  // left of the minimum: proceed to expansion
      if (p0 / 2.0 < options.p_min) break;  // minimum hugs the floor: accept
      p0 /= 2.0;  // line 4: rising side — move left and go to 2
      f0 = f(p0);
    }
  }

  // --- Expansion / contraction (lines 5-11).
  int flat_streak = 0;
  while (f1 > target) {
    step *= 2.0;
    double p2 = p1 + step;
    if (p2 > options.p_max) p2 = options.p_max;
    double f2 = f(p2);

    while (f1 < f2) {  // passed the minimum without crossing the target
      const bool narrow = std::abs(1.0 - p0 / p1) < options.rel_precision &&
                          std::abs(1.0 - p2 / p1) < options.rel_precision;
      if (narrow) {  // line 8: converged on the minimum — infeasible target
        out.p_sys = p1;
        out.f_value = f1;
        out.feasible = f1 <= target;
        out.probes = f.count();
        return out;
      }
      p2 = p1;
      f2 = f1;
      p1 = (p0 + p2) / 2.0;
      f1 = f(p1);
      step = p2 - p1;
      if (f1 <= target) break;  // contraction found a feasible point
    }
    if (f1 <= target) break;

    // Move right (line 10) and watch for a plateau (line 11).
    const double rel_change = std::abs(1.0 - f0 / f1);
    if (rel_change < options.rel_flat) {
      if (++flat_streak >= options.flat_moves || p2 >= options.p_max) {
        out.p_sys = p1;
        out.f_value = f1;
        out.feasible = false;  // flat above the target: infeasible
        out.probes = f.count();
        return out;
      }
    } else {
      flat_streak = 0;
    }
    p0 = p1;
    f0 = f1;
    p1 = p2;
    f1 = f2;
    if (p1 >= options.p_max && f1 > target) {
      out.p_sys = p1;
      out.f_value = f1;
      out.feasible = false;
      out.probes = f.count();
      return out;
    }
  }

  // --- Bisection for f(P) = target on [p0, p1] (line 12), maintaining
  // f(p0) > target >= f(p1); the returned point is feasible.
  while (std::abs(1.0 - p0 / p1) > options.rel_precision) {
    const double mid = 0.5 * (p0 + p1);
    const double fm = f(mid);
    if (fm <= target) {
      p1 = mid;
      f1 = fm;
    } else {
      p0 = mid;
    }
  }
  out.p_sys = p1;
  out.f_value = f1;
  out.feasible = true;
  out.probes = f.count();
  return out;
}

PressureSearchResult minimize_pressure_monotone(
    const PressureProbe& raw_h, double target, double p_lo, double p_hi,
    const PressureSearchOptions& options) {
  const trace::Span span("pressure_bisection", trace::kFine);
  LCN_REQUIRE(p_lo > 0.0 && p_lo <= p_hi, "invalid bisection interval");
  CountingProbe h(raw_h, options.max_probes);
  PressureSearchResult out;

  double f_hi = h(p_hi);
  if (f_hi > target) {  // even the largest allowed pressure fails
    out.p_sys = p_hi;
    out.f_value = f_hi;
    out.feasible = false;
    out.probes = h.count();
    return out;
  }
  double f_lo = h(p_lo);
  if (f_lo <= target) {  // the smallest pressure already satisfies it
    out.p_sys = p_lo;
    out.f_value = f_lo;
    out.feasible = true;
    out.probes = h.count();
    return out;
  }

  double lo = p_lo;  // h(lo) > target
  double hi = p_hi;  // h(hi) <= target
  while (std::abs(1.0 - lo / hi) > options.rel_precision) {
    const double mid = 0.5 * (lo + hi);
    const double fm = h(mid);
    if (fm <= target) {
      hi = mid;
      f_hi = fm;
    } else {
      lo = mid;
    }
  }
  out.p_sys = hi;
  out.f_value = f_hi;
  out.feasible = true;
  out.probes = h.count();
  return out;
}

PressureSearchResult golden_section_min(const PressureProbe& raw_f,
                                        double p_lo, double p_hi,
                                        const PressureSearchOptions& options,
                                        const PressureProbe& tight) {
  const trace::Span span("golden_section", trace::kFine);
  LCN_REQUIRE(p_lo > 0.0 && p_lo < p_hi, "invalid golden-section interval");
  CountingProbe f(raw_f, options.max_probes);
  constexpr double kInvPhi = 0.6180339887498949;

  double a = p_lo;
  double b = p_hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  // Every comparison of f1 with f2 (and the final pick) goes through here.
  const auto settle = [&] {
    if (tight && (within_guard_band(f1, f2) || within_guard_band(f2, f1))) {
      f1 = tight(x1);
      f2 = tight(x2);
    }
  };
  settle();
  while ((b - a) > options.rel_precision * b) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    }
    settle();
    if (f.count() >= options.max_probes) break;
  }
  PressureSearchResult out;
  if (f1 <= f2) {
    out.p_sys = x1;
    out.f_value = f1;
  } else {
    out.p_sys = x2;
    out.f_value = f2;
  }
  out.feasible = true;
  out.probes = f.count();
  return out;
}

}  // namespace lcn
