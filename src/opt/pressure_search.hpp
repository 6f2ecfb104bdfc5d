// One-dimensional searches over the system pressure drop (paper §4.1/§4.2,
// Algorithm 3, and the golden-section variant of §5).
//
// For a fixed network N, ΔT = f(P_sys) is either uni-modal (a minimum) or
// monotone decreasing, and T_max = h(P_sys) is monotone decreasing; both
// flatten once the coolant everywhere approaches T_in ("turning points",
// Fig. 5/6). The probes come from numerical simulation, so all searches
// below are derivative-free and frugal with evaluations.
#pragma once

#include <functional>

namespace lcn {

/// A probe of f(P_sys) — normally a (cached) thermal simulation.
using PressureProbe = std::function<double(double)>;

struct PressureSearchOptions {
  double p_init = 2000.0;      ///< P_init, Pa
  double r_init = 0.5;         ///< initial step ratio
  double rel_precision = 5e-3; ///< "small enough" interval width
  double p_min = 1.0;          ///< Pa, numerical floor
  double p_max = 5e7;          ///< Pa, give-up ceiling
  int max_probes = 80;
  /// Plateau detection (Algorithm 3 line 11): this many consecutive
  /// right-moves with |1 - f(P0)/f(P1)| below rel_flat ends the search.
  int flat_moves = 3;
  double rel_flat = 1e-3;
};

/// Relative residual a search probe is solved to. The searches only compare
/// probes with a target or with each other, and stop at rel_precision in
/// P_sys, so most probes need far less than the 1e-9 of a reported number.
inline constexpr double kSearchProbeTolerance = 1e-6;

/// Guard band around every decision a search takes from a loose probe. A
/// loose value within kProbeGuardBand·|value − zero| of what it is compared
/// with is re-solved tightly first; `zero` is 0 for ΔT and T_in for T_max.
/// The largest loose error measured was 3.5e-3, under a quarter of the band
/// (DESIGN.md §S9).
inline constexpr double kProbeGuardBand = 1.5e-2;

/// True when a loose `value` lies too close to `reference` to decide which
/// side of it the exact value is on.
bool within_guard_band(double value, double reference, double zero = 0.0);

/// `loose` read against `target`: the loose value, or `tight` when the loose
/// one lies within the guard band of the target. Comparing the result with
/// the target then gives the verdict the exact f gives.
PressureProbe guard_probe(PressureProbe loose, PressureProbe tight,
                          double target, double zero = 0.0);

struct PressureSearchResult {
  double p_sys = 0.0;
  double f_value = 0.0;   ///< f at p_sys
  bool feasible = false;  ///< f(p_sys) <= target
  int probes = 0;
};

/// Algorithm 3: the smallest P_sys with f(P_sys) <= target when one exists
/// (returns feasible=true), otherwise the P_sys minimizing f
/// (feasible=false — which proves infeasibility for uni-modal f).
///
/// `entry_hint` > 0 is a guess at the crossing. The search then first probes
/// the pair (g_k, g_k+1), k >= 1, of the cold expansion grid (p_init,
/// p_init·(1 + r_init), then doubling steps) that brackets the hint. When
/// f(g_k) > target and f(g_k) >= f(g_k+1), every grid point below g_k was
/// infeasible and descending for uni-modal f, so the cold walk would reach
/// that pair with the same state: the search continues from it (with the
/// plateau count restarted) and returns the cold search's point. Otherwise it
/// runs the cold walk, which revisits the two probes.
PressureSearchResult minimize_pressure_for_target(const PressureProbe& f,
                                                  double target,
                                                  const PressureSearchOptions&
                                                      options = {},
                                                  double entry_hint = 0.0);

/// Monotone bisection for decreasing h: the smallest P_sys in [p_lo, p_hi]
/// with h(P_sys) <= target. feasible=false when even h(p_hi) > target.
PressureSearchResult minimize_pressure_monotone(const PressureProbe& h,
                                                double target, double p_lo,
                                                double p_hi,
                                                const PressureSearchOptions&
                                                    options = {});

/// Golden-section minimization of a uni-modal (or monotone) f on
/// [p_lo, p_hi]; returns the minimizing pressure (feasible always true).
/// With `tight` set, f is a loose probe: two values within the guard band of
/// each other are both re-read through `tight` before they are compared.
PressureSearchResult golden_section_min(const PressureProbe& f, double p_lo,
                                        double p_hi,
                                        const PressureSearchOptions& options =
                                            {},
                                        const PressureProbe& tight = {});

}  // namespace lcn
