// Unit tests for the pressure searches (S9): Algorithm 3 on analytic f with
// known crossings/minima, monotone bisection, golden section, and the guard
// band that lets them read loose probes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "opt/pressure_search.hpp"

namespace lcn {
namespace {

// Uni-modal f(p) = a/p + b·p: minimum at sqrt(a/b) with value 2·sqrt(a·b);
// models ΔT(P_sys) with a coolant-heating branch and a gradient-reversal
// branch (paper Fig. 6(a)).
PressureProbe unimodal(double a, double b) {
  return [a, b](double p) { return a / p + b * p; };
}

// Monotone decreasing f(p) = a/p + c (paper Fig. 6(b)).
PressureProbe monotone(double a, double c) {
  return [a, c](double p) { return a / p + c; };
}

TEST(MinimizePressureForTarget, FindsSmallestFeasiblePressure) {
  // f(p) = 1000/p + 0.002p, target 5: crossing at p = (5-sqrt(17))/0.004.
  const double a = 1000.0;
  const double b = 0.002;
  const double target = 5.0;
  const double expected = (target - std::sqrt(target * target - 4 * a * b)) /
                          (2.0 * b);
  const PressureSearchResult result =
      minimize_pressure_for_target(unimodal(a, b), target);
  EXPECT_TRUE(result.feasible);
  EXPECT_NEAR(result.p_sys, expected, expected * 0.02);
  EXPECT_LE(result.f_value, target);
}

TEST(MinimizePressureForTarget, InfeasibleTargetReturnsMinimum) {
  // min f = 2·sqrt(a·b) = 2.828 at p ≈ 707; target 2 is unreachable.
  const PressureSearchResult result =
      minimize_pressure_for_target(unimodal(1000.0, 0.002), 2.0);
  EXPECT_FALSE(result.feasible);
  EXPECT_NEAR(result.p_sys, std::sqrt(1000.0 / 0.002), 707.0 * 0.1);
  EXPECT_NEAR(result.f_value, 2.0 * std::sqrt(1000.0 * 0.002), 0.05);
}

TEST(MinimizePressureForTarget, MonotoneDecreasingCrossing) {
  // f(p) = 500/p, target 5 -> p = 100.
  const PressureSearchResult result =
      minimize_pressure_for_target(monotone(500.0, 0.0), 5.0);
  EXPECT_TRUE(result.feasible);
  EXPECT_NEAR(result.p_sys, 100.0, 2.5);
}

TEST(MinimizePressureForTarget, PlateauAboveTargetIsInfeasible) {
  // f decays to an asymptote of 8 > target 5: must detect the plateau
  // rather than expanding forever.
  PressureSearchOptions options;
  options.p_max = 1e9;
  const PressureSearchResult result =
      minimize_pressure_for_target(monotone(2000.0, 8.0), 5.0, options);
  EXPECT_FALSE(result.feasible);
  EXPECT_GT(result.f_value, 5.0);
}

TEST(MinimizePressureForTarget, AlreadyFeasibleAtFloor) {
  // f tiny everywhere: the numerical floor is feasible.
  const PressureSearchResult result =
      minimize_pressure_for_target([](double) { return 0.5; }, 5.0);
  EXPECT_TRUE(result.feasible);
  EXPECT_LE(result.p_sys, 2000.0);
}

TEST(MinimizePressureForTarget, UsesFewProbes) {
  int count = 0;
  const PressureProbe f = [&count](double p) {
    ++count;
    return 1000.0 / p + 0.002 * p;
  };
  minimize_pressure_for_target(f, 5.0);
  EXPECT_LT(count, 45);
}

// A hinted search enters the cold grid (2, 3, 5, 9, 17, 33, ... kPa) at the
// pair that brackets the hint. Wherever the hint falls — below, at or above
// the crossing, on a grid point, past p_max, on the rising side — and
// whether the target is reachable or not, it returns the cold search's
// point bit for bit, and a failed entry check costs at most its two probes.
TEST(MinimizePressureForTarget, HintedWalkReturnsTheColdWalksPoint) {
  struct Oracle {
    PressureProbe f;
    double target;
    double crossing;  ///< smallest p with f(p) = target; 0 when none
  };
  // unimodal(1e5, 1e-4): minimum 6.32 at 31.6 kPa, crossings near 11 kPa
  // (target 10) and 5 kPa (target 20); f(2 kPa) = 50.2 < 60.
  const auto left_root = [](double a, double b, double t) {
    return (t - std::sqrt(t * t - 4.0 * a * b)) / (2.0 * b);
  };
  const std::vector<Oracle> oracles = {
      {unimodal(1e5, 1e-4), 10.0, left_root(1e5, 1e-4, 10.0)},
      {unimodal(1e5, 1e-4), 20.0, left_root(1e5, 1e-4, 20.0)},
      {unimodal(1e5, 1e-4), 60.0, left_root(1e5, 1e-4, 60.0)},
      {unimodal(1e5, 1e-4), 6.0, 0.0},
      {unimodal(1e5, 1e-4), 6.4, left_root(1e5, 1e-4, 6.4)},
      {monotone(1e5, 3.0), 10.0, 1e5 / 7.0},
      {monotone(1e5, 3.0), 3.5, 2e5},
      {monotone(1e5, 3.0), 2.0, 0.0},
  };
  int entered_with_fewer_probes = 0;
  for (const Oracle& o : oracles) {
    const PressureSearchResult cold =
        minimize_pressure_for_target(o.f, o.target);
    std::vector<double> hints = {9000.0, 17000.0, 4e4, 1e9};
    if (o.crossing > 0.0) {
      for (const double scale : {0.3, 0.9, 1.0, 1.1, 3.0}) {
        hints.push_back(scale * o.crossing);
      }
    }
    for (const double hint : hints) {
      const PressureSearchResult hinted =
          minimize_pressure_for_target(o.f, o.target, {}, hint);
      SCOPED_TRACE(testing::Message() << "target " << o.target << " hint "
                                      << hint);
      EXPECT_EQ(hinted.p_sys, cold.p_sys);
      EXPECT_EQ(hinted.f_value, cold.f_value);
      EXPECT_EQ(hinted.feasible, cold.feasible);
      EXPECT_LE(hinted.probes, cold.probes + 2);
      if (o.crossing > 0.0 && hint == o.crossing && o.crossing > 9000.0) {
        EXPECT_LT(hinted.probes, cold.probes);
        ++entered_with_fewer_probes;
      }
    }
  }
  EXPECT_GE(entered_with_fewer_probes, 3);
}

TEST(MinimizePressureMonotone, BisectsToCrossing) {
  // h(p) = 400/p + 300, target 310 -> p = 40.
  const PressureSearchResult result = minimize_pressure_monotone(
      monotone(400.0, 300.0), 310.0, 1.0, 1e6);
  EXPECT_TRUE(result.feasible);
  EXPECT_NEAR(result.p_sys, 40.0, 1.0);
  EXPECT_LE(result.f_value, 310.0);
}

TEST(MinimizePressureMonotone, InfeasibleWhenUpperBoundFails) {
  const PressureSearchResult result = minimize_pressure_monotone(
      monotone(400.0, 300.0), 310.0, 1.0, 20.0);  // h(20) = 320 > 310
  EXPECT_FALSE(result.feasible);
}

TEST(MinimizePressureMonotone, LowerBoundAlreadyFeasible) {
  const PressureSearchResult result = minimize_pressure_monotone(
      monotone(400.0, 300.0), 350.0, 100.0, 1e6);  // h(100) = 304
  EXPECT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.p_sys, 100.0);
}

TEST(GoldenSectionMin, FindsUnimodalMinimum) {
  const double p_star = std::sqrt(1000.0 / 0.002);
  const PressureSearchResult result =
      golden_section_min(unimodal(1000.0, 0.002), 10.0, 1e5);
  EXPECT_NEAR(result.p_sys, p_star, p_star * 0.02);
}

TEST(GoldenSectionMin, MonotoneDecreasingConvergesToUpperBound) {
  const PressureSearchResult result =
      golden_section_min(monotone(500.0, 1.0), 10.0, 5000.0);
  EXPECT_NEAR(result.p_sys, 5000.0, 5000.0 * 0.05);
}

// A loose probe of `exact`: f·(1 ± eps), the sign a hash of the pressure's
// bits, so the same pressure always reads the same error. (The searches'
// pressures have short mantissas; a plain bit of them is nearly constant.)
PressureProbe noisy(PressureProbe exact, double eps) {
  return [exact = std::move(exact), eps](double p) {
    const std::uint64_t mixed = bits::double_key(p) * 0x9E3779B97F4A7C15ULL;
    const double sign = mixed >> 63 == 0 ? 1.0 : -1.0;
    return exact(p) * (1.0 + sign * eps);
  };
}

TEST(GuardProbe, NoisySearchNeverReturnsAnExactlyInfeasiblePoint) {
  // Loose errors up to 0.9 of the band still sit on the right side of every
  // target once the guard re-reads the values near it.
  int feasible_seen = 0;
  for (const double eps : {kProbeGuardBand / 3.0, 0.9 * kProbeGuardBand}) {
    for (const auto& [a, b] :
         {std::pair{1000.0, 0.002}, std::pair{200.0, 0.01},
          std::pair{5e4, 1e-4}, std::pair{500.0, 0.0}}) {
      const PressureProbe exact = unimodal(a, b);
      const double f_min = b > 0.0 ? 2.0 * std::sqrt(a * b) : 0.0;
      // Targets from just below the minimum up through the valley, where
      // probes crowd the target and the noise flips sides without a guard.
      for (double target = f_min * 0.98 + 0.05; target < f_min * 3.0 + 5.0;
           target *= 1.013) {
        const PressureSearchResult r = minimize_pressure_for_target(
            guard_probe(noisy(exact, eps), exact, target), target);
        if (!r.feasible) continue;
        ++feasible_seen;
        EXPECT_LE(exact(r.p_sys), target)
            << "a=" << a << " b=" << b << " target=" << target
            << " eps=" << eps;
        const PressureSearchResult m = minimize_pressure_monotone(
            guard_probe(noisy(monotone(a, 1.0), eps), monotone(a, 1.0),
                        target + 1.0),
            target + 1.0, 1.0, 1e7);
        if (m.feasible) {
          EXPECT_LE(monotone(a, 1.0)(m.p_sys), target + 1.0);
        }
      }
    }
  }
  EXPECT_GT(feasible_seen, 100);
}

TEST(GuardProbe, NoisyGoldenSectionFollowsTheExactOne) {
  // With the loose error under a third of the band, every comparison the
  // band lets through is ordered as the exact values are, so the search
  // takes the exact search's path step for step.
  for (const auto& [a, b] : {std::pair{1000.0, 0.002}, std::pair{200.0, 0.01},
                             std::pair{5e4, 1e-4}}) {
    const PressureProbe exact = unimodal(a, b);
    const PressureSearchResult want = golden_section_min(exact, 1.0, 1e6);
    const PressureSearchResult got = golden_section_min(
        noisy(exact, kProbeGuardBand / 3.0), 1.0, 1e6, {}, exact);
    EXPECT_EQ(got.p_sys, want.p_sys) << "a=" << a << " b=" << b;
    EXPECT_EQ(got.probes, want.probes);
  }
}

TEST(GuardProbe, BandIsRelativeToTheZero) {
  // T_max 350 K against a 352 K limit with T_in = 300 K: 2 K is 4% of the
  // 50 K rise — outside the band — but well inside 1% of 350 K.
  EXPECT_FALSE(within_guard_band(350.0, 352.0, 300.0));
  EXPECT_TRUE(within_guard_band(350.0, 352.0));
  EXPECT_TRUE(within_guard_band(350.0, 350.4, 300.0));
  int tight_reads = 0;
  const PressureProbe probe = guard_probe(
      [](double) { return 350.0; },
      [&tight_reads](double) {
        ++tight_reads;
        return 349.0;
      },
      350.4, 300.0);
  EXPECT_EQ(probe(1.0), 349.0);
  EXPECT_EQ(tight_reads, 1);
}

// Property sweep: Algorithm 3 returns the true crossing for many (a, b,
// target) combinations.
struct CrossingCase {
  double a;
  double b;
  double target;
};

class Algorithm3Sweep : public ::testing::TestWithParam<CrossingCase> {};

TEST_P(Algorithm3Sweep, MatchesClosedForm) {
  const auto [a, b, target] = GetParam();
  const double disc = target * target - 4.0 * a * b;
  const PressureSearchResult result =
      minimize_pressure_for_target(unimodal(a, b), target);
  if (disc >= 0.0) {
    const double expected = (target - std::sqrt(disc)) / (2.0 * b);
    EXPECT_TRUE(result.feasible);
    EXPECT_NEAR(result.p_sys, expected, expected * 0.03);
  } else {
    EXPECT_FALSE(result.feasible);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Algorithm3Sweep,
    ::testing::Values(CrossingCase{1000.0, 0.002, 5.0},
                      CrossingCase{1000.0, 0.002, 3.0},
                      CrossingCase{1000.0, 0.002, 2.5},
                      CrossingCase{50000.0, 1e-4, 20.0},
                      CrossingCase{200.0, 0.01, 10.0},
                      CrossingCase{200.0, 0.01, 2.0},
                      CrossingCase{8.0e5, 3e-3, 120.0}));

}  // namespace
}  // namespace lcn
