// Tests for the synthetic ICCAD-2015 benchmark suite (S11): every Table 2
// statistic must be matched exactly, and the cases must be well-posed for
// both problem formulations.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/bits.hpp"
#include "geom/benchmarks.hpp"
#include "network/design_rules.hpp"
#include "network/generators.hpp"

namespace lcn {
namespace {

TEST(IccadCases, Table2StatisticsMatchThePaper) {
  struct Row {
    int dies;
    double h_c;
    double power;
    double dt_star;
    double tmax_star;
  };
  const Row expected[5] = {
      {2, 200e-6, 42.038, 15.0, 358.15}, {2, 400e-6, 37.038, 10.0, 358.15},
      {2, 400e-6, 43.038, 15.0, 358.15}, {3, 200e-6, 43.438, 10.0, 358.15},
      {2, 400e-6, 148.174, 10.0, 338.15}};
  for (int id = 1; id <= 5; ++id) {
    const BenchmarkCase bench = make_iccad_case(id);
    const Row& row = expected[id - 1];
    EXPECT_EQ(bench.dies(), row.dies) << "case " << id;
    EXPECT_NEAR(bench.channel_height(), row.h_c, 1e-12) << "case " << id;
    EXPECT_NEAR(bench.problem.total_power(), row.power, 1e-6)
        << "case " << id;
    EXPECT_DOUBLE_EQ(bench.constraints.delta_t_max, row.dt_star)
        << "case " << id;
    EXPECT_DOUBLE_EQ(bench.constraints.t_max, row.tmax_star) << "case " << id;
    // 10.1 mm die, 101x101 basic cells of 100 µm.
    EXPECT_EQ(bench.problem.grid.rows(), 101);
    EXPECT_EQ(bench.problem.grid.cols(), 101);
    EXPECT_NEAR(bench.problem.grid.pitch(), 100e-6, 1e-15);
  }
}

TEST(IccadCases, CaseSpecificConstraints) {
  EXPECT_TRUE(make_iccad_case(1).forbidden.empty());
  EXPECT_FALSE(make_iccad_case(3).forbidden.empty());
  EXPECT_FALSE(make_iccad_case(1).matched_layers);
  EXPECT_TRUE(make_iccad_case(4).matched_layers);
  // Case 4 has two channel layers to match across.
  EXPECT_EQ(make_iccad_case(4).problem.stack.channel_count(), 2);
}

TEST(IccadCases, Deterministic) {
  const BenchmarkCase a = make_iccad_case(2);
  const BenchmarkCase b = make_iccad_case(2);
  EXPECT_EQ(a.problem.source_power[0].cells(),
            b.problem.source_power[0].cells());
  EXPECT_EQ(a.problem.source_power[1].cells(),
            b.problem.source_power[1].cells());
}

TEST(IccadCases, PowerMapsAreNonUniformAndSmooth) {
  for (int id = 1; id <= 5; ++id) {
    const BenchmarkCase bench = make_iccad_case(id);
    for (const PowerMap& map : bench.problem.source_power) {
      const double mean = map.total() / map.grid().cell_count();
      EXPECT_GT(map.max_cell(), 1.5 * mean) << "case " << id;
      // Smoothness: no cell-to-cell jump exceeding the map's peak.
      for (int r = 0; r < map.grid().rows(); ++r) {
        for (int c = 0; c + 1 < map.grid().cols(); ++c) {
          ASSERT_LT(std::abs(map.at(r, c + 1) - map.at(r, c)),
                    0.6 * map.max_cell())
              << "case " << id;
        }
      }
    }
  }
}

TEST(IccadCases, PowerMapsArePinnedBitForBit) {
  // FNV-1a over the bytes of every cell of every source layer of cases 1-5,
  // in order. The value was taken from the per-cell blur the clamped-range
  // blur replaced; any change to the synthesis or its rounding moves it.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const BenchmarkCase& bench : all_iccad_cases()) {
    for (const PowerMap& map : bench.problem.source_power) {
      for (const double w : map.cells()) {
        const std::uint64_t bits = bits::double_key(w);
        for (int byte = 0; byte < 8; ++byte) {
          hash ^= (bits >> (8 * byte)) & 0xffu;
          hash *= 0x100000001b3ULL;
        }
      }
    }
  }
  EXPECT_EQ(hash, 0x31480c0623dab53fULL);
}

TEST(IccadCases, RejectsInvalidId) {
  EXPECT_THROW(make_iccad_case(0), ContractError);
  EXPECT_THROW(make_iccad_case(6), ContractError);
}

TEST(IccadCases, Problem2BudgetIsTenthOfAPercent) {
  const BenchmarkCase bench = make_iccad_case(5);
  EXPECT_NEAR(problem2_pump_budget(bench), 0.148174, 1e-6);
}

TEST(IccadCases, Case3StraightBaselineDetoursCleanly) {
  const BenchmarkCase bench = make_iccad_case(3);
  CoolingNetwork net = make_straight_channels(bench.problem.grid);
  apply_forbidden_region(net, bench.forbidden);
  DesignRules rules;
  rules.forbidden = bench.forbidden;
  EXPECT_TRUE(check_design_rules(net, rules).ok());
}

TEST(IccadCases, AllCasesValidateAndTreesFit) {
  for (const BenchmarkCase& bench : all_iccad_cases()) {
    EXPECT_NO_THROW(bench.problem.validate());
    CoolingNetwork net = make_tree_network(
        bench.problem.grid, make_uniform_layout(bench.problem.grid, 30, 64));
    if (!bench.forbidden.empty()) {
      apply_forbidden_region(net, bench.forbidden);
    }
    DesignRules rules;
    rules.forbidden = bench.forbidden;
    EXPECT_TRUE(check_design_rules(net, rules).ok())
        << "case " << bench.id;
  }
}

}  // namespace
}  // namespace lcn
