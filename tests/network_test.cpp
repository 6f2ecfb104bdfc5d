// Unit tests for cooling-network representation, generators and DRC (S3).
#include <gtest/gtest.h>

#include "network/cooling_network.hpp"
#include "network/design_rules.hpp"
#include "network/generators.hpp"

namespace lcn {
namespace {

Grid2D bench_grid(int n = 21) { return Grid2D(n, n, 100e-6); }

TEST(CoolingNetwork, TsvPatternReservedOnOddOdd) {
  const CoolingNetwork net(bench_grid(5));
  EXPECT_EQ(net.kind(1, 1), CellKind::kTsv);
  EXPECT_EQ(net.kind(1, 3), CellKind::kTsv);
  EXPECT_EQ(net.kind(3, 1), CellKind::kTsv);
  EXPECT_EQ(net.kind(0, 0), CellKind::kSolid);
  EXPECT_EQ(net.kind(1, 2), CellKind::kSolid);
}

TEST(CoolingNetwork, CarvingTsvCellThrows) {
  CoolingNetwork net(bench_grid(5));
  EXPECT_THROW(net.set_liquid(1, 1), ContractError);
  net.set_liquid(0, 0);
  EXPECT_TRUE(net.is_liquid(0, 0));
  net.set_solid(0, 0);
  EXPECT_FALSE(net.is_liquid(0, 0));
}

TEST(CoolingNetwork, PortValidation) {
  CoolingNetwork net(bench_grid(5));
  net.set_liquid(0, 0);
  EXPECT_THROW(net.add_port({0, 0, Side::kEast, PortKind::kInlet}),
               ContractError);  // not on east edge
  EXPECT_THROW(net.add_port({2, 2, Side::kWest, PortKind::kInlet}),
               ContractError);  // interior cell
  net.add_port({0, 0, Side::kWest, PortKind::kInlet});
  EXPECT_THROW(net.add_port({0, 0, Side::kWest, PortKind::kOutlet}),
               ContractError);  // duplicate surface
  net.add_port({0, 0, Side::kNorth, PortKind::kOutlet});  // other surface ok
}

TEST(Generators, StraightChannelsPassDrc) {
  const CoolingNetwork net = make_straight_channels(bench_grid());
  EXPECT_TRUE(check_design_rules(net).ok());
  // 11 channel rows of 21 cells on a 21x21 grid.
  EXPECT_EQ(net.liquid_count(), 11u * 21u);
  EXPECT_EQ(net.ports().size(), 22u);
}

TEST(Generators, AlternatingStraightViolatesManifoldRule) {
  // Straight channels whose flow direction alternates per row: inlets and
  // outlets share both sides, which the one-manifold-per-side rule forbids.
  const Grid2D grid = bench_grid();
  CoolingNetwork net(grid);
  const int last = grid.cols() - 1;
  for (int r = 0; r < grid.rows(); r += 2) {
    for (int c = 0; c <= last; ++c) net.set_liquid(r, c);
    const bool eastward = (r / 2) % 2 == 0;
    net.add_port({r, 0, Side::kWest,
                  eastward ? PortKind::kInlet : PortKind::kOutlet});
    net.add_port({r, last, Side::kEast,
                  eastward ? PortKind::kOutlet : PortKind::kInlet});
  }
  const DrcResult result = check_design_rules(net);
  EXPECT_FALSE(result.ok());
  bool manifold_violation = false;
  for (const auto& v : result.violations) {
    if (v.find("manifold") != std::string::npos) manifold_violation = true;
  }
  EXPECT_TRUE(manifold_violation);
}

TEST(Generators, SerpentinePassesDrcAndIsOneComponent) {
  for (int n : {5, 7, 21, 31}) {
    const CoolingNetwork net = make_serpentine(bench_grid(n));
    EXPECT_TRUE(check_design_rules(net).ok()) << "n=" << n;
    EXPECT_EQ(net.ports().size(), 2u) << "n=" << n;
  }
}

TEST(Generators, CombPassesDrc) {
  const CoolingNetwork net = make_comb(bench_grid());
  EXPECT_TRUE(check_design_rules(net).ok());
}

TEST(Generators, FitBranchTypesTilesExactly) {
  for (int rows = 2; rows <= 60; ++rows) {
    const auto types = fit_branch_types(rows);
    int sum = 0;
    for (BranchType t : types) sum += branch_channel_rows(t);
    EXPECT_EQ(sum, rows) << "rows=" << rows;
  }
}

TEST(Generators, UniformTreeLayoutPassesDrc) {
  const Grid2D grid = bench_grid();
  const TreeLayout layout = make_uniform_layout(grid, 6, 12);
  const CoolingNetwork net = make_tree_network(grid, layout);
  EXPECT_TRUE(check_design_rules(net).ok());
  // Each tree has exactly one west inlet.
  int inlets = 0;
  for (const Port& p : net.ports()) {
    if (p.kind == PortKind::kInlet) {
      ++inlets;
      EXPECT_EQ(p.side, Side::kWest);
    } else {
      EXPECT_EQ(p.side, Side::kEast);
    }
  }
  EXPECT_EQ(inlets, static_cast<int>(layout.trees.size()));
}

TEST(Generators, TreeLayoutOnPaperSizedGrid) {
  const Grid2D grid(101, 101, 100e-6);
  const TreeLayout layout = make_uniform_layout(grid, 30, 64);
  // 51 channel rows => 12 quad trees + 1 triple.
  EXPECT_EQ(layout.trees.size(), 13u);
  const CoolingNetwork net = make_tree_network(grid, layout);
  EXPECT_TRUE(check_design_rules(net).ok());
}

TEST(Generators, RandomLayoutsAlwaysLegal) {
  const Grid2D grid = bench_grid(31);
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const TreeLayout layout = make_random_layout(grid, rng);
    const CoolingNetwork net = make_tree_network(grid, layout);
    EXPECT_TRUE(check_design_rules(net).ok()) << "trial " << trial;
  }
}

TEST(Generators, LegalizeTreeSpecClampsAndOrders) {
  const Grid2D grid = bench_grid(31);
  TreeSpec spec{BranchType::kQuad, 0, 999, -4};
  legalize_tree_spec(grid, spec);
  EXPECT_EQ(spec.b1 % 2, 0);
  EXPECT_EQ(spec.b2 % 2, 0);
  EXPECT_GE(spec.b1, min_branch_col(grid));
  EXPECT_LT(spec.b1, spec.b2);
  EXPECT_LE(spec.b2, max_branch_col(grid));
}

TEST(ForbiddenRegion, StraightChannelsDetourAroundIt) {
  const Grid2D grid = bench_grid(31);
  CoolingNetwork net = make_straight_channels(grid);
  const CellRect rect{12, 14, 18, 20};
  apply_forbidden_region(net, rect);
  DesignRules rules;
  rules.forbidden = rect;
  EXPECT_TRUE(check_design_rules(net, rules).ok());
  // No liquid inside the region.
  for (int r = rect.row0; r <= rect.row1; ++r) {
    for (int c = rect.col0; c <= rect.col1; ++c) {
      EXPECT_FALSE(net.is_liquid(r, c));
    }
  }
}

TEST(ForbiddenRegion, TreeNetworkDetourPassesDrc) {
  const Grid2D grid = bench_grid(31);
  CoolingNetwork net = make_tree_network(grid, make_uniform_layout(grid, 8, 18));
  const CellRect rect{10, 10, 16, 16};
  apply_forbidden_region(net, rect);
  DesignRules rules;
  rules.forbidden = rect;
  EXPECT_TRUE(check_design_rules(net, rules).ok());
}

TEST(ForbiddenRegion, RejectsRegionTouchingBoundary) {
  const Grid2D grid = bench_grid(31);
  CoolingNetwork net = make_straight_channels(grid);
  EXPECT_THROW(apply_forbidden_region(net, CellRect{0, 5, 4, 9}),
               ContractError);
}

TEST(Drc, DetectsStagnantComponent) {
  const Grid2D grid = bench_grid(9);
  CoolingNetwork net(grid);
  // A channel with ports ...
  for (int c = 0; c < 9; ++c) net.set_liquid(0, c);
  net.add_port({0, 0, Side::kWest, PortKind::kInlet});
  net.add_port({0, 8, Side::kEast, PortKind::kOutlet});
  // ... plus an isolated liquid pocket.
  net.set_liquid(4, 4);
  const DrcResult result = check_design_rules(net);
  EXPECT_FALSE(result.ok());
  EXPECT_THROW(require_clean(net), ContractError);
}

TEST(Drc, DetectsMissingInlet) {
  const Grid2D grid = bench_grid(9);
  CoolingNetwork net(grid);
  for (int c = 0; c < 9; ++c) net.set_liquid(0, c);
  net.add_port({0, 8, Side::kEast, PortKind::kOutlet});
  const DrcResult result = check_design_rules(net);
  EXPECT_FALSE(result.ok());
}

TEST(Serialization, TextRoundTrip) {
  const Grid2D grid = bench_grid(21);
  const CoolingNetwork net =
      make_tree_network(grid, make_uniform_layout(grid, 6, 12));
  const CoolingNetwork back = CoolingNetwork::from_text(net.to_text());
  EXPECT_EQ(net, back);
}

TEST(Transform, NetworkD4ImagesStayLegal) {
  const Grid2D grid = bench_grid(21);
  const CoolingNetwork net =
      make_tree_network(grid, make_uniform_layout(grid, 6, 12));
  for (int code = 0; code < D4Transform::kCount; ++code) {
    const CoolingNetwork image = net.transformed(D4Transform(code));
    EXPECT_EQ(image.liquid_count(), net.liquid_count()) << "code " << code;
    // TSV keep-out is D4-invariant on an odd-sized grid, so images stay
    // fully legal.
    EXPECT_TRUE(check_design_rules(image).ok()) << "code " << code;
  }
}

class AllGenerators : public ::testing::TestWithParam<int> {};

TEST_P(AllGenerators, EveryStyleLegalAcrossGridSizes) {
  const int n = GetParam();
  const Grid2D grid = bench_grid(n);
  EXPECT_TRUE(check_design_rules(make_straight_channels(grid)).ok());
  EXPECT_TRUE(check_design_rules(make_serpentine(grid)).ok());
  EXPECT_TRUE(check_design_rules(make_comb(grid)).ok());
  if (n >= 9) {
    const TreeLayout layout = make_uniform_layout(grid, 4, 8);
    EXPECT_TRUE(check_design_rules(make_tree_network(grid, layout)).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(GridSizes, AllGenerators,
                         ::testing::Values(5, 9, 13, 21, 31, 51, 101));

}  // namespace
}  // namespace lcn
