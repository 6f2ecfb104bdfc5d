#include "network/generators.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace lcn {

namespace {

void carve_h(CoolingNetwork& net, int row, int c0, int c1) {
  LCN_ASSERT(c0 <= c1, "carve_h: empty span");
  for (int c = c0; c <= c1; ++c) net.set_liquid(row, c);
}

void carve_v(CoolingNetwork& net, int col, int r0, int r1) {
  LCN_ASSERT(r0 <= r1, "carve_v: empty span");
  for (int r = r0; r <= r1; ++r) net.set_liquid(r, col);
}

}  // namespace

CoolingNetwork make_straight_channels(const Grid2D& grid) {
  CoolingNetwork net(grid);
  for (int r = 0; r < grid.rows(); r += 2) {
    carve_h(net, r, 0, grid.cols() - 1);
    net.add_port({r, 0, Side::kWest, PortKind::kInlet});
    net.add_port({r, grid.cols() - 1, Side::kEast, PortKind::kOutlet});
  }
  return net;
}

CoolingNetwork make_serpentine(const Grid2D& grid) {
  LCN_REQUIRE(grid.rows() >= 3, "serpentine needs at least three rows");
  CoolingNetwork net(grid);
  const int last_col = grid.cols() - 1;
  bool eastward = true;
  int prev_row = -1;
  for (int r = 0; r < grid.rows(); r += 2) {
    carve_h(net, r, 0, last_col);
    if (prev_row >= 0) {
      // Connect to the previous row at the end the previous pass finished on.
      const int join_col = eastward ? 0 : last_col;
      carve_v(net, join_col, prev_row, r);
    }
    prev_row = r;
    eastward = !eastward;
  }
  net.add_port({0, 0, Side::kWest, PortKind::kInlet});
  // The final row flows east when the row count is odd, west otherwise.
  const int final_row = prev_row;
  if (!eastward) {
    // last pass went east
    net.add_port({final_row, last_col, Side::kEast, PortKind::kOutlet});
  } else {
    net.add_port({final_row, 0, Side::kWest, PortKind::kOutlet});
  }
  return net;
}

CoolingNetwork make_comb(const Grid2D& grid) {
  CoolingNetwork net(grid);
  carve_v(net, 0, 0, grid.rows() - 1);
  for (int r = 0; r < grid.rows(); r += 2) {
    carve_h(net, r, 0, grid.cols() - 1);
    net.add_port({r, grid.cols() - 1, Side::kEast, PortKind::kOutlet});
  }
  int inlet_row = (grid.rows() / 2);
  if (inlet_row % 2 == 1) --inlet_row;
  net.add_port({inlet_row, 0, Side::kWest, PortKind::kInlet});
  return net;
}

CoolingNetwork make_modulated_straight(const Grid2D& grid,
                                       const std::vector<bool>& row_enabled) {
  const int channel_rows = (grid.rows() + 1) / 2;
  LCN_REQUIRE(static_cast<int>(row_enabled.size()) == channel_rows,
              "one flag per even row required");
  LCN_REQUIRE(std::count(row_enabled.begin(), row_enabled.end(), true) > 0,
              "at least one channel row must be enabled");
  CoolingNetwork net(grid);
  for (int k = 0; k < channel_rows; ++k) {
    if (!row_enabled[static_cast<std::size_t>(k)]) continue;
    const int r = 2 * k;
    carve_h(net, r, 0, grid.cols() - 1);
    net.add_port({r, 0, Side::kWest, PortKind::kInlet});
    net.add_port({r, grid.cols() - 1, Side::kEast, PortKind::kOutlet});
  }
  return net;
}

std::vector<bool> density_profile_from_power(const PowerMap& map,
                                             int channels_to_keep) {
  const Grid2D& grid = map.grid();
  const int channel_rows = (grid.rows() + 1) / 2;
  LCN_REQUIRE(channels_to_keep >= 1 && channels_to_keep <= channel_rows,
              "channels_to_keep out of range");

  // Power of the band each channel row cools (its row ± 1).
  std::vector<std::pair<double, int>> band_power;
  for (int k = 0; k < channel_rows; ++k) {
    const int r = 2 * k;
    double power = 0.0;
    for (int rr = std::max(0, r - 1);
         rr <= std::min(grid.rows() - 1, r + 1); ++rr) {
      for (int c = 0; c < grid.cols(); ++c) power += map.at(rr, c);
    }
    band_power.emplace_back(power, k);
  }
  std::sort(band_power.begin(), band_power.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<bool> enabled(static_cast<std::size_t>(channel_rows), false);
  for (int i = 0; i < channels_to_keep; ++i) {
    enabled[static_cast<std::size_t>(band_power[static_cast<std::size_t>(i)]
                                         .second)] = true;
  }
  return enabled;
}

int branch_channel_rows(BranchType type) {
  switch (type) {
    case BranchType::kDouble: return 2;
    case BranchType::kTriple: return 3;
    case BranchType::kQuad: return 4;
  }
  return 0;
}

int branch_row_span(BranchType type) {
  return 2 * (branch_channel_rows(type) - 1);
}

std::vector<BranchType> fit_branch_types(int channel_rows) {
  LCN_REQUIRE(channel_rows >= 2, "need at least two channel rows for a tree");
  std::vector<BranchType> types;
  int remaining = channel_rows;
  while (remaining >= 4) {
    // Keep enough rows for a legal finisher: remainders 1 cannot be tiled by
    // a single tree, so split them as triple+double (3+2).
    if (remaining == 5) break;
    types.push_back(BranchType::kQuad);
    remaining -= 4;
  }
  switch (remaining) {
    case 0: break;
    case 2: types.push_back(BranchType::kDouble); break;
    case 3: types.push_back(BranchType::kTriple); break;
    case 5:
      types.push_back(BranchType::kTriple);
      types.push_back(BranchType::kDouble);
      break;
    default:
      LCN_CHECK(false, "unreachable remainder in fit_branch_types");
  }
  return types;
}

int min_branch_col(const Grid2D& grid) {
  (void)grid;
  return 2;
}

int max_branch_col(const Grid2D& grid) {
  int col = grid.cols() - 3;
  if (col % 2 == 1) --col;
  return col;
}

void legalize_tree_spec(const Grid2D& grid, TreeSpec& spec) {
  const int lo = min_branch_col(grid);
  const int hi = max_branch_col(grid);
  LCN_REQUIRE(hi - lo >= 2, "grid too narrow for a two-branch tree");
  auto to_even = [](int v) { return v - (v % 2 + 2) % 2; };
  spec.b1 = std::clamp(to_even(spec.b1), lo, hi - 2);
  spec.b2 = std::clamp(to_even(spec.b2), spec.b1 + 2, hi);
}

TreeLayout make_uniform_layout(const Grid2D& grid, int b1, int b2) {
  const int channel_rows = (grid.rows() + 1) / 2;
  const std::vector<BranchType> types = fit_branch_types(channel_rows);
  TreeLayout layout;
  int y0 = 0;
  for (BranchType type : types) {
    TreeSpec spec{type, y0, b1, b2};
    legalize_tree_spec(grid, spec);
    layout.trees.push_back(spec);
    y0 += branch_row_span(type) + 2;  // skip the separating odd row
  }
  LCN_CHECK(y0 - 2 == 2 * (channel_rows - 1),
            "tree bands must exactly tile the channel rows");
  return layout;
}

TreeLayout make_random_layout(const Grid2D& grid, Rng& rng) {
  const int lo = min_branch_col(grid);
  const int hi = max_branch_col(grid);
  TreeLayout layout = make_uniform_layout(grid, lo, hi);
  for (TreeSpec& spec : layout.trees) {
    spec.b1 = static_cast<int>(rng.next_int(lo / 2, hi / 2)) * 2;
    spec.b2 = static_cast<int>(rng.next_int(lo / 2, hi / 2)) * 2;
    legalize_tree_spec(grid, spec);
  }
  return layout;
}

TreeLayout make_power_aware_layout(const Grid2D& grid,
                                   const PowerMap& band_power) {
  LCN_REQUIRE(band_power.grid() == grid, "power map grid mismatch");
  TreeLayout layout = make_uniform_layout(grid, min_branch_col(grid),
                                          max_branch_col(grid));
  for (TreeSpec& spec : layout.trees) {
    const int row_end =
        std::min(grid.rows() - 1, spec.y0 + branch_row_span(spec.type));
    // Column profile of the band's power.
    std::vector<double> column_power(static_cast<std::size_t>(grid.cols()),
                                     0.0);
    double total = 0.0;
    for (int r = spec.y0; r <= row_end; ++r) {
      for (int c = 0; c < grid.cols(); ++c) {
        column_power[static_cast<std::size_t>(c)] += band_power.at(r, c);
        total += band_power.at(r, c);
      }
    }
    // Second branch just upstream of the first power quartile, so the
    // full leaf fan covers the hot region; first branch halfway up the
    // trunk.
    int b2 = min_branch_col(grid) + 2;
    if (total > 0.0) {
      double cumulative = 0.0;
      for (int c = 0; c < grid.cols(); ++c) {
        cumulative += column_power[static_cast<std::size_t>(c)];
        if (cumulative >= 0.25 * total) {
          b2 = c - 2;
          break;
        }
      }
    }
    spec.b2 = b2;
    spec.b1 = b2 / 2;
    legalize_tree_spec(grid, spec);
  }
  return layout;
}

namespace {

void carve_tree(CoolingNetwork& net, const TreeSpec& spec) {
  const Grid2D& grid = net.grid();
  const int last_col = grid.cols() - 1;
  LCN_REQUIRE(spec.y0 % 2 == 0, "tree band must start on an even row");
  LCN_REQUIRE(spec.b1 % 2 == 0 && spec.b2 % 2 == 0,
              "branch columns must be even (TSV-free)");
  LCN_REQUIRE(spec.b1 >= 2 && spec.b2 > spec.b1 && spec.b2 <= last_col - 2,
              "branch columns out of range");
  LCN_REQUIRE(spec.y0 + branch_row_span(spec.type) < grid.rows(),
              "tree band exceeds the grid");

  const int ra = spec.y0;
  switch (spec.type) {
    case BranchType::kDouble: {
      const int rb = ra + 2;
      carve_h(net, ra, 0, spec.b1);             // trunk
      carve_v(net, spec.b1, ra, rb);            // split
      carve_h(net, ra, spec.b1, last_col);      // leaf 1
      carve_h(net, rb, spec.b1, last_col);      // leaf 2
      net.add_port({ra, 0, Side::kWest, PortKind::kInlet});
      net.add_port({ra, last_col, Side::kEast, PortKind::kOutlet});
      net.add_port({rb, last_col, Side::kEast, PortKind::kOutlet});
      break;
    }
    case BranchType::kTriple: {
      const int rb = ra + 2;
      const int rc = ra + 4;
      carve_h(net, rb, 0, spec.b1);             // trunk
      carve_v(net, spec.b1, ra, rb);            // first split: rb -> ra
      carve_h(net, ra, spec.b1, spec.b2);       // stage B
      carve_h(net, rb, spec.b1, spec.b2);
      carve_v(net, spec.b2, rb, rc);            // second split: rb -> rc
      carve_h(net, ra, spec.b2, last_col);      // leaves
      carve_h(net, rb, spec.b2, last_col);
      carve_h(net, rc, spec.b2, last_col);
      net.add_port({rb, 0, Side::kWest, PortKind::kInlet});
      net.add_port({ra, last_col, Side::kEast, PortKind::kOutlet});
      net.add_port({rb, last_col, Side::kEast, PortKind::kOutlet});
      net.add_port({rc, last_col, Side::kEast, PortKind::kOutlet});
      break;
    }
    case BranchType::kQuad: {
      const int rb = ra + 2;
      const int rc = ra + 4;
      const int rd = ra + 6;
      carve_h(net, rb, 0, spec.b1);             // trunk
      carve_v(net, spec.b1, rb, rc);            // first split: rb -> rc
      carve_h(net, rb, spec.b1, spec.b2);       // stage B
      carve_h(net, rc, spec.b1, spec.b2);
      carve_v(net, spec.b2, ra, rb);            // second splits
      carve_v(net, spec.b2, rc, rd);
      carve_h(net, ra, spec.b2, last_col);      // leaves
      carve_h(net, rb, spec.b2, last_col);
      carve_h(net, rc, spec.b2, last_col);
      carve_h(net, rd, spec.b2, last_col);
      net.add_port({rb, 0, Side::kWest, PortKind::kInlet});
      net.add_port({ra, last_col, Side::kEast, PortKind::kOutlet});
      net.add_port({rb, last_col, Side::kEast, PortKind::kOutlet});
      net.add_port({rc, last_col, Side::kEast, PortKind::kOutlet});
      net.add_port({rd, last_col, Side::kEast, PortKind::kOutlet});
      break;
    }
  }
}

}  // namespace

CoolingNetwork make_tree_network(const Grid2D& grid,
                                 const TreeLayout& layout) {
  LCN_REQUIRE(!layout.trees.empty(), "tree layout has no trees");
  CoolingNetwork net(grid);
  for (const TreeSpec& spec : layout.trees) carve_tree(net, spec);
  return net;
}

void apply_forbidden_region(CoolingNetwork& net, const CellRect& rect) {
  if (rect.empty()) return;
  const Grid2D& grid = net.grid();
  LCN_REQUIRE(rect.row0 >= 2 && rect.col0 >= 2 &&
                  rect.row1 <= grid.rows() - 3 && rect.col1 <= grid.cols() - 3,
              "restricted region must be interior (2-cell margin)");

  // Detour ring on the nearest TSV-free (even) rows/columns outside the rect.
  auto even_below = [](int v) { return v % 2 == 0 ? v : v - 1; };
  auto even_above = [](int v) { return v % 2 == 0 ? v : v + 1; };
  const int rr0 = even_below(rect.row0 - 1);
  const int rr1 = even_above(rect.row1 + 1);
  const int rc0 = even_below(rect.col0 - 1);
  const int rc1 = even_above(rect.col1 + 1);
  LCN_CHECK(rr0 >= 0 && rc0 >= 0 && rr1 < grid.rows() && rc1 < grid.cols(),
            "detour ring exceeds the grid");

  carve_h(net, rr0, rc0, rc1);
  carve_h(net, rr1, rc0, rc1);
  carve_v(net, rc0, rr0, rr1);
  carve_v(net, rc1, rr0, rr1);

  // Fill the restricted region (and the odd gap rows/cols between region and
  // ring stay as carved by the original generator — they reconnect severed
  // channels to the ring).
  for (int r = rect.row0; r <= rect.row1; ++r) {
    for (int c = rect.col0; c <= rect.col1; ++c) {
      net.set_solid(r, c);
    }
  }
}

}  // namespace lcn
