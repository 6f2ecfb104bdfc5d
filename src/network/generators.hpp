// Cooling-network generators.
//
// All generators produce networks in a canonical west-to-east frame; the
// eight global flow directions of the paper (Fig. 8(a)) are realized by
// mapping the result through a D4Transform (or equivalently by transforming
// the power map, which is what the optimizer does).
//
// The hierarchical tree-like structure (paper §4.3, Fig. 7) is parameterized
// per tree by the first and second branch columns (b1, b2); three branch
// types (Fig. 8(b)) split the trunk into 2, 3 or 4 leaf channels and are
// fitted to the chip height.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "geom/power_map.hpp"
#include "network/cooling_network.hpp"

namespace lcn {

/// Straight microchannels on every even row, inlets west, outlets east
/// (the paper's baseline style, Fig. 1(b)).
CoolingNetwork make_straight_channels(const Grid2D& grid);

/// One serpentine channel snaking through all even rows (manual style used
/// in the Fig. 9 sample set).
CoolingNetwork make_serpentine(const Grid2D& grid);

/// Comb: a vertical supply trunk on the west column feeding every even row
/// (manual style used in the Fig. 9 sample set).
CoolingNetwork make_comb(const Grid2D& grid);

/// Straight channels on a *subset* of the even rows — a grid-based analogue
/// of the channel-density modulation of prior work (GreenCool [10], channel
/// clustering [12]): regions with more heat get denser channels, cool
/// regions fewer, trading contact area against fluid resistance without
/// changing the straight topology. `row_enabled[k]` controls channel row 2k.
CoolingNetwork make_modulated_straight(const Grid2D& grid,
                                       const std::vector<bool>& row_enabled);

/// Heuristic density profile: enable channel rows in proportion to the
/// power their band dissipates, keeping at least `min_channels` rows.
std::vector<bool> density_profile_from_power(const PowerMap& map,
                                             int channels_to_keep);

// ---------------------------------------------------------------------------
// Tree-like networks

/// Branch types (Fig. 8(b)): how many leaf channels a tree fans out into.
enum class BranchType : std::uint8_t {
  kDouble = 0,  ///< 1 trunk -> 2 leaves   (2 channel rows, band of 4 rows)
  kTriple = 1,  ///< 1 -> 2 -> 3 leaves    (3 channel rows, band of 6 rows)
  kQuad = 2,    ///< 1 -> 2 -> 4 leaves    (4 channel rows, band of 8 rows)
};

/// Channel rows a tree of this type occupies.
int branch_channel_rows(BranchType type);
/// Grid rows from a band's first channel row to its last (inclusive span).
int branch_row_span(BranchType type);

struct TreeSpec {
  BranchType type = BranchType::kQuad;
  int y0 = 0;  ///< first (top) channel row of the band; must be even
  int b1 = 2;  ///< first branch column (even)
  int b2 = 4;  ///< second branch column (even, > b1); ignored by kDouble
};

struct TreeLayout {
  std::vector<TreeSpec> trees;
};

/// Choose branch types that exactly tile `channel_rows` rows (greedy: quads
/// plus one smaller tree for the remainder) — the "assigned manually to fit
/// the chip size" step of §4.4, automated.
std::vector<BranchType> fit_branch_types(int channel_rows);

/// Uniform layout: every tree gets the same (b1, b2) — the SA initial
/// solution of §4.4.
TreeLayout make_uniform_layout(const Grid2D& grid, int b1, int b2);

/// Random legal layout (used by the Fig. 9 sample set and tests).
TreeLayout make_random_layout(const Grid2D& grid, Rng& rng);

/// Power-aware layout (in the canonical west-to-east frame): each tree
/// branches just upstream of where its band's power concentrates, so the
/// densest channel region covers the band's hot columns (§3: factor 3
/// compensating factor 2). `band_power` is the combined per-cell power of
/// all source layers, already mapped into the canonical frame.
TreeLayout make_power_aware_layout(const Grid2D& grid,
                                   const PowerMap& band_power);

/// Legal branch-column bounds for the grid: [min_b, max_b], even values.
int min_branch_col(const Grid2D& grid);
int max_branch_col(const Grid2D& grid);

/// Clamp b1/b2 to legal, even, ordered values for the grid.
void legalize_tree_spec(const Grid2D& grid, TreeSpec& spec);

/// Carve the tree-like network for a layout. Throws on malformed layouts.
CoolingNetwork make_tree_network(const Grid2D& grid, const TreeLayout& layout);

// ---------------------------------------------------------------------------
// Restricted regions (ICCAD case 3)

/// Remove liquid inside `rect` and carve a liquid detour ring around it on
/// the nearest TSV-free (even) rows/columns, reconnecting severed channels —
/// the paper fills the region with solid cells "surrounded by liquid cells".
void apply_forbidden_region(CoolingNetwork& net, const CellRect& rect);

}  // namespace lcn
