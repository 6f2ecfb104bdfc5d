// Per-cell heat dissipation of one source layer, rasterized from a
// rectangular-block floorplan (the granularity the thermal models consume).
#pragma once

#include <cstdint>
#include <vector>

#include "geom/grid.hpp"

namespace lcn {

struct SyntheticPowerOptions;

/// A floorplan unit: `watts` total power spread uniformly over `rect`.
struct PowerBlock {
  CellRect rect;
  double watts = 0.0;
};

class PowerMap {
 public:
  PowerMap() = default;
  /// Uniform map with the given total power.
  PowerMap(const Grid2D& grid, double total_watts);
  /// Rasterize a block list; overlapping blocks sum.
  PowerMap(const Grid2D& grid, const std::vector<PowerBlock>& blocks);

  const Grid2D& grid() const { return grid_; }
  double at(int row, int col) const { return watts_[grid_.index(row, col)]; }
  double& at(int row, int col) { return watts_[grid_.index(row, col)]; }
  const std::vector<double>& cells() const { return watts_; }

  double total() const;
  double max_cell() const;

  /// Rescale so total() == target (no-op target on an all-zero map throws).
  void scale_to(double target_watts);

  /// Map through a D4 symmetry (used when sweeping global flow directions:
  /// the network stays canonical and the world rotates instead).
  PowerMap transformed(const D4Transform& t) const;

 private:
  friend PowerMap synthesize_power_map(const Grid2D&, double, std::uint64_t,
                                       const SyntheticPowerOptions&);

  Grid2D grid_;
  std::vector<double> watts_;
};

struct SyntheticPowerOptions {
  int block_count = 24;          ///< random floorplan units
  double hotspot_fraction = 0.15;  ///< share of power in a few hot blocks
  int hotspot_count = 3;
  double background_fraction = 0.35;  ///< share spread uniformly
  /// 3x3 box-blur passes applied after rasterization. Real floorplans have
  /// no single-cell power spikes (heat spreads in the active layer); the
  /// blur keeps the map non-uniform at block scale but smooth at cell scale,
  /// matching the contest benchmarks' feasible ΔT* constraints.
  int smoothing_passes = 2;
};

/// Deterministic non-uniform power map with the requested total power.
/// Used to synthesize the ICCAD-2015-like benchmark floorplans (DESIGN.md §4).
PowerMap synthesize_power_map(const Grid2D& grid, double total_watts,
                              std::uint64_t seed,
                              const SyntheticPowerOptions& opts = {});

}  // namespace lcn
