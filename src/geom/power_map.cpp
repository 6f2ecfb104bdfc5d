#include "geom/power_map.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace lcn {

PowerMap::PowerMap(const Grid2D& grid, double total_watts)
    : grid_(grid), watts_(grid.cell_count(), 0.0) {
  LCN_REQUIRE(total_watts >= 0.0, "total power must be non-negative");
  const double per_cell = total_watts / static_cast<double>(grid.cell_count());
  std::fill(watts_.begin(), watts_.end(), per_cell);
}

PowerMap::PowerMap(const Grid2D& grid, const std::vector<PowerBlock>& blocks)
    : grid_(grid), watts_(grid.cell_count(), 0.0) {
  for (const auto& block : blocks) {
    LCN_REQUIRE(!block.rect.empty(), "power block must be non-empty");
    LCN_REQUIRE(grid.in_bounds(block.rect.row0, block.rect.col0) &&
                    grid.in_bounds(block.rect.row1, block.rect.col1),
                "power block out of grid bounds");
    LCN_REQUIRE(block.watts >= 0.0, "block power must be non-negative");
    const double per_cell =
        block.watts /
        (static_cast<double>(block.rect.rows()) * block.rect.cols());
    for (int r = block.rect.row0; r <= block.rect.row1; ++r) {
      for (int c = block.rect.col0; c <= block.rect.col1; ++c) {
        watts_[grid_.index(r, c)] += per_cell;
      }
    }
  }
}

double PowerMap::total() const {
  double sum = 0.0;
  for (double w : watts_) sum += w;
  return sum;
}

double PowerMap::max_cell() const {
  double m = 0.0;
  for (double w : watts_) m = std::max(m, w);
  return m;
}

void PowerMap::scale_to(double target_watts) {
  LCN_REQUIRE(target_watts >= 0.0, "target power must be non-negative");
  const double current = total();
  LCN_REQUIRE(current > 0.0 || target_watts == 0.0,
              "cannot scale an all-zero power map to a positive total");
  if (current == 0.0) return;
  const double factor = target_watts / current;
  for (double& w : watts_) w *= factor;
}

PowerMap PowerMap::transformed(const D4Transform& t) const {
  PowerMap out;
  out.grid_ = t.transform_grid(grid_);
  out.watts_.assign(out.grid_.cell_count(), 0.0);
  for (int r = 0; r < grid_.rows(); ++r) {
    for (int c = 0; c < grid_.cols(); ++c) {
      const CellCoord image = t.apply(grid_, CellCoord{r, c});
      out.watts_[out.grid_.index(image.row, image.col)] =
          watts_[grid_.index(r, c)];
    }
  }
  return out;
}

PowerMap synthesize_power_map(const Grid2D& grid, double total_watts,
                              std::uint64_t seed,
                              const SyntheticPowerOptions& opts) {
  LCN_REQUIRE(opts.block_count >= 1, "need at least one block");
  LCN_REQUIRE(opts.hotspot_count >= 0 && opts.hotspot_count <= opts.block_count,
              "hotspot count out of range");
  LCN_REQUIRE(opts.hotspot_fraction >= 0.0 && opts.background_fraction >= 0.0 &&
                  opts.hotspot_fraction + opts.background_fraction <= 1.0,
              "power fractions must partition [0, 1]");
  Rng rng(seed);

  std::vector<PowerBlock> blocks;
  auto random_rect = [&](int min_span, int max_span) {
    const int h = static_cast<int>(rng.next_int(min_span, max_span));
    const int w = static_cast<int>(rng.next_int(min_span, max_span));
    const int r0 = static_cast<int>(rng.next_int(0, grid.rows() - h));
    const int c0 = static_cast<int>(rng.next_int(0, grid.cols() - w));
    return CellRect{r0, c0, r0 + h - 1, c0 + w - 1};
  };

  // Hotspots: compact, higher-density blocks.
  const double hotspot_watts = total_watts * opts.hotspot_fraction;
  const int hot_span_min = std::max(3, grid.rows() / 10);
  const int hot_span_max = std::max(hot_span_min + 1, grid.rows() / 5);
  for (int i = 0; i < opts.hotspot_count; ++i) {
    blocks.push_back({random_rect(hot_span_min, hot_span_max),
                      hotspot_watts / std::max(1, opts.hotspot_count)});
  }

  // Regular floorplan units: medium blocks with random power weights.
  const double unit_watts =
      total_watts * (1.0 - opts.hotspot_fraction - opts.background_fraction);
  const int unit_count = opts.block_count - opts.hotspot_count;
  std::vector<double> weights;
  double weight_sum = 0.0;
  for (int i = 0; i < unit_count; ++i) {
    weights.push_back(0.2 + rng.next_double());
    weight_sum += weights.back();
  }
  const int unit_span_max = std::max(4, grid.rows() / 3);
  for (int i = 0; i < unit_count; ++i) {
    blocks.push_back({random_rect(4, unit_span_max),
                      unit_watts * weights[static_cast<std::size_t>(i)] /
                          weight_sum});
  }

  // Uniform background leakage.
  blocks.push_back({CellRect{0, 0, grid.rows() - 1, grid.cols() - 1},
                    total_watts * opts.background_fraction});

  PowerMap map(grid, blocks);
  // 3x3 box blur over the in-bounds neighbours. Every cell sums its window in
  // (dr, dc) row-major order from 0.0, so the clamped edge windows and the
  // unrolled interior ones round exactly alike.
  const int rows = grid.rows();
  const int cols = grid.cols();
  std::vector<double> blurred(map.watts_.size());
  for (int pass = 0; pass < opts.smoothing_passes; ++pass) {
    const double* src = map.watts_.data();
    const auto at = [&](int r, int c) {
      return src[static_cast<std::size_t>(r) * cols + c];
    };
    const auto clamped = [&](int r, int c) {
      const int r0 = std::max(r - 1, 0);
      const int r1 = std::min(r + 1, rows - 1);
      const int c0 = std::max(c - 1, 0);
      const int c1 = std::min(c + 1, cols - 1);
      double sum = 0.0;
      for (int rr = r0; rr <= r1; ++rr) {
        for (int cc = c0; cc <= c1; ++cc) sum += at(rr, cc);
      }
      return sum / ((r1 - r0 + 1) * (c1 - c0 + 1));
    };
    for (int r = 0; r < rows; ++r) {
      double* out = blurred.data() + static_cast<std::size_t>(r) * cols;
      if (r == 0 || r == rows - 1) {
        for (int c = 0; c < cols; ++c) out[c] = clamped(r, c);
        continue;
      }
      out[0] = clamped(r, 0);
      const double* up = src + static_cast<std::size_t>(r - 1) * cols;
      const double* mid = up + cols;
      const double* down = mid + cols;
      for (int c = 1; c + 1 < cols; ++c) {
        double sum = 0.0;
        sum += up[c - 1];
        sum += up[c];
        sum += up[c + 1];
        sum += mid[c - 1];
        sum += mid[c];
        sum += mid[c + 1];
        sum += down[c - 1];
        sum += down[c];
        sum += down[c + 1];
        out[c] = sum / 9;
      }
      if (cols > 1) out[cols - 1] = clamped(r, cols - 1);
    }
    map.watts_.swap(blurred);
  }
  map.scale_to(total_watts);
  return map;
}

}  // namespace lcn
