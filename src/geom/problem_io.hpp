// Text formats for the optimizer inputs (paper Algorithm 1: "stack
// description and floorplan files").
//
// Stack description:
//   grid <rows> <cols> <pitch_m>          (at most 2^22 cells)
//   inlet_temperature <K>
//   ambient <conductance W/(m²K)> <temperature K>
//   layer <solid|source|channel> <name> <thickness_m> <k W/(mK)> <c J/(m³K)>
//   constraint <delta_t|t_max|w_pump> <value>
//   # comments and blank lines are ignored
//
// Floorplan (one file per source layer, HotSpot-unit style, cell units):
//   <unit-name> <row0> <col0> <rows> <cols> <watts>
//
// The loaders validate aggressively and throw lcn::ContractError /
// lcn::RuntimeError with the offending line.
#pragma once

#include <string>
#include <vector>

#include "thermal/problem.hpp"

namespace lcn {

struct ProblemDescription {
  CoolingProblem problem;
  DesignConstraints constraints;
};

/// Parse a stack description (see format above). Floorplans are attached
/// separately — power maps start all-zero, one per source layer.
ProblemDescription parse_stack_description(const std::string& text);

/// Parse one floorplan file into a power map on `grid`.
PowerMap parse_floorplan(const std::string& text, const Grid2D& grid);

/// Load a full problem: stack file + one floorplan file per source layer.
ProblemDescription load_problem(const std::string& stack_path,
                                const std::vector<std::string>& floorplan_paths);

/// Serializers (round-trip with the parsers).
std::string format_stack_description(const ProblemDescription& desc);
std::string format_floorplan(const PowerMap& map, const std::string& prefix);

/// Whole-file helpers.
std::string read_text_file(const std::string& path);
void write_text_file(const std::string& path, const std::string& text);

}  // namespace lcn
