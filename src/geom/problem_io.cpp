#include "geom/problem_io.hpp"

#include <fstream>
#include <sstream>

#include "common/assert.hpp"
#include "common/strings.hpp"

namespace lcn {

namespace {

/// Largest grid a problem file may declare (~400x the cells of the paper's
/// 101x101 cases): every source layer allocates one power value per cell.
constexpr std::size_t kMaxGridCells = std::size_t{1} << 22;

/// Split a line into whitespace-separated fields, dropping comments.
std::vector<std::string> fields_of(const std::string& line) {
  const std::string body = line.substr(0, line.find('#'));
  std::vector<std::string> fields;
  std::istringstream is{body};
  std::string field;
  while (is >> field) fields.push_back(field);
  return fields;
}

double parse_double(const std::string& field, const std::string& context) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(field, &pos);
    if (pos != field.size()) throw std::invalid_argument(field);
    return value;
  } catch (const std::exception&) {
    throw RuntimeError("problem file: bad number `" + field + "` in " +
                       context);
  }
}

int parse_int(const std::string& field, const std::string& context) {
  try {
    std::size_t pos = 0;
    const int value = std::stoi(field, &pos);
    if (pos != field.size()) throw std::invalid_argument(field);
    return value;
  } catch (const std::exception&) {
    throw RuntimeError("problem file: bad integer `" + field + "` in " +
                       context);
  }
}

}  // namespace

ProblemDescription parse_stack_description(const std::string& text) {
  ProblemDescription desc;
  bool grid_seen = false;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto fields = fields_of(line);
    if (fields.empty()) continue;
    const std::string context = "line " + std::to_string(line_no);

    if (fields[0] == "grid") {
      if (fields.size() != 4) {
        throw RuntimeError("problem file: grid needs rows cols pitch (" +
                           context + ")");
      }
      desc.problem.grid = Grid2D(parse_int(fields[1], context),
                                 parse_int(fields[2], context),
                                 parse_double(fields[3], context));
      if (desc.problem.grid.cell_count() > kMaxGridCells) {
        throw RuntimeError(strfmt("problem file: grid exceeds %zu cells (",
                                  kMaxGridCells) +
                           context + ")");
      }
      grid_seen = true;
    } else if (fields[0] == "inlet_temperature") {
      if (fields.size() != 2) {
        throw RuntimeError("problem file: inlet_temperature needs one value (" +
                           context + ")");
      }
      desc.problem.inlet_temperature = parse_double(fields[1], context);
    } else if (fields[0] == "ambient") {
      if (fields.size() != 3) {
        throw RuntimeError(
            "problem file: ambient needs conductance and temperature (" +
            context + ")");
      }
      desc.problem.ambient_conductance = parse_double(fields[1], context);
      desc.problem.ambient_temperature = parse_double(fields[2], context);
    } else if (fields[0] == "layer") {
      if (fields.size() != 6) {
        throw RuntimeError(
            "problem file: layer needs kind name thickness k c (" + context +
            ")");
      }
      const double thickness = parse_double(fields[3], context);
      const SolidMaterial material{parse_double(fields[4], context),
                                   parse_double(fields[5], context)};
      if (fields[1] == "solid") {
        desc.problem.stack.add_solid(fields[2], thickness, material);
      } else if (fields[1] == "source") {
        desc.problem.stack.add_source(fields[2], thickness, material);
      } else if (fields[1] == "channel") {
        desc.problem.stack.add_channel(fields[2], thickness, material);
      } else {
        throw RuntimeError("problem file: unknown layer kind `" + fields[1] +
                           "` (" + context + ")");
      }
    } else if (fields[0] == "constraint") {
      if (fields.size() != 3) {
        throw RuntimeError("problem file: constraint needs name value (" +
                           context + ")");
      }
      const double value = parse_double(fields[2], context);
      if (fields[1] == "delta_t") desc.constraints.delta_t_max = value;
      else if (fields[1] == "t_max") desc.constraints.t_max = value;
      else if (fields[1] == "w_pump") desc.constraints.w_pump_max = value;
      else {
        throw RuntimeError("problem file: unknown constraint `" + fields[1] +
                           "` (" + context + ")");
      }
    } else {
      throw RuntimeError("problem file: unknown directive `" + fields[0] +
                         "` (" + context + ")");
    }
  }
  if (!grid_seen) throw RuntimeError("problem file: missing grid directive");
  desc.problem.stack.validate();
  // Power maps start empty; the caller attaches floorplans.
  for (int i = 0; i < desc.problem.stack.source_count(); ++i) {
    desc.problem.source_power.emplace_back(desc.problem.grid, 0.0);
  }
  return desc;
}

PowerMap parse_floorplan(const std::string& text, const Grid2D& grid) {
  std::vector<PowerBlock> blocks;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto fields = fields_of(line);
    if (fields.empty()) continue;
    const std::string context = "line " + std::to_string(line_no);
    if (fields.size() != 6) {
      throw RuntimeError(
          "floorplan: unit needs name row0 col0 rows cols watts (" + context +
          ")");
    }
    const int row0 = parse_int(fields[1], context);
    const int col0 = parse_int(fields[2], context);
    const int rows = parse_int(fields[3], context);
    const int cols = parse_int(fields[4], context);
    // In-bounds origin first, so the extent checks cannot overflow.
    if (rows <= 0 || cols <= 0 || !grid.in_bounds(row0, col0) ||
        rows > grid.rows() - row0 || cols > grid.cols() - col0) {
      throw RuntimeError("floorplan: unit `" + fields[0] +
                         "` out of grid bounds (" + context + ")");
    }
    blocks.push_back({CellRect{row0, col0, row0 + rows - 1,
                               col0 + cols - 1},
                      parse_double(fields[5], context)});
  }
  return PowerMap(grid, blocks);
}

ProblemDescription load_problem(
    const std::string& stack_path,
    const std::vector<std::string>& floorplan_paths) {
  ProblemDescription desc =
      parse_stack_description(read_text_file(stack_path));
  LCN_REQUIRE(static_cast<int>(floorplan_paths.size()) ==
                  desc.problem.stack.source_count(),
              "one floorplan file per source layer required");
  for (std::size_t i = 0; i < floorplan_paths.size(); ++i) {
    desc.problem.source_power[i] =
        parse_floorplan(read_text_file(floorplan_paths[i]), desc.problem.grid);
  }
  desc.problem.validate();
  return desc;
}

std::string format_stack_description(const ProblemDescription& desc) {
  std::ostringstream os;
  os << "# lcn stack description\n";
  os << strfmt("grid %d %d %.9g\n", desc.problem.grid.rows(),
               desc.problem.grid.cols(), desc.problem.grid.pitch());
  os << strfmt("inlet_temperature %.9g\n", desc.problem.inlet_temperature);
  if (desc.problem.ambient_conductance > 0.0) {
    os << strfmt("ambient %.9g %.9g\n", desc.problem.ambient_conductance,
                 desc.problem.ambient_temperature);
  }
  for (const Layer& layer : desc.problem.stack.layers()) {
    const char* kind = layer.kind == LayerKind::kSolid ? "solid"
                       : layer.kind == LayerKind::kSource ? "source"
                                                          : "channel";
    os << strfmt("layer %s %s %.9g %.9g %.9g\n", kind, layer.name.c_str(),
                 layer.thickness, layer.material.conductivity,
                 layer.material.volumetric_heat);
  }
  os << strfmt("constraint delta_t %.9g\n", desc.constraints.delta_t_max);
  os << strfmt("constraint t_max %.9g\n", desc.constraints.t_max);
  if (desc.constraints.w_pump_max > 0.0) {
    os << strfmt("constraint w_pump %.9g\n", desc.constraints.w_pump_max);
  }
  return os.str();
}

std::string format_floorplan(const PowerMap& map, const std::string& prefix) {
  // Emit one unit per non-zero cell run is wasteful; instead emit each cell
  // as a 1x1 unit only when non-zero — fine for the compact demo floorplans,
  // and exact for round-tripping.
  std::ostringstream os;
  os << "# lcn floorplan (1x1 cell units)\n";
  int unit = 0;
  for (int r = 0; r < map.grid().rows(); ++r) {
    for (int c = 0; c < map.grid().cols(); ++c) {
      const double w = map.at(r, c);
      if (w <= 0.0) continue;
      os << strfmt("%s%d %d %d 1 1 %.9g\n", prefix.c_str(), unit++, r, c, w);
    }
  }
  return os.str();
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw RuntimeError("cannot open file for writing: " + path);
  out << text;
  if (!out) throw RuntimeError("failed writing file: " + path);
}

}  // namespace lcn
