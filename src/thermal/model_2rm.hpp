// 2-register-model (porous-medium) thermal simulation (paper §2.3).
//
// The horizontal discretization is coarsened to blocks of m×m basic cells.
// In a channel layer every block is represented by up to two nodes — one
// lumped solid node and one lumped liquid node; in solid layers a block is a
// single node. Couplings:
//   solid–solid in-plane   effective conductance through *complete
//                          conducting paths* only (Eq. 7): a lane of cells
//                          running from the block center to the interface
//                          conducts only if every cell on it is solid;
//   solid–liquid           vertical only; the side-wall area is folded into
//                          the top/bottom exchange (Eq. 8), g*_sl,side = 0;
//   liquid–liquid          advection on the *net* flow rate across the block
//                          interface (aggregated from the basic-cell flow
//                          field), central differencing as in Eq. 6.
// An m×m discretization shrinks the system ~m² and accelerates simulation
// by more than m² (Fig. 9(b)), at a small accuracy cost (Fig. 9(a)).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "network/cooling_network.hpp"
#include "thermal/assembly_plan.hpp"
#include "thermal/field.hpp"
#include "thermal/problem.hpp"

namespace lcn {

class Thermal2RM {
 public:
  /// `m` is the thermal-cell size in basic cells (e.g. 4 => 400 µm thermal
  /// cells on the 100 µm benchmark grid). m = 1 recovers a 4RM-resolution
  /// grid (though solid/liquid lumping rules still differ slightly).
  Thermal2RM(CoolingProblem problem, std::vector<CoolingNetwork> networks,
             int m);

  /// Assemble at P_sys. First call builds the cached AssemblyPlan (symbolic
  /// pattern + P_sys-invariant values); every call — including the first —
  /// produces a system bit-identical to the historical fresh traversal.
  AssembledThermal assemble(double p_sys) const {
    return plan().assemble(p_sys);
  }
  /// assemble(p_sys) under a per-step boundary (inlet temperature, power
  /// scale per source layer; ThermalAssemblyPlan::assemble).
  AssembledThermal assemble(double p_sys, const BoundaryState& boundary) const {
    return plan().assemble(p_sys, boundary);
  }
  ThermalField simulate(double p_sys) const;

  /// The cached symbolic assembly plan (built on first use; shared across
  /// copies of this model).
  const ThermalAssemblyPlan& plan() const;

  double pumping_power(double p_sys) const;
  double system_flow(double p_sys) const;

  int thermal_cell_size() const { return m_; }
  int block_rows() const { return block_rows_; }
  int block_cols() const { return block_cols_; }
  std::size_t node_count() const { return node_total_; }

  const CoolingProblem& problem() const { return problem_; }
  const FlowSolution& flow(int channel_index) const {
    return flows_.at(static_cast<std::size_t>(channel_index));
  }

  /// Node ids; -1 when the node does not exist (e.g. a block with no liquid
  /// cell has no liquid node).
  std::ptrdiff_t solid_node(int layer, int block_row, int block_col) const;
  std::ptrdiff_t liquid_node(int layer, int block_row, int block_col) const;

 private:
  struct BlockStats {            // per channel layer, per block
    int liquid_cells = 0;
    int solid_cells = 0;
    double side_area = 0.0;      ///< lateral liquid wall area, m²
    double unit_inflow = 0.0;    ///< inlet flow at unit pressure
    double unit_outflow = 0.0;
    double unit_flow_east = 0.0;  ///< net flow to the east block, unit P_sys
    double unit_flow_south = 0.0;
    int lanes[4] = {0, 0, 0, 0};  ///< conducting lanes toward W/E/N/S
  };

  std::size_t block_index(int block_row, int block_col) const {
    return static_cast<std::size_t>(block_row) *
               static_cast<std::size_t>(block_cols_) +
           static_cast<std::size_t>(block_col);
  }
  /// Cell extents of a block (inclusive).
  CellRect block_rect(int block_row, int block_col) const;

  void build_nodes();
  void build_block_stats();
  std::shared_ptr<const ThermalAssemblyPlan> build_plan() const;

  CoolingProblem problem_;
  std::vector<CoolingNetwork> networks_;
  std::vector<FlowSolution> flows_;
  int m_ = 1;
  int block_rows_ = 0;
  int block_cols_ = 0;
  std::size_t node_total_ = 0;
  /// node_id_[layer][block*2 + phase] with phase 0 = solid, 1 = liquid.
  std::vector<std::vector<std::ptrdiff_t>> node_id_;
  /// stats_[channel_index][block]
  std::vector<std::vector<BlockStats>> stats_;
  /// Lazily-built assembly plan; shared_ptr members keep the model copyable
  /// (copies share the cached plan — it depends only on immutable state).
  mutable std::shared_ptr<std::mutex> plan_mutex_ =
      std::make_shared<std::mutex>();
  mutable std::shared_ptr<const ThermalAssemblyPlan> plan_;
};

}  // namespace lcn
