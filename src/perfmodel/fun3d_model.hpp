#pragma once
// Cost model for the FUN3D Jacobian-reconstruction option space
// (Figure 7): 16-thread speedups for every combination of per-level
// parallelization and the no-reallocation option, plus the manually
// parallelized comparison point.
//
// Structure comes from the mini-app's real execution counters
// (ReconStats: edge calls, searches, allocations, fork/joins, skipped
// cells); unit costs are measured on the host by calibrate.hpp or taken
// from the documented defaults. Thread scaling uses the dual-Xeon
// machine model.

#include <string>
#include <vector>

#include "fun3d/recon.hpp"
#include "perfmodel/machine_model.hpp"

namespace glaf {

/// Per-operation costs in microseconds (plus dimensionless factors).
/// Defaults are representative of a ~3.5 GHz Xeon; the benchmark
/// harness overrides the body, allocation and atomic costs with host
/// measurements and keeps the fork/join costs (perfmodel/calibrate.hpp).
struct Fun3dUnitCosts {
  double cell_us = 0.08;      ///< per-cell context build (nodes + faces)
  double edge_us = 0.35;      ///< per-edge computation (50 temporaries)
  double search_us = 0.04;    ///< per-edge offset search
  double alloc_us = 0.05;     ///< per temporary-array allocation
  double fork_base_us = 6.0;  ///< parallel-region entry/exit
  double fork_per_thread_us = 1.0;
  double nested_fork_us = 0.4;  ///< region entered inside an active region
  /// Contended-atomic accumulation: multiplier on the accumulation share
  /// of the edge work when the output array is shared across threads.
  double atomic_factor = 3.2;
  double atomic_share = 0.45;
  /// GLAF's five-sub-function decomposition overhead vs the single
  /// original function.
  double glaf_struct_factor = 1.25;
};

/// One Figure 7 configuration.
struct Fun3dConfig {
  fun3d::ReconOptions options;
  bool manual = false;  ///< hand-parallelized original (ignores options
                        ///< other than threads)
};

/// Workload shape: counts from a real mesh/run (scaled or full).
struct Fun3dWorkload {
  std::int64_t cells = 0;
  std::int64_t processed_cells = 0;  ///< cells - angle_check skips
  std::int64_t edges = 0;
  double avg_edges_per_cell = 10.0;
  double avg_row_entries = 8.0;  ///< CSR adjacency row length
};

/// Derive the workload shape from a mesh plus a run's stats.
Fun3dWorkload workload_from(const fun3d::Mesh& mesh,
                            const fun3d::ReconStats& stats);

/// Modeled wall time in microseconds.
double model_fun3d_time(const Fun3dWorkload& workload,
                        const Fun3dConfig& config, int threads,
                        const MachineModel& machine,
                        const Fun3dUnitCosts& costs = {});

/// One Figure 7 bar.
struct Fun3dPoint {
  std::string label;
  fun3d::ReconOptions options;
  bool manual = false;
  double speedup = 0.0;  ///< vs the original serial implementation
};

/// The full Figure 7 series: original serial baseline, every combination
/// of {EdgeJP, cell_loop, edge_loop, ioff_search} x {no-reallocation}
/// (the paper omits angle-check parallelization as negligible), plus the
/// manual parallel version, at `threads` threads.
std::vector<Fun3dPoint> figure7_series(const Fun3dWorkload& workload,
                                       int threads,
                                       const MachineModel& machine,
                                       const Fun3dUnitCosts& costs = {});

}  // namespace glaf
