#pragma once
// Host calibration for the performance models: measures the unit costs
// the models consume (allocation, atomic accumulation, kernel body
// throughput) on the machine actually running the benchmarks, so the
// modeled times are anchored in real measurements even though the
// target machines are simulated. Parallel-region fork/join is the one
// cost taken from the modelled machine instead (Fun3dUnitCosts
// defaults): a host pool's dispatch latency is no estimate of it.

#include "fun3d/mesh.hpp"
#include "perfmodel/fun3d_model.hpp"
#include "perfmodel/machine_model.hpp"

namespace glaf {

/// Measure FUN3D unit costs on this host. `probe_mesh` is reconstructed
/// once (serially) to calibrate the body throughput; allocation and
/// atomic costs come from microbenchmarks. Fork/join costs and the
/// ratio-type constants (atomic_share, glaf_struct_factor) keep their
/// documented defaults.
Fun3dUnitCosts measure_fun3d_unit_costs(const fun3d::Mesh& probe_mesh);

/// Measure the cost of one straight-line "statement unit" in seconds
/// (used to report the SARB model's abstract times as wall-clock
/// estimates).
double measure_statement_unit_seconds();

}  // namespace glaf
