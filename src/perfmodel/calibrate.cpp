#include "perfmodel/calibrate.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "fun3d/recon.hpp"
#include "support/timer.hpp"

namespace glaf {
namespace {

/// Keep the optimizer from deleting measured work.
volatile double g_sink = 0.0;

double measure_alloc_us() {
  // One edge_loop call allocates a buffer of kEdgeTemps*kNumEq doubles and
  // counts as kEdgeTemps allocations; measure the per-allocation share.
  constexpr int kReps = 20000;
  const double secs = time_best([&] {
    double local = 0.0;
    for (int i = 0; i < kReps; ++i) {
      std::vector<double> buf(
          static_cast<std::size_t>(fun3d::kEdgeTemps) * fun3d::kNumEq, 0.0);
      local += buf[i % buf.size()];
    }
    g_sink = local;
  });
  return secs * 1e6 / (static_cast<double>(kReps) * fun3d::kEdgeTemps);
}

double measure_atomic_factor() {
  constexpr int kReps = 200000;
  // Serial dependency through memory so the compiler cannot vectorize or
  // fold the plain baseline away.
  volatile double plain_target = 0.0;
  const double plain = time_best([&] {
    for (int i = 0; i < kReps; ++i) plain_target = plain_target + 1.0;
    g_sink = plain_target;
  });
  double atomic_target = 0.0;
  const double atomic = time_best([&] {
    for (int i = 0; i < kReps; ++i) {
      std::atomic_ref<double> ref(atomic_target);
      ref.fetch_add(1.0, std::memory_order_relaxed);
    }
    g_sink = atomic_target;
  });
  // Single-threaded atomic cost understates cross-socket contention;
  // scale modestly and clamp to the physically plausible range (an
  // uncontended CAS-add is 2-5x a plain add; contended, somewhat more).
  const double uncontended = atomic > 0.0 && plain > 0.0 ? atomic / plain : 2.0;
  return std::clamp(uncontended * 1.6, 2.4, 3.6);
}

}  // namespace

Fun3dUnitCosts measure_fun3d_unit_costs(const fun3d::Mesh& probe_mesh) {
  Fun3dUnitCosts costs;  // documented defaults

  // Body throughput: time the original serial reconstruction and scale
  // the body unit costs so the model reproduces the measurement.
  const double measured_secs =
      time_best([&] { g_sink = fun3d::rms_of(fun3d::reconstruct_original(probe_mesh).jac); },
                /*min_seconds=*/0.1, /*min_reps=*/2);
  const fun3d::ReconResult probe = fun3d::reconstruct_original(probe_mesh);
  Fun3dWorkload w = workload_from(probe_mesh, probe.stats);
  Fun3dConfig serial;
  serial.manual = true;
  const double modeled_us =
      model_fun3d_time(w, serial, 1, MachineModel::dual_xeon_e5_2637v4(),
                       costs);
  if (modeled_us > 0.0) {
    const double scale = measured_secs * 1e6 / modeled_us;
    costs.cell_us *= scale;
    costs.edge_us *= scale;
    costs.search_us *= scale;
  }

  // glibc's tcache fast path can undercut a real FORTRAN ALLOCATE by an
  // order of magnitude; floor at a representative allocator cost.
  costs.alloc_us = std::max(measure_alloc_us(), 0.02);
  // Fork/join keeps the documented costs of the modelled Xeon: this
  // host's thread pool says nothing about an OpenMP region on that
  // machine, and its latency swings with the host's load between runs.
  costs.atomic_factor = measure_atomic_factor();
  return costs;
}

double measure_statement_unit_seconds() {
  constexpr int kReps = 500000;
  std::vector<double> buf(64, 1.0);
  const double secs = time_best([&] {
    double acc = 0.0;
    for (int i = 0; i < kReps; ++i) {
      acc += buf[static_cast<std::size_t>(i) % buf.size()] * 1.0000001;
    }
    g_sink = acc;
  });
  return secs / kReps;
}

}  // namespace glaf
