#pragma once
// Machine models for the performance-prediction back-end.
//
// The paper proposes "the incorporation of a performance prediction /
// modeling back-end that will guide the automatic code generation in a
// more intelligent way" as future work (§4.1.2); this module implements
// it, and doubles as the reproduction's stand-in for the paper's two
// testbeds (an Intel Core i5-2400 desktop and a dual-socket Xeon
// E5-2637 v4 server), neither of which is available here — the benchmark
// container exposes a single core, so multi-thread wall-clock cannot be
// measured directly. See DESIGN.md, substitution table.

#include <string>

namespace glaf {

/// Thread-scaling characteristics of one machine.
struct MachineModel {
  std::string name;
  int physical_cores = 4;
  int logical_cores = 8;
  /// Throughput contribution of a hyper-thread relative to a core.
  double ht_yield = 0.15;
  /// Effective-parallelism ceiling for bandwidth-bound kernels (streaming
  /// through large arrays stops scaling at this many cores' worth of
  /// memory bandwidth). 0 = unlimited.
  double bandwidth_cap = 0.0;
  /// Multiplicative body penalty when more threads run than physical
  /// cores (coherence traffic + OMP runtime with tiny chunks, §4.1.2's
  /// 8-thread collapse).
  double oversubscription_penalty = 6.8;

  /// Effective parallel speedup available to `threads` threads on a
  /// compute-bound region.
  [[nodiscard]] double effective_parallelism(int threads) const;

  /// Same, clamped by the bandwidth cap (for streaming kernels).
  [[nodiscard]] double effective_bandwidth_parallelism(int threads) const;

  /// The paper's desktop testbed: Intel Core i5-2400, four cores at
  /// 3.10 GHz ("up to 8 logical cores with hyper-threading" as §4.1.2
  /// describes its configuration).
  static MachineModel i5_2400();

  /// The paper's server testbed: two Xeon E5-2637 v4 (4 cores / 8 threads
  /// each) at 3.50 GHz with 256 GB DDR4-2400.
  static MachineModel dual_xeon_e5_2637v4();
};

}  // namespace glaf
