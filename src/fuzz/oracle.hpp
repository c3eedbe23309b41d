#pragma once
// Multi-backend differential oracle — the paper's §4.1.1 validation
// methodology ("a code-wide side-by-side comparison of the results")
// mechanized: one program is executed by
//
//   1. the serial tree-walk interpreter (the reference),
//   2. the serial plan engine (compiled flat plans on the VM),
//   3. the native JIT engine (src/jit) running the kernel in-process —
//      compared *bitwise* against the reference, since interp_math
//      emission promises bit-identical arithmetic,
//   4. (opt-in) under each directive policy v0..v3, the *parallel*
//      native kernel that ships (fused regions, every region dispatched),
//      compared bitwise: threaded bit-exact steps must not change a
//      single bit; and the C back-end's OpenMP build run at
//      `num_threads`, which executes every kept directive's clauses
//      (private copies, reductions, atomics) for real,
//   5. the generated C translation unit (the serial build) compiled with
//      the system compiler and run in a subprocess,
//   6. (opt-in) the opt-tier native kernel — typed storage, restrict,
//      -O3 with contraction — compared under a per-element ulp budget
//      instead of bitwise, the numeric contract that tier advertises,
//
// and every Global Scope grid is compared element-wise afterwards.
// Agreement is |a-b| <= atol + rtol*max(|a|,|b|), with NaN==NaN; exact
// backends match bitwise, while the OpenMP builds' reductions may
// reassociate within the tolerance.
//
// External (imported-module / COMMON) grids receive deterministic
// pseudo-random inputs derived from the *grid name*, so a corpus replay
// feeds identical inputs regardless of which seed produced the program.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "codegen/c_run.hpp"  // openmp_available, for backend gating
#include "codegen/options.hpp"
#include "core/program.hpp"
#include "support/status.hpp"
#include "support/subprocess.hpp"  // cc_available, for backend gating

namespace glaf::fuzz {

struct OracleOptions {
  double rtol = 1e-9;
  double atol = 1e-9;
  int num_threads = 4;
  /// Compile-and-execute C backends: the serial build, and with
  /// run_native_parallel the OpenMP builds.
  bool run_compiled_c = true;
  /// In-process native JIT leg (gated on cc availability, like the C
  /// backend, but with no subprocess round-trip). Compared bitwise.
  bool run_native = true;
  /// Parallel legs, one pair per policy. "parallel-vK-native" runs the
  /// kernel that ships (fused regions, ABI v3) with every region
  /// dispatched, held to bitwise equality against the serial reference
  /// (and so, transitively, against the serial native kernel).
  /// "parallel-vK-c" (also gated on run_compiled_c, and skipped when
  /// `cc -fopenmp` does not link) runs the C back-end's OpenMP build at
  /// num_threads, within the tolerance. Off by default: each policy
  /// costs a kernel compile and an OpenMP compile.
  bool run_native_parallel = false;
  /// Opt-tier native leg ("native-opt"): the same program JIT-compiled
  /// under NumericModel::kOpt — typed storage, restrict pointers,
  /// -O3 -ffp-contract=fast -march=native. Unlike every other native
  /// leg this one is *not* bitwise: contraction and vectorization round
  /// differently, so the comparator forks to a per-element ulp budget
  /// (ulp_close with opt_max_ulp, plus an optional rtol/atol band).
  /// Off by default: an extra kernel compile per program.
  bool run_native_opt = false;
  std::uint64_t opt_max_ulp = 64;  ///< per-element budget for the opt leg
  double opt_rtol = 0.0;           ///< optional relative band on top
  double opt_atol = 0.0;           ///< optional absolute band on top
  /// The serial plan-engine leg ("plan").
  bool run_plan = true;
  std::vector<DirectivePolicy> policies = {
      DirectivePolicy::kV0, DirectivePolicy::kV1, DirectivePolicy::kV2,
      DirectivePolicy::kV3};
  std::string cc = "cc";        ///< system compiler command
  std::string work_dir = "/tmp";
  /// Kernel-cache directory for the native leg. Empty = a fuzz-private
  /// directory under work_dir, so one-off fuzz kernels never pollute the
  /// user's ~/.cache/glaf/kernels.
  std::string native_cache_dir;
  /// Test hook: rewrite the generated C source of every C leg before
  /// compiling (used to inject semantic bugs and prove the oracle catches
  /// them).
  std::function<std::string(const std::string&)> c_source_transform;
};

/// One element-level disagreement against the serial reference.
struct Divergence {
  std::string backend;  ///< "plan", "native", "parallel-v2-c", ..., "c"
  std::string grid;
  std::int64_t index = 0;  ///< flat element index
  double expected = 0.0;   ///< serial reference value
  double actual = 0.0;
};

struct OracleReport {
  std::vector<Divergence> divergences;  ///< capped per backend
  std::vector<std::string> errors;      ///< infrastructure failures
  bool c_backend_ran = false;
  bool native_backend_ran = false;
  bool opt_backend_ran = false;
  int backends_compared = 0;

  /// All executed backends matched the reference and nothing failed.
  [[nodiscard]] bool agreed() const {
    return divergences.empty() && errors.empty();
  }
};

/// Run every enabled backend and compare against the serial interpreter.
OracleReport run_oracle(const Program& program, const std::string& entry,
                        const OracleOptions& opts = {});

/// The entry point for a program: `fz_main` when present, otherwise the
/// first zero-parameter SUBROUTINE.
StatusOr<std::string> find_entry(const Program& program);

}  // namespace glaf::fuzz
