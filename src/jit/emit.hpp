#pragma once
// Native-engine kernel emission: lower a whole GLAF program to one
// self-contained C translation unit built around the C back-end's
// numeric models (CodegenOptions::NumericModel — the bit-identical
// kInterp tier or the typed, ulp-bounded kOpt tier), plus an
// extern-"C" ABI wrapper per function. The wrapper takes a flat argument
// block — grid base pointers in global_grids order, their element
// counts, and the entry call's scalar arguments — and validates every
// extent. One rule then covers both tiers (binds_global_array in
// codegen/options.hpp): every global array the unit stores as double —
// every interp-tier array, every DOUBLE PRECISION opt-tier array — points
// at the host's buffer and is worked on in place. Only scalars and the
// opt tier's narrower arrays (long, int, float) are converted in and,
// when written, back out. One emission strategy covers every global kind
// (owned statics, module externs, COMMON members, TYPE elements), with
// the wrapper as the only ABI surface.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/parallelize.hpp"
#include "codegen/options.hpp"
#include "core/program.hpp"
#include "support/status.hpp"

namespace glaf::jit {

/// The ABI version baked into emitted units and checked after dlopen;
/// bump on any layout or naming change so stale cached objects miss.
/// v2: host-driven parallel ranges (glaf_set_pfor / glaf_nat_parallel).
/// v3: fused region entry points (glaf_rg_*), the profit gate
///     (glaf_set_pfor grew a gate argument; glaf_nat_gated counter) and
///     region metadata (glaf_nat_regions / glaf_nat_fused_regions).
/// v4: numeric-model tiers — opt units store grids in native widths and
///     convert element-wise at the copy-in/copy-out boundary (the host
///     block stays double*); glaf_nat_model() reports the tier.
/// v5: the measured profit gate — glaf_set_pfor takes the host's gate
///     callbacks instead of a threshold, and every region call site
///     keeps a glaf_site slot (jit/gate.hpp).
/// v6: opt units bind their double arrays in place like interp units;
///     glaf_nat_args loses num_threads, and the unused region metadata
///     exports (glaf_nat_regions / glaf_nat_fused_regions) are gone.
inline constexpr long kAbiVersion = 6;

/// One comparable/copyable global: position in the flat argument block
/// is its position in program.global_grids.
struct AbiSlot {
  GridId grid = 0;
  std::string name;
  std::int64_t elements = 1;  ///< folded element count (1 for scalars)
};

/// Call surface of one GLAF function inside the unit.
struct AbiFunction {
  std::string name;        ///< GLAF function name
  std::string symbol;      ///< wrapper symbol ("glaf_nat_call_<name>")
  bool supported = false;  ///< callable through the flat-args wrapper
  std::string reason;      ///< why not, when !supported
  int num_scalar_params = 0;
  bool returns_value = false;
};

/// A lowered program: complete C source plus its ABI description.
struct KernelUnit {
  std::string source;
  std::vector<AbiSlot> slots;          ///< global_grids order
  std::vector<AbiFunction> functions;  ///< program.functions order
  /// Host-parallel dispatch regions the unit was emitted with (empty
  /// for serial units).
  std::vector<ParallelRegion> regions;
  /// Whether the unit was emitted with host-parallel ranges: the
  /// requested EmitOptions::parallel, resolved (opt units are serial).
  bool parallel = false;
};

/// Options controlling the lowered unit (mirrors InterpOptions).
struct EmitOptions {
  /// Emit host-driven parallel range functions for bit-exact steps (the
  /// engine installs its thread pool through the exported glaf_set_pfor).
  bool parallel = false;
  DirectivePolicy policy = DirectivePolicy::kV0;
  bool save_temporaries = false;
  /// Unread: kept only because the benchmark harness still sets them.
  /// Parallel units always fuse adjacent fusable ranged steps into one
  /// region entry point, dispatched over a static partition.
  bool fuse_regions = true;
  bool dynamic_schedule = false;
  std::int64_t schedule_chunk = 4;
  /// Numeric model of the lowered unit. kInterp is the bit-identical
  /// tier; kOpt stores grids in native widths, restrict-qualifies
  /// pointers, and applies the S4 interchange pass — its results are
  /// compared under ulp budgets. kOpt units are always serial
  /// (KernelUnit::parallel says how a unit was emitted).
  NumericModel model = NumericModel::kInterp;
};

/// Per-entry copy masks, one flag per slot in global_grids order: the
/// wrapper copies a slot in when `touch` is set (the function reads or
/// writes it, transitively) and back out when `write` is set. Arrays the
/// unit stores as double are bound to the host's storage whatever the
/// masks say, so the masks matter for scalars and for the opt tier's
/// long, int and float arrays only. A function without a summary in
/// `effects` gets all-ones masks — copy everything, never skip a live
/// slot.
struct CopyMasks {
  std::vector<bool> touch;
  std::vector<bool> write;
};
CopyMasks copy_masks(const Program& program, const std::vector<AbiSlot>& slots,
                     const EffectsMap& effects, const std::string& function);

/// Lower `program` to a native kernel unit. `analysis` must be of
/// `program`: its effect summaries decide each entry's copy masks. Fails
/// (whole-engine fallback) when a global grid is a struct or has a
/// non-foldable extent — the flat argument block cannot describe those.
StatusOr<KernelUnit> emit_kernel_unit(const Program& program,
                                      const ProgramAnalysis& analysis,
                                      const EmitOptions& options = {});

}  // namespace glaf::jit
