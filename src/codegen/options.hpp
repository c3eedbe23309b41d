#pragma once
// Code-generation options: target language, the Table 2 directive
// policies, and the code-optimization back-end's switches (data layout,
// collapse, SAVE'd temporaries).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"

namespace glaf {

/// Target languages (paper §2.1: C, FORTRAN, OpenCL back-ends).
enum class Language : std::uint8_t { kFortran, kC, kOpenCL };

const char* to_string(Language lang);

/// Which parallel loops keep their OpenMP directives (Table 2):
///   kV0: all loops the back-end identified as parallelizable;
///   kV1: v0 minus zero-initializations and single-value broadcast loads;
///   kV2: v1 minus the remaining simple single loops;
///   kV3: v2 minus simple double loops (directives remain only on complex
///        loops — in SARB, the two large longwave_entropy_model loops).
enum class DirectivePolicy : std::uint8_t { kV0, kV1, kV2, kV3 };

const char* to_string(DirectivePolicy policy);

/// OpenMP loop schedule emitted on parallel loops.
enum class OmpSchedule : std::uint8_t {
  kDefault,  ///< no SCHEDULE clause (implementation default, i.e. static)
  kStatic,
  kDynamic,
};

const char* to_string(OmpSchedule schedule);

/// Numeric model of the emitted C: how grids and scalars are stored and
/// how arithmetic is allowed to differ from the interpreter.
enum class NumericModel : std::uint8_t {
  /// Faithful typed C (long/float/double) of the standalone back-end.
  kTyped,
  /// Interpreter-exact all-double model: every grid and scalar is a C
  /// double with explicit trunc() on INTEGER stores, trunc(a/b) for
  /// integer division and fmod for MOD, so the compiled kernel is
  /// bit-identical to the tree-walk/plan engines.
  kInterp,
  /// Optimized tier: native storage widths like kTyped, plus
  /// restrict-qualified storage pointers and applied S4 loop
  /// interchange so the innermost loop walks stride-1 memory. Compared
  /// against the interpreter under ulp budgets, not bitwise.
  kOpt,
};

const char* to_string(NumericModel model);

/// The C type code emitted under `model` stores a value of type `t` in.
/// The interp tier stores every value as a double, mirroring the
/// interpreter; the typed and opt models keep the faithful width. The C
/// back-end (CGen::ctype) and the JIT wrapper (jit/emit.cpp) both spell
/// storage through this one function.
inline const char* storage_ctype(DataType t, NumericModel model) {
  if (model == NumericModel::kInterp && t != DataType::kVoid) return "double";
  switch (t) {
    case DataType::kInt: return "long";
    case DataType::kReal: return "float";
    case DataType::kDouble: return "double";
    case DataType::kLogical: return "int";
    case DataType::kVoid: return "void";
  }
  return "void";
}

/// Whether a global array of element type `elem`, emitted under `model`,
/// binds to storage its caller owns instead of defining its own. The JIT
/// host holds every grid as doubles, so a JIT unit (kInterp or kOpt)
/// binds exactly the arrays it stores as double: every interp-tier array
/// and every DOUBLE PRECISION opt-tier array. The wrapper (jit/emit.cpp)
/// points each one at the host's buffer on every call, and the kernel
/// works on it in place. Arrays stored narrower (opt-tier long, int and
/// float) keep their own storage and the wrapper's converting copies;
/// kTyped is the standalone back-end and owns all of its storage.
///
/// A bound array is declared `restrict` (bound_array_decl). That is
/// sound because the caller binds each global to storage of its own:
/// distinct globals never share or overlap memory
/// (jit::NativeEngine::call refuses bindings that do), so a kernel store
/// through one global's pointer cannot change what another global's
/// pointer reads.
inline bool binds_global_array(DataType elem, NumericModel model) {
  return model != NumericModel::kTyped &&
         std::string_view(storage_ctype(elem, model)) == "double";
}

/// File-scope declarator of a bound global array: "double* restrict a".
inline std::string bound_array_decl(const std::string& elem_type,
                                    const std::string& name) {
  return elem_type + "* restrict " + name;
}

/// All options consumed by the generators.
struct CodegenOptions {
  Language language = Language::kFortran;

  /// SCHEDULE clause on parallel loops; kDynamic balances uneven bodies
  /// (e.g. the data-dependent branches of the complex loops).
  OmpSchedule schedule = OmpSchedule::kDefault;
  int schedule_chunk = 0;  ///< 0 = unspecified

  /// Master OpenMP switch; false produces the "GLAF serial" variant.
  bool enable_openmp = true;
  DirectivePolicy policy = DirectivePolicy::kV0;

  /// Emit COLLAPSE(n) on perfectly-nested parallel loops, up to this depth
  /// (GLAF generates COLLAPSE(2), paper §4.1.2).
  bool emit_collapse = true;
  int max_collapse = 2;

  /// Structure-of-arrays layout for struct grids (code-optimization
  /// back-end's data-layout option); false = array-of-structures.
  bool soa_layout = false;

  /// Apply the FORTRAN SAVE attribute to every function-local array to
  /// suppress per-call reallocation (§4.2.1 "no reallocation" option).
  bool save_temporaries = false;

  /// Emit explanatory comments (grid comments, directive rationale).
  bool emit_comments = true;

  /// Host-driven parallel emission (the parallel JIT engine's mode):
  /// bit-exact parallelizable steps (StepVerdict::bit_exact) that keep
  /// their directive under `policy` are emitted as static range functions
  /// over a banded iteration space, dispatched through an exported
  /// `glaf_set_pfor` callback so the host's thread pool — not an OpenMP
  /// runtime — partitions the work. Per-thread reduction scratch is
  /// combined in rank order, keeping results identical to the serial
  /// kernel. Steps that are not bit-exact run serially inside the unit.
  /// Maximal runs of adjacent ranged steps that share a partition
  /// dimension and carry no cross-step dependence (analysis/fuse.hpp)
  /// fuse into one region entry point, so a call pays one fork/join per
  /// region instead of per step.
  /// Set only by jit::emit_kernel_unit, which keeps opt units serial.
  bool host_parallel = false;

  /// Numeric model of the emitted C. kTyped is the standalone
  /// back-end's faithful typed C; kInterp is the JIT's bit-identical
  /// all-double model; kOpt is the JIT's fast tier (typed storage,
  /// restrict pointers, applied loop interchange).
  NumericModel numeric_model = NumericModel::kTyped;
};

/// One host-dispatched parallel region in the emitted unit (a single
/// ranged step, or a fused run of adjacent ranged steps).
struct ParallelRegion {
  std::string function;
  std::size_t first_step = 0;
  std::size_t step_count = 1;
};

/// Result of generating a whole program.
struct GeneratedCode {
  std::string source;  ///< complete translation unit
  /// Per-subprogram source excerpt (used by the Table 1 SLOC experiment).
  std::map<std::string, std::string> per_function;
  /// Host-parallel regions, in emission order (host_parallel only).
  std::vector<ParallelRegion> regions;
  /// Some loop's stride is checked at run time: the unit defines
  /// `glaf_fault`, which a zero stride sets.
  bool checks_stride = false;
};

}  // namespace glaf
