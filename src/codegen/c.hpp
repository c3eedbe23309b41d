#pragma once
// C code generation back-end (paper §2.1: GLAF generates C and FORTRAN,
// later OpenCL). Mirrors the FORTRAN back-end's §3 integration features in
// their C equivalents:
//   - existing-module variables -> extern declarations with provenance
//     comments (the legacy objects provide the storage);
//   - COMMON blocks             -> the gfortran interop convention of an
//     extern struct named <block>_ (tag <block>_common);
//   - module-scope variables    -> static file-scope definitions;
//   - subroutines               -> void functions;
//   - TYPE elements             -> parent.element member access, the
//     parent declared as an extern struct (tag <parent>_type);
//   - library functions         -> math.h spellings plus a small set of
//     emitted glaf_* helpers (MIN/MAX/SUM/...).
// OpenMP is emitted as #pragma omp with the same clause set as FORTRAN.

#include "analysis/parallelize.hpp"
#include "codegen/options.hpp"
#include "core/program.hpp"

namespace glaf {

/// The C spelling of a global's storage: `<block>_.name` for a COMMON
/// member, `<parent>.name` for a TYPE element, else the grid's name. A
/// harness linked with the unit defines those structs by their tags.
std::string c_storage_name(const Grid& g);

/// Generate a complete C translation unit for `program`.
GeneratedCode generate_c(const Program& program,
                         const ProgramAnalysis& analysis,
                         const CodegenOptions& options = {});

}  // namespace glaf
