#include "jit/emit.hpp"

#include <set>
#include <vector>

#include "analysis/access.hpp"
#include "codegen/c.hpp"
#include "codegen/optpass.hpp"
#include "support/strings.hpp"

namespace glaf::jit {
namespace {

/// Declarator of one slot's storage in the unit: "long a[16]", or a
/// bound array's "double* restrict a" (binds_global_array).
std::string slot_decl(const Grid& g, const AbiSlot& slot, NumericModel model) {
  const std::string ty = storage_ctype(g.elem_type, model);
  if (g.dims.empty()) return cat(ty, " ", g.name);
  if (binds_global_array(g.elem_type, model)) {
    return bound_array_decl(ty, g.name);
  }
  return cat(ty, " ", g.name, "[", slot.elements, "]");
}

std::string wrapper_text(const Program& p, const std::vector<AbiSlot>& slots,
                         const std::vector<AbiFunction>& functions,
                         bool parallel, NumericModel model,
                         const EffectsMap& effects) {
  std::vector<std::string> out;
  out.push_back("");
  out.push_back("/* ---- native-engine ABI wrapper ---- */");
  out.push_back("");
  // Storage for module externs, TYPE parent variables and COMMON blocks
  // (harness role). Each struct variable is defined once, by its tag
  // (c_storage_name); `defined` holds the variables' names.
  std::set<std::string> defined;
  for (const AbiSlot& slot : slots) {
    const Grid& g = p.grid(slot.grid);
    if (g.external == ExternalKind::kCommon) {
      if (defined.insert(cat(g.common_block, "_")).second) {
        out.push_back(cat("struct ", g.common_block, "_common ",
                          g.common_block, "_;"));
      }
    } else if (!g.type_parent.empty()) {
      if (defined.insert(g.type_parent).second) {
        out.push_back(cat("struct ", g.type_parent, "_type ", g.type_parent,
                          ";"));
      }
    } else if (g.external == ExternalKind::kModule) {
      out.push_back(cat(slot_decl(g, slot, model), ";"));
    }
  }
  out.push_back("");
  // The flat argument block. Must match NativeEngine's host-side mirror
  // (src/jit/engine.cpp) field for field.
  out.push_back("typedef struct {");
  out.push_back("  double* const* grids;   /* base pointer per slot */");
  out.push_back("  const long* extents;    /* element count per slot */");
  out.push_back("  const double* scalars;  /* entry call scalar args */");
  out.push_back("  double result;");
  out.push_back("} glaf_nat_args;");
  out.push_back("");
  out.push_back(cat("long glaf_nat_abi_version(void) { return ", kAbiVersion,
                    "; }"));
  out.push_back(cat("long glaf_nat_num_slots(void) { return ", slots.size(),
                    "; }"));
  // Whether this unit was emitted with host-driven parallel ranges (the
  // engine installs its pool through glaf_set_pfor when so).
  out.push_back(cat("long glaf_nat_parallel(void) { return ",
                    parallel ? 1 : 0, "; }"));
  // Numeric-model tier of this unit (0 = interp/bit-identical, 1 = opt/
  // typed): the engine refuses a cached object whose tier disagrees with
  // the one it was asked to run.
  out.push_back(cat("long glaf_nat_model(void) { return ",
                    model == NumericModel::kOpt ? 1 : 0, "; }"));
  out.push_back("");
  // Copy-in validates every slot's element count first (a nonzero return
  // is 1 + the offending slot index) and only then touches anything, so
  // a mis-sized binding fails before a kernel can write past it. The
  // host block is always double*. Every array the unit stores as double
  // (binds_global_array) is then pointed at the host's buffer, with no
  // mask: the kernel works on the host's arrays in place, so even a read
  // the effect summaries miss sees current data. Scalars, and opt-tier
  // arrays stored narrower, are converted element-wise into the unit's
  // storage; copy-out converts the written ones back. This boundary is
  // the only place the two storage models meet.
  //
  // The copies take a per-entry slot mask: an entry wrapper moves just
  // the globals its function (transitively) touches — copy-in for any
  // access, copy-out for writes. Written slots always appear in the
  // copy-in mask too, so a partial write exports the host's own values
  // for untouched elements; touches include the scalars grid extents
  // read. Slots outside the mask keep whatever the unit's storage last
  // held, which the entry never observes. Small entry points over large
  // programs would otherwise be dominated by boundary traffic.
  auto guard = [](std::size_t i, const std::string& line) {
    return cat("  if (glaf_nat_m[", i, "]) {", line.substr(1), " }");
  };
  const std::string mask_param = "const unsigned char* restrict glaf_nat_m";
  out.push_back(cat("static long glaf_nat_copy_in(const glaf_nat_args* "
                    "glaf_nat_a, ", mask_param, ") {"));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    out.push_back(cat("  if (glaf_nat_a->extents[", i, "] != ", slots[i].elements,
                      ") return ", i + 1, ";"));
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Grid& g = p.grid(slots[i].grid);
    const std::string name = c_storage_name(g);
    const std::string ty = storage_ctype(g.elem_type, model);
    if (g.dims.empty()) {
      out.push_back(guard(i, cat("  ", name, " = (", ty,
                                 ")glaf_nat_a->grids[", i, "][0];")));
    } else if (binds_global_array(g.elem_type, model)) {
      out.push_back(cat("  ", name, " = glaf_nat_a->grids[", i, "];"));
    } else {
      out.push_back(guard(i, cat("  { const double* restrict glaf_s = "
                                 "glaf_nat_a->grids[", i, "]; ", ty,
                                 "* restrict glaf_d = ", name, "; long glaf_k; "
                                 "for (glaf_k = 0; glaf_k < ",
                                 slots[i].elements,
                                 "; ++glaf_k) glaf_d[glaf_k] = (", ty,
                                 ")glaf_s[glaf_k]; }")));
    }
  }
  out.push_back("  return 0;");
  out.push_back("}");
  out.push_back("");
  out.push_back(cat("static void glaf_nat_copy_out(const glaf_nat_args* "
                    "glaf_nat_a, ", mask_param, ") {"));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Grid& g = p.grid(slots[i].grid);
    const std::string name = c_storage_name(g);
    const std::string ty = storage_ctype(g.elem_type, model);
    if (g.dims.empty()) {
      out.push_back(guard(i, cat("  glaf_nat_a->grids[", i, "][0] = (double)",
                                 name, ";")));
    } else if (!binds_global_array(g.elem_type, model)) {
      out.push_back(guard(i, cat("  { const ", ty, "* restrict glaf_s = ",
                                 name,
                                 "; double* restrict glaf_d = "
                                 "glaf_nat_a->grids[", i,
                                 "]; long glaf_k; for (glaf_k = 0; glaf_k < ",
                                 slots[i].elements,
                                 "; ++glaf_k) glaf_d[glaf_k] = "
                                 "(double)glaf_s[glaf_k]; }")));
    }
  }
  out.push_back("}");
  const auto bytes = [](const std::vector<bool>& mask) {
    std::vector<std::string> flags;
    for (const bool bit : mask) flags.push_back(bit ? "1" : "0");
    return join(flags, ",");
  };
  for (const AbiFunction& fn : functions) {
    if (!fn.supported) continue;
    out.push_back("");
    // The analysis's transitive effect summaries pick each entry's slots.
    const CopyMasks masks = copy_masks(p, slots, effects, fn.name);
    out.push_back(cat("static const unsigned char glaf_nat_touch_",
                      fn.symbol, "[] = {", bytes(masks.touch), "};"));
    out.push_back(cat("static const unsigned char glaf_nat_write_",
                      fn.symbol, "[] = {", bytes(masks.write), "};"));
    out.push_back(cat("long ", fn.symbol, "(glaf_nat_args* glaf_nat_a) {"));
    out.push_back(cat("  long status = glaf_nat_copy_in(glaf_nat_a, "
                      "glaf_nat_touch_", fn.symbol, ");"));
    out.push_back("  if (status) return status;");
    std::vector<std::string> args;
    for (int i = 0; i < fn.num_scalar_params; ++i) {
      args.push_back(cat("glaf_nat_a->scalars[", i, "]"));
    }
    const std::string call = cat(fn.name, "(", join(args, ", "), ")");
    if (fn.returns_value) {
      out.push_back(cat("  glaf_nat_a->result = ", call, ";"));
    } else {
      out.push_back(cat("  ", call, ";"));
      out.push_back("  glaf_nat_a->result = 0.0;");
    }
    out.push_back(cat("  glaf_nat_copy_out(glaf_nat_a, glaf_nat_write_",
                      fn.symbol, ");"));
    out.push_back("  return 0;");
    out.push_back("}");
  }
  out.push_back("");
  return join(out, "\n");
}

}  // namespace

CopyMasks copy_masks(const Program& program, const std::vector<AbiSlot>& slots,
                     const EffectsMap& effects, const std::string& function) {
  CopyMasks masks{std::vector<bool>(slots.size(), true),
                  std::vector<bool>(slots.size(), true)};
  const Function* f = program.find_function(function);
  const auto it = f != nullptr ? effects.find(f->id) : effects.end();
  if (it == effects.end()) return masks;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    masks.write[i] = it->second.global_writes.count(slots[i].grid) > 0;
    masks.touch[i] =
        masks.write[i] || it->second.global_reads.count(slots[i].grid) > 0;
  }
  return masks;
}

StatusOr<KernelUnit> emit_kernel_unit(const Program& program,
                                      const ProgramAnalysis& analysis,
                                      const EmitOptions& options) {
  KernelUnit unit;
  for (const GridId id : program.global_grids) {
    const Grid& g = program.grid(id);
    if (g.is_struct()) {
      return unimplemented(cat("native: struct global grid '", g.name,
                               "' has no flat-argument-block layout"));
    }
    AbiSlot slot;
    slot.grid = id;
    slot.name = g.name;
    for (const Dim& d : g.dims) {
      const auto v = fold_with_globals(program, *d.extent);
      if (!v) {
        return unimplemented(cat("native: global grid '", g.name,
                                 "' has a non-constant extent"));
      }
      slot.elements *= static_cast<std::int64_t>(value_as_double(*v));
    }
    unit.slots.push_back(std::move(slot));
  }

  for (const Function& fn : program.functions) {
    AbiFunction abi;
    abi.name = fn.name;
    abi.symbol = cat("glaf_nat_call_", fn.name);
    abi.num_scalar_params = static_cast<int>(fn.params.size());
    abi.returns_value = fn.return_type != DataType::kVoid;
    abi.supported = true;
    for (const GridId id : fn.params) {
      const Grid& g = program.grid(id);
      if (!g.dims.empty() || g.is_struct()) {
        // C passes scalar parameters by value; array/struct parameters
        // would need host instances bound by name — per-call fallback.
        abi.supported = false;
        abi.reason = cat("parameter '", g.name, "' is not a plain scalar");
        break;
      }
    }
    unit.functions.push_back(std::move(abi));
  }

  // The opt tier applies the S4 interchange pass before lowering; a
  // reordered program needs a fresh analysis (verdict collapse depths and
  // partition dimensions are positional).
  const Program* prog = &program;
  const ProgramAnalysis* anal = &analysis;
  Program transformed;
  ProgramAnalysis reanalysis;
  if (options.model == NumericModel::kOpt) {
    OptPassResult pass = apply_opt_loop_transforms(program);
    if (pass.interchanged_steps > 0) {
      transformed = std::move(pass.program);
      reanalysis = analyze_program(transformed);
      prog = &transformed;
      anal = &reanalysis;
    }
  }

  // The host-parallel range ABI is an interp-tier feature (its bit-exact
  // partitioning argument is meaningless under reordered typed math), so
  // opt units are always serial. This is the one place that decides it:
  // the engine reads unit.parallel.
  unit.parallel = options.parallel && options.model != NumericModel::kOpt;

  CodegenOptions copts;
  copts.language = Language::kC;
  copts.numeric_model = options.model;
  copts.emit_comments = false;
  // Parallel units are host-driven: bit-exact steps become range
  // functions dispatched through glaf_set_pfor. No OpenMP pragmas are
  // emitted — the host pool partitions the work, not the kernel.
  copts.enable_openmp = false;
  copts.host_parallel = unit.parallel;
  copts.policy = options.policy;
  copts.save_temporaries = options.save_temporaries;
  GeneratedCode code = generate_c(*prog, *anal, copts);
  unit.regions = code.regions;
  unit.source = cat(code.source,
                    wrapper_text(*prog, unit.slots, unit.functions,
                                 unit.parallel, options.model, anal->effects));
  return unit;
}

}  // namespace glaf::jit
