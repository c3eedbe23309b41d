#include "codegen/c.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "analysis/access.hpp"
#include "analysis/fuse.hpp"
#include "codegen/directive_policy.hpp"
#include "codegen/emitter.hpp"
#include "core/libfuncs.hpp"
#include "core/typecheck.hpp"
#include "support/strings.hpp"

namespace glaf {
namespace {

std::string c_literal(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) return format_double(*d);
  return std::get<bool>(v) ? "1" : "0";
}

const char* c_binop(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kPow: return "pow";   // handled as a call
    case BinOp::kMod: return "%";     // handled with fmod for floats
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kAnd: return "&&";
    case BinOp::kOr: return "||";
  }
  return "?";
}

/// The host-parallel unit's dispatch runtime: the pfor hook and the
/// profit-gate callbacks the embedding engine installs (jit/engine.cpp,
/// jit/gate.hpp mirrors glaf_site).
constexpr const char* kHostParallelRuntime =
    R"(/* Host-driven parallel runtime: the embedding engine installs
   its thread pool here; without it every range runs inline. */
typedef void (*glaf_range_fn)(void* ctx, long lo, long hi, long rank);
typedef void (*glaf_pfor_fn)(void* hctx, glaf_range_fn fn, void* ctx, long n);
/* Profit gate slot of one region call site. While `left` counts down, a
   run of n trips dispatches iff n >= nmin; when it runs out the site asks
   the host, which arms the slot or opens a timed run that the site
   closes after the branch. Serial runs bump glaf_gated. */
typedef struct {
  long left;
  long nmin;
  long timing;
  void* state;
} glaf_site;
typedef long (*glaf_open_fn)(void* hctx, glaf_site* s, long n);
typedef void (*glaf_close_fn)(void* hctx, glaf_site* s);
static glaf_pfor_fn glaf_pfor = 0;
static glaf_open_fn glaf_gate_open = 0;
static glaf_close_fn glaf_gate_close = 0;
static void* glaf_pfor_ctx = 0;
static long glaf_nranks = 1;
static long glaf_gated = 0;
long glaf_nat_gated(void) { return glaf_gated; }
void glaf_set_pfor(glaf_pfor_fn pf, glaf_open_fn open, glaf_close_fn close,
                   void* hctx, long nranks) {
  glaf_pfor = pf; glaf_gate_open = open; glaf_gate_close = close;
  glaf_pfor_ctx = hctx;
  glaf_nranks = nranks > 0 ? nranks : 1;
})";

class CGen {
 public:
  CGen(const Program& p, const ProgramAnalysis& analysis,
       const CodegenOptions& options)
      : p_(p), analysis_(analysis), opt_(options), w_("") {}

  /// The interpreter-exact numeric model (the bit-identical JIT tier).
  bool interp_math() const {
    return opt_.numeric_model == NumericModel::kInterp;
  }

  /// Whether expression arithmetic follows the interpreter (untruncated
  /// INTEGER powers, fmod, trunc(a/b)): always in the interp tier, and in
  /// the typed models inside a subscript or loop bound that index_text
  /// rounds. Storage spellings still follow interp_math().
  bool interp_arith() const { return interp_math() || index_arith_; }

  /// The optimized numeric model (the fast JIT tier): typed storage like
  /// kTyped, plus restrict-qualified pointers. Compared under ulp
  /// budgets, not bitwise.
  bool opt_math() const {
    return opt_.numeric_model == NumericModel::kOpt;
  }

  /// Pointer declarator spelling: the opt tier restrict-qualifies every
  /// grid pointer — sound because the IR forbids mixed access to a grid
  /// through both a parameter and its bound global (the fuzz generator
  /// and the hand-built case studies uphold the same discipline).
  std::string ptr_decl(const std::string& elem) const {
    return opt_math() ? cat(elem, "* restrict ") : cat(elem, "* ");
  }

  /// Storage type under the active numeric model (storage_ctype).
  std::string ctype(DataType t) const {
    return storage_ctype(t, opt_.numeric_model);
  }

  GeneratedCode run() {
    emit_file_scope();
    GeneratedCode out;
    for (const Function& fn : p_.functions) emit_prototype(fn);
    w_.blank();
    if (opt_.host_parallel) {
      effects_ = compute_effects(p_);
      plan_regions();
      emit_range_units();
    }
    if (opt_.enable_openmp) find_region_callees();
    for (const Function& fn : p_.functions) {
      const std::size_t mark = w_.mark();
      current_fn_ = &fn;
      emit_function(fn);
      out.per_function[fn.name] = w_.text_since(mark);
      w_.blank();
    }
    out.regions = regions_;
    out.checks_stride = uses_fault_;
    // The preamble goes first but is written last: it defines the index
    // and stride helpers only when the code uses them.
    CodeWriter body = std::move(w_);
    w_ = CodeWriter("");
    emit_preamble();
    out.source = w_.str() + body.str();
    return out;
  }

 private:
  // ---- preamble and file scope -------------------------------------------

  void emit_preamble() {
    w_.raw(cat("/* Module ", p_.module_name,
               " -- auto-generated by GLAF (do not edit) */"));
    w_.raw("#include <math.h>");
    w_.raw("#include <stdlib.h>");
    if (opt_.host_parallel) w_.raw("#include <string.h>");
    w_.raw("#ifdef _OPENMP");
    w_.raw("#include <omp.h>");
    w_.raw("#endif");
    w_.blank();
    w_.raw("/* GLAF runtime helpers */");
    w_.raw("static double glaf_min(double a, double b) "
           "{ return a < b ? a : b; }");
    w_.raw("static double glaf_max(double a, double b) "
           "{ return a > b ? a : b; }");
    w_.raw("static double glaf_sum(const double* p, long n) "
           "{ double s = 0.0; for (long i = 0; i < n; ++i) s += p[i]; "
           "return s; }");
    w_.raw("static double glaf_minval(const double* p, long n) "
           "{ double m = p[0]; for (long i = 1; i < n; ++i) "
           "m = glaf_min(m, p[i]); return m; }");
    w_.raw("static double glaf_maxval(const double* p, long n) "
           "{ double m = p[0]; for (long i = 1; i < n; ++i) "
           "m = glaf_max(m, p[i]); return m; }");
    w_.raw("static long glaf_sum_l(const long* p, long n) "
           "{ long s = 0; for (long i = 0; i < n; ++i) s += p[i]; "
           "return s; }");
    w_.raw("static long glaf_minval_l(const long* p, long n) "
           "{ long m = p[0]; for (long i = 1; i < n; ++i) "
           "if (p[i] < m) m = p[i]; return m; }");
    w_.raw("static long glaf_maxval_l(const long* p, long n) "
           "{ long m = p[0]; for (long i = 1; i < n; ++i) "
           "if (p[i] > m) m = p[i]; return m; }");
    w_.raw("static double glaf_sign(double a, double b) "
           "{ return b >= 0.0 ? fabs(a) : -fabs(a); }");
    w_.raw("static double glaf_mod(double a, double b) "
           "{ return fmod(a, b); }");
    w_.raw("static double glaf_dim(double a, double b) "
           "{ return a > b ? a - b : 0.0; }");
    w_.raw("static long glaf_nint(double a) { return (long)nearbyint(a); }");
    if (uses_ix_) {
      // The plan VM's index rounding (llround, which returns the
      // truncation for NaN and values out of range), spelled out so that
      // it stays inline under -fno-builtin. An integral value, the common
      // case, takes the predicted branch: its address then waits on one
      // conversion only. The fractional case stays out of line, which
      // keeps every inlined subscript small (about 8% less cc time).
      w_.raw("__attribute__((noinline, cold)) "
             "static long glaf_ix_round(double v, long t) "
             "{ double r = v - (double)t; return r > -1.0 && r < 1.0 "
             "? t + (r >= 0.5) - (r <= -0.5) : t; }");
      w_.raw("static long glaf_ix(double v) { long t = (long)v; return "
             "__builtin_expect(!__builtin_islessgreater((double)t, v), 1) "
             "? t : glaf_ix_round(v, t); }");
    }
    if (uses_fault_) {
      // The plan VM fails a loop whose stride is zero: the kernel runs
      // no trip of it and its caller reports the fault.
      w_.raw("static int glaf_fault = 0;");
      w_.raw("static void glaf_zero_stride(void) "
             "{ __atomic_store_n(&glaf_fault, 1, __ATOMIC_RELAXED); }");
    }
    w_.blank();
    if (opt_.host_parallel) {
      for (const std::string& text : split_lines(kHostParallelRuntime)) {
        w_.raw(text);
      }
      w_.blank();
    }
  }

  void emit_file_scope() {
    // Struct typedefs for AoS struct grids.
    for (const Grid& g : p_.grids) {
      if (g.is_struct() && !opt_.soa_layout) {
        w_.raw(cat("typedef struct ", g.name, "_s {"));
        for (const Field& f : g.fields) {
          w_.raw(cat("  ", ctype(f.type), " ", f.name, ";"));
        }
        w_.raw(cat("} ", g.name, "_t;"));
      }
    }
    // COMMON blocks: gfortran interop — one extern struct per block.
    std::map<std::string, std::vector<const Grid*>> commons;
    for (const GridId id : p_.global_grids) {
      const Grid& g = p_.grid(id);
      if (g.external == ExternalKind::kCommon) {
        commons[g.common_block].push_back(&g);
      }
    }
    for (const auto& [block, grids] : commons) {
      w_.raw(cat("/* COMMON /", block, "/ (FORTRAN interop layout) */"));
      w_.raw(cat("extern struct ", block, "_common {"));
      for (const Grid* g : grids) {
        w_.raw(cat("  ", global_decl(*g), ";"));
      }
      w_.raw(cat("} ", block, "_;"));
    }
    // Existing-module variables: storage provided by the legacy objects.
    // TYPE elements are members of one extern struct per parent variable,
    // declared where its first element is.
    std::map<std::string, std::vector<const Grid*>> type_members;
    for (const GridId id : p_.global_grids) {
      const Grid& g = p_.grid(id);
      if (g.external == ExternalKind::kModule && !g.type_parent.empty()) {
        type_members[g.type_parent].push_back(&g);
      }
    }
    for (const GridId id : p_.global_grids) {
      const Grid& g = p_.grid(id);
      if (g.external != ExternalKind::kModule) continue;
      if (g.type_parent.empty()) {
        w_.raw(cat("extern ", global_decl(g), "; /* from module ",
                   g.external_module, " */"));
        continue;
      }
      auto& members = type_members[g.type_parent];
      if (members.empty()) continue;  // declared with an earlier element
      w_.raw(cat("/* TYPE variable ", g.type_parent, " from module ",
                 g.external_module, " */"));
      w_.raw(cat("extern struct ", g.type_parent, "_type {"));
      for (const Grid* m : members) w_.raw(cat("  ", global_decl(*m), ";"));
      w_.raw(cat("} ", g.type_parent, ";"));
      members.clear();
    }
    // Owned globals: static file-scope definitions (§3.3 module scope).
    for (const GridId id : p_.global_grids) {
      const Grid& g = p_.grid(id);
      if (g.external != ExternalKind::kNone) continue;
      if (opt_.emit_comments && !g.comment.empty()) {
        w_.raw(cat("/* ", g.comment, " */"));
      }
      if (binds(g)) {
        w_.raw(cat("static ", global_decl(g), ";"));
      } else {
        emit_definition(g, /*file_scope=*/true);
      }
    }
    if (opt_.enable_openmp) {
      std::vector<std::string> names;
      for (const GridId id : p_.global_grids) {
        if (threadprivate(id)) names.push_back(p_.grid(id).name);
      }
      if (!names.empty()) {
        w_.raw(cat("#pragma omp threadprivate(", join(names, ", "), ")"));
      }
    }
    w_.blank();
  }

  /// Subprograms a kept directive's loop calls, at any depth, run on
  /// every thread of the region; the grids that loop updates atomically
  /// are updated atomically in them too (OpenMP emission only).
  void find_region_callees() {
    std::vector<std::string> pending;
    const auto calls_of = [&](const Step& step) {
      const std::vector<std::string> callees =
          collect_step_accesses(p_, step, analysis_.effects).callees;
      for (const std::string& callee : callees) {
        if (region_callees_.insert(callee).second) {
          pending.push_back(callee);
        }
      }
      return !callees.empty();
    };
    for (const Function& fn : p_.functions) {
      const auto it = analysis_.verdicts.find(fn.id);
      if (it == analysis_.verdicts.end()) continue;
      for (std::size_t s = 0; s < fn.steps.size() && s < it->second.size();
           ++s) {
        const StepVerdict& v = it->second[s];
        if (keep_directive(opt_.policy, v) && calls_of(fn.steps[s])) {
          region_atomics_.insert(v.atomic_grids.begin(),
                                 v.atomic_grids.end());
        }
      }
    }
    while (!pending.empty()) {
      const Function* fn = p_.find_function(pending.back());
      pending.pop_back();
      if (fn == nullptr) continue;
      for (const Step& step : fn->steps) calls_of(step);
    }
  }

  /// A SAVE'd local of a subprogram that runs inside a parallel region
  /// is per thread (§4.2.1 pairs the SAVE attribute with thread-private
  /// declarations): a shared static would race between the calls.
  void emit_threadprivate_save(const std::string& names) {
    if (in_region_callee()) {
      w_.raw(cat("#pragma omp threadprivate(", names, ")"));
    }
  }

  bool in_region_callee() const {
    return current_fn_ != nullptr && region_callees_.count(current_fn_->name);
  }

  /// Whether `id` is an owned global that a kept directive privatizes
  /// (the §4.2.1 tweaks make module-scope intermediates private). The
  /// loop's callees name such a grid too, and a PRIVATE clause does not
  /// reach them, so every thread gets its own copy through THREADPRIVATE
  /// instead, and emit_omp_pragma leaves it out of the clause.
  bool threadprivate(GridId id) const {
    if (p_.grid(id).external != ExternalKind::kNone ||
        std::find(p_.global_grids.begin(), p_.global_grids.end(), id) ==
            p_.global_grids.end()) {
      return false;
    }
    for (const auto& [fn, verdicts] : analysis_.verdicts) {
      for (const StepVerdict& v : verdicts) {
        if (keep_directive(opt_.policy, v) && id_in(v.private_grids, id)) {
          return true;
        }
      }
    }
    return false;
  }

  /// Whether `g` is a global array the caller binds (binds_global_array).
  bool binds(const Grid& g) const {
    return !g.dims.empty() && !g.is_struct() &&
           binds_global_array(g.elem_type, opt_.numeric_model);
  }

  /// File-scope declarator of a non-struct global without its storage
  /// class: "double a[16]", or a bound array's "double* restrict a".
  std::string global_decl(const Grid& g) const {
    if (binds(g)) return bound_array_decl(ctype(g.elem_type), g.name);
    return cat(ctype(g.elem_type), " ", g.name, flat_array_suffix(g));
  }

  /// Fold an extent, resolving never-written global size parameters.
  std::optional<std::int64_t> fold_extent(const ExprPtr& extent) const {
    const auto v = fold_with_globals(p_, *extent);
    if (!v) return std::nullopt;
    return static_cast<std::int64_t>(value_as_double(*v));
  }

  /// "[4*4]" for constant extents, "" for scalars. Symbolic global extents
  /// fall back to pointers.
  std::string flat_array_suffix(const Grid& g) const {
    if (g.dims.empty()) return "";
    std::int64_t total = 1;
    for (const Dim& d : g.dims) {
      const auto c = fold_extent(d.extent);
      if (!c) return "";  // handled by pointer path
      total *= *c;
    }
    return cat("[", total, "]");
  }

  bool has_constant_extents(const Grid& g) const {
    return std::all_of(g.dims.begin(), g.dims.end(), [this](const Dim& d) {
      return fold_extent(d.extent).has_value();
    });
  }

  /// Whether `g` is an array of the function being emitted whose extents
  /// are known only at run time: they are captured into longs when it is
  /// allocated (locals) or entered (parameters), as the plan VM's
  /// instances keep the extents they were built with.
  bool captures_extents(const Grid& g) const {
    return !g.dims.empty() && !g.is_struct() && current_fn_ != nullptr &&
           is_local_or_param(*current_fn_, g.id) && !has_constant_extents(g);
  }

  static std::string extent_var(const Grid& g, std::size_t d) {
    return cat("glaf_e", d, "_", g.name);
  }

  /// Extent of dimension `d` as the address rule sees it: the folded
  /// constant, the captured long, or (a lazily allocated file-scope
  /// array of the typed back-end) the extent expression itself.
  std::string extent_text(const Grid& g, std::size_t d) const {
    if (const auto c = fold_extent(g.dims[d].extent)) return cat(*c);
    if (captures_extents(g)) return extent_var(g, d);
    return index_text(*g.dims[d].extent);
  }

  /// `glaf_e<d>_<g> = <extent>` for every extent of `g` that does not
  /// fold, in dimension order.
  std::vector<std::string> extent_inits(const Grid& g) const {
    std::vector<std::string> inits;
    for (std::size_t d = 0; d < g.dims.size(); ++d) {
      if (fold_extent(g.dims[d].extent)) continue;
      inits.push_back(cat(extent_var(g, d), " = ",
                          index_text(*g.dims[d].extent)));
    }
    return inits;
  }

  std::string elem_count_expr(const Grid& g) const {
    std::vector<std::string> parts;
    parts.reserve(g.dims.size());
    for (std::size_t d = 0; d < g.dims.size(); ++d) {
      parts.push_back(cat("(", extent_text(g, d), ")"));
    }
    return parts.empty() ? "1" : join(parts, " * ");
  }

  std::string elem_type_of(const Grid& g) const {
    return ctype(g.is_struct() && !opt_.soa_layout ? DataType::kVoid
                                                    : g.elem_type);
  }

  /// Emit a grid definition (file scope or local). Arrays with constant
  /// extents become plain arrays; symbolic extents become malloc'd
  /// pointers — freed at the end of the function unless SAVE'd, which is
  /// exactly the reallocation-cost mechanism of §4.2.1.
  void emit_definition(const Grid& g, bool file_scope) {
    const std::string storage = file_scope ? "static " : "";
    if (g.is_struct()) {
      if (opt_.soa_layout) {
        for (const Field& f : g.fields) {
          w_.line(cat(storage, ctype(f.type), " ", g.name, "_", f.name,
                      flat_array_suffix(g), ";"));
        }
      } else {
        w_.line(cat(storage, g.name, "_t ", g.name, flat_array_suffix(g),
                    ";"));
      }
      return;
    }
    const bool save = g.save_attr || (!file_scope && opt_.save_temporaries);
    // The interpreter zero-fills every grid instance before applying
    // initializers; locals must match (file-scope/static storage is
    // already zeroed by the C runtime).
    const bool needs_zero = !file_scope && !save;
    if (g.dims.empty()) {
      std::string init =
          g.init_data.empty() ? (needs_zero ? " = 0" : "")
                              : cat(" = ", c_literal(g.init_data[0]));
      w_.line(cat(storage, save && !file_scope ? "static " : "",
                  ctype(g.elem_type), " ", g.name, init, ";"));
      if (save && !file_scope) emit_threadprivate_save(g.name);
      return;
    }
    if (has_constant_extents(g)) {
      std::string init;
      if (!g.init_data.empty()) {
        std::vector<std::string> vals;
        vals.reserve(g.init_data.size());
        for (const Value& v : g.init_data) vals.push_back(c_literal(v));
        init = cat(" = {", join(vals, ", "), "}");
      } else if (needs_zero) {
        init = " = {0}";
      }
      w_.line(cat(storage, save && !file_scope ? "static " : "",
                  ctype(g.elem_type), " ", g.name, flat_array_suffix(g),
                  init, ";"));
      if (save && !file_scope) emit_threadprivate_save(g.name);
      return;
    }
    // Symbolic extents.
    if (file_scope) {
      // Lazily-allocated file-scope array: pointer definition here, a
      // guarded malloc at the top of each function that touches it.
      w_.raw(cat("static ", ptr_decl(ctype(g.elem_type)), g.name,
                 " = 0; /* allocated on first use */"));
      lazy_globals_.insert(g.id);
      return;
    }
    const std::string alloc = cat(g.name, " = (", ctype(g.elem_type),
                                  "*)calloc(", elem_count_expr(g), ", sizeof(",
                                  ctype(g.elem_type), "));");
    const std::vector<std::string> inits = extent_inits(g);
    if (save) {
      // No-reallocation pattern; the extents are those of the first
      // allocation.
      std::vector<std::string> vars;
      for (std::size_t d = 0; d < g.dims.size(); ++d) {
        if (!fold_extent(g.dims[d].extent)) vars.push_back(extent_var(g, d));
      }
      w_.line(cat("static long ", join(vars, ", "), ";"));
      w_.line(cat("static ", ptr_decl(ctype(g.elem_type)), g.name, " = 0;"));
      vars.push_back(g.name);
      emit_threadprivate_save(join(vars, ", "));
      w_.line(cat("if (!", g.name, ") { ", join(inits, "; "), "; ", alloc,
                  " }"));
    } else {
      // calloc, not malloc: the interpreter's instances start zeroed.
      w_.line(cat("const long ", join(inits, ", "), ";"));
      w_.line(cat(ptr_decl(ctype(g.elem_type)), alloc));
      frees_.push_back(g.name);
    }
  }

  // ---- expressions ---------------------------------------------------------

  /// An affine combination of loop indices and integer literals: exact
  /// in long arithmetic, and unchanged while the loops inside it run.
  static bool affine_index(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kIndex:
        return true;
      case Expr::Kind::kLiteral:
        return std::holds_alternative<std::int64_t>(e.literal);
      case Expr::Kind::kBinary:
        return (e.bop == BinOp::kAdd || e.bop == BinOp::kSub ||
                e.bop == BinOp::kMul) &&
               affine_index(*e.args[0]) && affine_index(*e.args[1]);
      case Expr::Kind::kUnary:
        return e.uop == UnOp::kNeg && affine_index(*e.args[0]);
      default:
        return false;
    }
  }

  /// Whether `e` contains an INTEGER power, the one INTEGER operator
  /// whose value can be fractional (m**(-1)).
  bool has_int_pow(const Expr& e) const {
    if (e.kind == Expr::Kind::kBinary && e.bop == BinOp::kPow &&
        infer_type(p_, e) == DataType::kInt) {
      return true;
    }
    return std::any_of(e.args.begin(), e.args.end(),
                       [this](const ExprPtr& a) { return has_int_pow(*a); });
  }

  /// A subscript or loop bound as a long, by the plan VM's rule
  /// (vm.cpp to_index): the value rounded half away from zero. Affine
  /// index expressions, and typed INTEGER expressions without a power,
  /// are already exact longs and skip the conversion.
  std::string index_text(const Expr& e) const {
    const bool exact =
        affine_index(e) || (!interp_math() &&
                            infer_type(p_, e) == DataType::kInt &&
                            !has_int_pow(e));
    const bool saved = index_arith_;
    index_arith_ = !exact;
    const std::string text = expr(e);
    index_arith_ = saved;
    if (exact) return text;
    uses_ix_ = true;
    return cat("glaf_ix(", text, ")");
  }

  /// The stride of `loop` when it folds to a constant (1 when absent),
  /// rounded like any loop bound. `globals` folds never-written globals
  /// too: OpenMP's canonical loop form needs the stride's sign.
  std::optional<std::int64_t> stride_value(const LoopSpec& loop,
                                           bool globals) const {
    if (!loop.stride) return 1;
    const auto v = globals ? fold_with_globals(p_, *loop.stride)
                           : fold_constant(*loop.stride);
    if (!v) return std::nullopt;
    return std::llround(value_as_double(*v));
  }

  static std::string step_text(const std::string& v, std::int64_t st) {
    if (st == 1) return cat("++", v);
    if (st == -1) return cat("--", v);
    return cat(v, " += ", st);
  }

  /// Opens one DO loop by the plan VM's rule (vm.cpp run_loops) and
  /// returns the braces it opened. Begin, end and stride are evaluated
  /// once, at loop entry and in that order, into longs, and the stride's
  /// sign picks the test. An affine bound cannot change while the loop
  /// runs and stays in the head; any other is held in a block-local
  /// long. A stride that is not a nonzero constant is checked: a zero one
  /// sets glaf_fault and runs no trip.
  int open_loop(const LoopSpec& loop) {
    const std::string& v = loop.index_var;
    std::string begin = index_text(*loop.begin);
    std::string end = index_text(*loop.end);
    const std::optional<std::int64_t> st = stride_value(loop, false);
    const bool checked = !st || *st == 0;
    std::vector<std::string> inits;
    if (checked || !affine_index(*loop.end)) {
      if (!affine_index(*loop.begin)) {
        inits.push_back(cat("glaf_lo_", v, " = ", begin));
        begin = cat("glaf_lo_", v);
      }
      if (!affine_index(*loop.end)) {
        inits.push_back(cat("glaf_hi_", v, " = ", end));
        end = cat("glaf_hi_", v);
      }
    }
    const std::string s = cat("glaf_st_", v);
    if (checked) inits.push_back(cat(s, " = ", index_text(*loop.stride)));
    int opened = 1;
    if (!inits.empty()) {
      w_.line("{");
      w_.indent();
      w_.line(cat("const long ", join(inits, ", "), ";"));
      ++opened;
    }
    if (checked) {
      uses_fault_ = true;
      w_.line(cat("if (", s, " == 0) glaf_zero_stride();"));
      w_.line(cat("for (", v, " = ", begin, "; ", s, " > 0 ? ", v, " <= ",
                  end, " : ", s, " < 0 && ", v, " >= ", end, "; ", v, " += ",
                  s, ") {"));
    } else {
      w_.line(cat("for (", v, " = ", begin, "; ", v,
                  *st > 0 ? " <= " : " >= ", end, "; ", step_text(v, *st),
                  ") {"));
    }
    w_.indent();
    return opened;
  }

  /// The head of a loop an OpenMP directive covers: the canonical form,
  /// testing by the sign of its folded stride (emit_step runs the step
  /// serially unless that is known and nonzero). A bound that reads
  /// grids is evaluated before the directive into a long `hoisted`
  /// declares, since inside it a reduction target names the private
  /// copy; one that reads an outer index (collapsed nests) stays put.
  std::string omp_loop_line(const LoopSpec& loop,
                            std::vector<std::string>* hoisted) const {
    const std::string& v = loop.index_var;
    const auto bound = [&](const Expr& e, const char* role) {
      const std::string text = index_text(e);
      if (affine_index(e) || uses_index(e)) return text;
      hoisted->push_back(cat("glaf_", role, "_", v, " = ", text));
      return cat("glaf_", role, "_", v);
    };
    const std::string begin = bound(*loop.begin, "lo");
    const std::string end = bound(*loop.end, "hi");
    const std::int64_t st = *stride_value(loop, true);
    return cat("for (", v, " = ", begin, "; ", v, st > 0 ? " <= " : " >= ",
               end, "; ", step_text(v, st), ") {");
  }

  static bool uses_index(const Expr& e) {
    return e.kind == Expr::Kind::kIndex ||
           std::any_of(e.args.begin(), e.args.end(),
                       [](const ExprPtr& a) { return uses_index(*a); });
  }

  /// Row-major offset in long over the allocated extents:
  /// (((s0) * (e1) + (s1)) * (e2) + (s2))...
  std::string flat_index(const Grid& g, const std::vector<ExprPtr>& subs) const {
    std::string out = cat("(", index_text(*subs[0]), ")");
    for (std::size_t d = 1; d < subs.size(); ++d) {
      out = cat("(", out, " * (", extent_text(g, d), ") + (",
                index_text(*subs[d]), "))");
    }
    return out;
  }

  /// The C spelling of a grid's storage: COMMON members live inside the
  /// interop struct, TYPE elements inside their parent variable. Range
  /// functions redirect reduction targets to per-rank scratch through
  /// `name_overrides_`.
  std::string base_name(const Grid& g) const {
    const auto it = name_overrides_.find(g.id);
    if (it != name_overrides_.end()) return it->second;
    return c_storage_name(g);
  }

  std::string access_text(GridId id, const std::string& field,
                          const std::vector<ExprPtr>& subs) const {
    const Grid& g = p_.grid(id);
    std::string base = base_name(g);
    if (!field.empty() && opt_.soa_layout) base = cat(g.name, "_", field);
    if (subs.empty()) return field.empty() || opt_.soa_layout
                                 ? base
                                 : cat(base, ".", field);
    std::string out = cat(base, "[", flat_index(g, subs), "]");
    if (!field.empty() && !opt_.soa_layout) out += cat(".", field);
    return out;
  }

  std::string expr(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return c_literal(e.literal);
      case Expr::Kind::kIndex:
        return e.index_name;
      case Expr::Kind::kGridRead: {
        const Grid& g = p_.grid(e.grid);
        if (e.args.empty() && !g.is_scalar()) return base_name(g);  // whole grid
        return access_text(e.grid, e.field, e.args);
      }
      case Expr::Kind::kBinary: {
        if (e.bop == BinOp::kPow) {
          const DataType t = promote(infer_type(p_, *e.args[0]),
                                     infer_type(p_, *e.args[1]));
          const std::string text =
              cat("pow(", expr(*e.args[0]), ", ", expr(*e.args[1]), ")");
          // Interpreter-exact mode leaves the pow() result untouched (the
          // tree-walk evaluator only truncates at INTEGER stores). The
          // typed back-end must bring an Int-typed power back to long or
          // it poisons enclosing % operands and subscripts.
          if (interp_arith()) return text;
          return t == DataType::kInt ? cat("(long)", text) : text;
        }
        if (e.bop == BinOp::kMod) {
          const DataType t = promote(infer_type(p_, *e.args[0]),
                                     infer_type(p_, *e.args[1]));
          if (t == DataType::kInt && !interp_arith()) {
            return cat("(", expr(*e.args[0]), " % ", expr(*e.args[1]), ")");
          }
          // fmod truncates toward zero exactly like C's % on integral
          // values, and is the interpreter's MOD for every type.
          return cat("fmod(", expr(*e.args[0]), ", ", expr(*e.args[1]), ")");
        }
        if (e.bop == BinOp::kDiv && interp_arith() &&
            infer_type(p_, *e.args[0]) == DataType::kInt &&
            infer_type(p_, *e.args[1]) == DataType::kInt) {
          // Integer division truncates; with double storage that must be
          // explicit (the typed back-end gets it from long division).
          return cat("trunc((", expr(*e.args[0]), ") / (", expr(*e.args[1]),
                     "))");
        }
        return cat("(", expr(*e.args[0]), " ", c_binop(e.bop), " ",
                   expr(*e.args[1]), ")");
      }
      case Expr::Kind::kUnary:
        return e.uop == UnOp::kNeg ? cat("(-", expr(*e.args[0]), ")")
                                   : cat("(!", expr(*e.args[0]), ")");
      case Expr::Kind::kCall:
        return call_text(e);
    }
    return "?";
  }

  std::string call_text(const Expr& e) const {
    const LibFunc* lib = find_lib_func(e.callee);
    std::vector<std::string> args;
    args.reserve(e.args.size());
    if (lib != nullptr && lib->whole_grid) {
      // SUM/MINVAL/MAXVAL over a whole grid: pointer + element count. Int
      // grids use the long-typed helpers (a const double* helper over long
      // storage would reinterpret the bytes).
      const Expr& a = *e.args[0];
      const Grid& g = p_.grid(a.grid);
      // Interpreter-exact mode stores Int grids as doubles and leaves
      // whole-grid reductions untruncated, exactly like the tree-walk
      // evaluator's whole-grid path.
      const std::string helper =
          (g.elem_type == DataType::kInt && !interp_math())
              ? cat(lib->c_name, "_l")
              : lib->c_name;
      return cat(helper, "(", base_name(g), ", ", elem_count_expr(g), ")");
    }
    for (const ExprPtr& a : e.args) args.push_back(expr(*a));
    if (lib != nullptr) {
      if (lib->name == "INT") {
        return interp_arith() ? cat("trunc(", args[0], ")")
                              : cat("(long)(", args[0], ")");
      }
      if (lib->name == "NINT" && interp_arith()) {
        return cat("nearbyint(", args[0], ")");
      }
      std::string out;
      if (lib->name == "MIN" || lib->name == "MAX") {
        // Variadic: fold into nested binary helpers, left-associatively —
        // the same order the interpreter reduces, so NaN handling agrees.
        out = args[0];
        for (std::size_t i = 1; i < args.size(); ++i) {
          out = cat(lib->c_name, "(", out, ", ", args[i], ")");
        }
      } else {
        out = cat(lib->c_name, "(", join(args, ", "), ")");
      }
      // Same-as-argument helpers are double-valued in C; an Int-typed call
      // (ABS of an Int, MIN of two Ints, ...) must be a long expression or
      // it cannot feed %, subscripts, or long comparisons. The values are
      // exact integers, so the cast loses nothing.
      if (lib->result == LibResult::kSameAsArg &&
          infer_type(p_, e) == DataType::kInt) {
        out = interp_arith() ? cat("trunc(", out, ")")
                             : cat("(long)(", out, ")");
      }
      return out;
    }
    return cat(e.callee, "(", join(args, ", "), ")");
  }

  // ---- host-parallel range functions ------------------------------------

  /// Every grid referenced anywhere in a step (bounds, subscripts, body).
  std::set<GridId> step_grids(const Step& step) const {
    std::set<GridId> ids;
    const auto scan = [&](const ExprPtr& e) {
      if (!e) return;
      visit_exprs(e, [&](const Expr& node) {
        if (node.kind == Expr::Kind::kGridRead) ids.insert(node.grid);
      });
    };
    for (const LoopSpec& loop : step.loops) {
      scan(loop.begin);
      scan(loop.end);
      scan(loop.stride);
    }
    visit_stmts(step.body, [&](const Stmt& s) {
      switch (s.kind) {
        case Stmt::Kind::kAssign:
          ids.insert(s.lhs.grid);
          for (const ExprPtr& sub : s.lhs.subscripts) scan(sub);
          scan(s.rhs);
          break;
        case Stmt::Kind::kIf:
          for (const IfArm& arm : s.arms) scan(arm.cond);
          break;
        case Stmt::Kind::kCallSub:
          for (const ExprPtr& a : s.args) scan(a);
          break;
        case Stmt::Kind::kReturn:
          scan(s.ret);
          break;
      }
    });
    return ids;
  }

  std::size_t band_depth(const Step& step, const StepVerdict& v) const {
    return std::min<std::size_t>(
        static_cast<std::size_t>(std::max(v.collapse, 1)), step.loops.size());
  }

  bool is_local_or_param(const Function& fn, GridId id) const {
    return std::find(fn.locals.begin(), fn.locals.end(), id) !=
               fn.locals.end() ||
           std::find(fn.params.begin(), fn.params.end(), id) !=
               fn.params.end();
  }

  static bool id_in(const std::vector<GridId>& v, GridId id) {
    return std::find(v.begin(), v.end(), id) != v.end();
  }

  bool is_reduction_target(const StepVerdict& v, GridId id) const {
    for (const ReductionClause& r : v.reductions) {
      if (r.grid == id) return true;
    }
    return false;
  }

  /// True when the step is emitted as a host-dispatched range function:
  /// bit-exact, its directive kept under the active policy, and every
  /// referenced grid expressible in the flat unit (no structs, and no
  /// arrays whose extents the calling function captures at run time).
  bool step_ranged(const Step& step, const StepVerdict& v) const {
    if (!opt_.host_parallel) return false;
    if (!v.has_loop || !v.bit_exact) return false;
    if (!keep_directive(opt_.policy, v)) return false;
    for (const GridId id : step_grids(step)) {
      const Grid& g = p_.grid(id);
      if (g.is_struct() || !has_constant_extents(g)) return false;
    }
    return true;
  }

  /// Function-scope grids the range function reaches through its context
  /// block: referenced locals and parameters, minus private copies and
  /// reduction targets (those rebind to fresh storage / scratch). Globals
  /// are file-scope inside this unit and need no carrying.
  std::vector<GridId> carried_grids(const Function& fn, const Step& step,
                                    const StepVerdict& v) const {
    std::vector<GridId> out;
    for (const GridId id : step_grids(step)) {
      if (!is_local_or_param(fn, id)) continue;
      if (id_in(v.private_grids, id)) continue;
      if (is_reduction_target(v, id)) continue;
      out.push_back(id);
    }
    return out;
  }

  /// Element count of a grid as a long-typed C expression.
  std::string elem_count_long(const Grid& g) const {
    if (g.dims.empty()) return "1";
    return cat("(long)(", elem_count_expr(g), ")");
  }

  /// A fresh, zero-initialized private copy of `g` (the interpreter's
  /// per-rank make_instance semantics, initializers included).
  void emit_private_local(const Grid& g, std::vector<std::string>* frees) {
    if (g.dims.empty()) {
      const std::string init =
          g.init_data.empty() ? "0" : c_literal(g.init_data[0]);
      w_.line(cat(ctype(g.elem_type), " ", g.name, " = ", init, ";"));
      return;
    }
    if (has_constant_extents(g)) {
      std::string init = " = {0}";
      if (!g.init_data.empty()) {
        std::vector<std::string> vals;
        vals.reserve(g.init_data.size());
        for (const Value& v : g.init_data) vals.push_back(c_literal(v));
        init = cat(" = {", join(vals, ", "), "}");
      }
      w_.line(cat(ctype(g.elem_type), " ", g.name, flat_array_suffix(g),
                  init, ";"));
      return;
    }
    w_.line(cat(ctype(g.elem_type), "* ", g.name, " = (", ctype(g.elem_type),
                "*)calloc(", elem_count_expr(g), ", sizeof(",
                ctype(g.elem_type), "));"));
    frees->push_back(g.name);
  }

  /// Firstprivate array: a per-rank copy of the shared storage.
  void emit_firstprivate_copy(const Grid& g, std::vector<std::string>* frees) {
    if (has_constant_extents(g)) {
      w_.line(cat(ctype(g.elem_type), " ", g.name, flat_array_suffix(g),
                  ";"));
      w_.line(cat("memcpy(", g.name, ", glaf_c->", g.name, ", sizeof(",
                  g.name, "));"));
      return;
    }
    const std::string bytes =
        cat(elem_count_expr(g), " * sizeof(", ctype(g.elem_type), ")");
    w_.line(cat(ctype(g.elem_type), "* ", g.name, " = (", ctype(g.elem_type),
                "*)malloc((size_t)(", bytes, "));"));
    w_.line(cat("memcpy(", g.name, ", glaf_c->", g.name, ", (size_t)(",
                bytes, "));"));
    frees->push_back(g.name);
  }

  /// One dispatch region in a function's plan: a span of steps, whether
  /// it dispatches through the range ABI, and its entry-point name.
  struct RegionInfo {
    FusedRegion span;
    bool ranged = false;
    std::size_t ordinal = 0;  ///< region index within the function
  };

  std::string region_stem(const Function& fn, const RegionInfo& info) const {
    return cat("glaf_rg_", fn.name, "_", info.ordinal);
  }

  /// Group every function's steps into dispatch regions, maximal fusable
  /// runs of ranged steps. Also records the ranged regions as
  /// GeneratedCode metadata.
  void plan_regions() {
    static const std::vector<StepVerdict> kNoVerdicts;
    for (const Function& fn : p_.functions) {
      const auto it = analysis_.verdicts.find(fn.id);
      const std::vector<StepVerdict>& verdicts =
          it != analysis_.verdicts.end() ? it->second : kNoVerdicts;
      std::vector<bool> ranged(fn.steps.size(), false);
      for (std::size_t s = 0; s < fn.steps.size() && s < verdicts.size();
           ++s) {
        ranged[s] = step_ranged(fn.steps[s], verdicts[s]);
      }
      const std::vector<FusedRegion> spans =
          plan_fused_regions(p_, fn, verdicts, ranged, effects_);
      std::vector<RegionInfo>& infos = plan_[fn.id];
      for (std::size_t r = 0; r < spans.size(); ++r) {
        RegionInfo info;
        info.span = spans[r];
        info.ordinal = r;
        info.ranged = ranged[info.span.first_step];
        if (info.ranged) {
          regions_.push_back(ParallelRegion{fn.name, info.span.first_step,
                                            info.span.step_count});
        }
        infos.push_back(info);
      }
    }
  }

  void emit_range_units() {
    for (const Function& fn : p_.functions) {
      const auto pit = plan_.find(fn.id);
      const auto vit = analysis_.verdicts.find(fn.id);
      if (pit == plan_.end() || vit == analysis_.verdicts.end()) continue;
      for (const RegionInfo& info : pit->second) {
        if (!info.ranged) continue;
        emit_region_unit(fn, info, vit->second);
      }
    }
  }

  /// Context-struct field suffix for one member step: every per-step
  /// band array and scratch pointer carries the step index.
  static std::string band_suffix(std::size_t sidx) { return cat(sidx, "_"); }

  /// The region entry point: one context struct carrying every member
  /// step's band descriptors, the union of their shared grids, and
  /// per-step reduction scratch, plus a range function that runs each
  /// member step's chunk back to back — one fork/join for the whole run.
  void emit_region_unit(const Function& fn, const RegionInfo& info,
                        const std::vector<StepVerdict>& verdicts) {
    const std::string stem = region_stem(fn, info);
    const std::size_t lo = info.span.first_step;
    const std::size_t hi = lo + info.span.step_count;

    w_.raw(cat("struct ", stem, "_ctx {"));
    std::set<GridId> carried_union;
    for (std::size_t s = lo; s < hi; ++s) {
      const Step& step = fn.steps[s];
      const StepVerdict& v = verdicts[s];
      const std::string bs = band_suffix(s);
      const std::size_t depth = band_depth(step, v);
      w_.raw(cat("  long glaf_b", bs, "[", depth, "]; long glaf_s", bs, "[",
                 depth, "]; long glaf_t", bs, "[", depth,
                 "];  /* band begin/stride/trips */"));
      for (const GridId id : carried_grids(fn, step, v)) {
        if (!carried_union.insert(id).second) continue;
        const Grid& g = p_.grid(id);
        w_.raw(cat("  ", ctype(g.elem_type), "* ", g.name, ";"));
      }
      for (std::size_t r = 0; r < v.reductions.size(); ++r) {
        w_.raw(cat("  double* glaf_red", bs, r,
                   ";  /* nranks x elems scratch */"));
      }
    }
    w_.raw("};");

    w_.raw(cat("static void ", stem, "_range(void* glaf_vctx, long glaf_lo, "
               "long glaf_hi, long glaf_rank) {"));
    w_.indent();
    w_.line(cat("struct ", stem, "_ctx* glaf_c = (struct ", stem,
                "_ctx*)glaf_vctx;"));
    for (std::size_t s = lo; s < hi; ++s) {
      w_.line("{");
      w_.indent();
      emit_step_block(fn, fn.steps[s], verdicts[s], band_suffix(s));
      w_.dedent();
      w_.line("}");
    }
    w_.dedent();
    w_.raw("}");
    w_.blank();
  }

  /// Body of one member step inside a region's range function: index
  /// declarations, context rebinds, private/firstprivate copies,
  /// reduction scratch, then the banded loops over [glaf_lo, glaf_hi).
  void emit_step_block(const Function& fn, const Step& step,
                       const StepVerdict& v, const std::string& bs) {
    const std::size_t depth = band_depth(step, v);
    const int owner = v.exact_partition_dim;
    const std::vector<GridId> carried = carried_grids(fn, step, v);
    {
      std::vector<std::string> vars;
      for (const LoopSpec& loop : step.loops) vars.push_back(loop.index_var);
      vars.push_back("glaf_k");
      if (owner < 0 && depth > 1) {
        vars.push_back("glaf_r");
        vars.push_back("glaf_w");
        for (std::size_t d = 0; d < depth; ++d) vars.push_back(cat("glaf_q", d));
      }
      for (std::size_t d = 0; owner >= 0 && d < depth; ++d) {
        if (static_cast<int>(d) != owner) vars.push_back(cat("glaf_q", d));
      }
      w_.line(cat("long ", join(vars, ", "), ";"));
    }
    for (const GridId id : carried) {
      const Grid& g = p_.grid(id);
      if (id_in(v.firstprivate_grids, id) && !g.dims.empty()) continue;
      if (g.dims.empty()) {
        // Scalars are read-only here (a written scalar is private or a
        // reduction), so a by-value rebind suffices — and doubles as the
        // firstprivate copy-in for scalar grids.
        w_.line(cat(ctype(g.elem_type), " ", g.name, " = *glaf_c->", g.name,
                    ";"));
      } else {
        w_.line(cat(ctype(g.elem_type), "* ", g.name, " = glaf_c->", g.name,
                    ";"));
      }
    }
    std::vector<std::string> frees;
    for (const GridId id : v.private_grids) {
      emit_private_local(p_.grid(id), &frees);
    }
    for (const GridId id : v.firstprivate_grids) {
      if (!p_.grid(id).dims.empty()) {
        emit_firstprivate_copy(p_.grid(id), &frees);
      }
    }
    for (std::size_t r = 0; r < v.reductions.size(); ++r) {
      const Grid& g = p_.grid(v.reductions[r].grid);
      w_.line(cat("double* glaf_redl", r, " = glaf_c->glaf_red", bs, r,
                  " + glaf_rank * ", elem_count_long(g), ";"));
      name_overrides_[g.id] =
          g.dims.empty() ? cat("(*glaf_redl", r, ")") : cat("glaf_redl", r);
    }
    w_.blank();

    emit_range_loops(fn, step, depth, owner, bs);

    for (const std::string& name : frees) w_.line(cat("free(", name, ");"));
    for (const ReductionClause& r : v.reductions) {
      name_overrides_.erase(r.grid);
    }
  }

  void emit_range_loops(const Function& fn, const Step& step,
                        std::size_t depth, int owner, const std::string& bs) {
    int open = 0;
    std::string carry;  ///< flat banding: advance the counters a row
    if (owner >= 0) {
      // Ownership banding: [glaf_lo, glaf_hi) covers dimension `owner`
      // alone; the other banded dimensions run their full trip counts, so
      // each rank updates only elements it owns, in serial program order.
      for (std::size_t d = 0; d < depth; ++d) {
        const std::string& var = step.loops[d].index_var;
        if (static_cast<int>(d) == owner) {
          w_.line("for (glaf_k = glaf_lo; glaf_k < glaf_hi; ++glaf_k) {");
          w_.indent();
          w_.line(cat(var, " = glaf_c->glaf_b", bs, "[", d,
                      "] + glaf_k * glaf_c->glaf_s", bs, "[", d, "];"));
        } else {
          w_.line(cat("for (glaf_q", d, " = 0; glaf_q", d,
                      " < glaf_c->glaf_t", bs, "[", d, "]; ++glaf_q", d,
                      ") {"));
          w_.indent();
          w_.line(cat(var, " = glaf_c->glaf_b", bs, "[", d, "] + glaf_q", d,
                      " * glaf_c->glaf_s", bs, "[", d, "];"));
        }
        ++open;
      }
    } else if (depth == 1) {
      w_.line("for (glaf_k = glaf_lo; glaf_k < glaf_hi; ++glaf_k) {");
      w_.indent();
      ++open;
      w_.line(cat(step.loops[0].index_var, " = glaf_c->glaf_b", bs,
                  "[0] + glaf_k * glaf_c->glaf_s", bs, "[0];"));
    } else {
      // Flat banding: [glaf_lo, glaf_hi) indexes the collapsed iteration
      // space. Unflatten glaf_lo once (row-major) into the trip counters
      // glaf_q<d>, then walk rows: the innermost banded dimension runs as
      // a plain counted loop over the part of its row inside the chunk
      // (partial first and last rows), and the outer counters carry at
      // each row end — the body sees the serial loop shape, with no
      // division per trip.
      const std::size_t last = depth - 1;
      const auto field = [&](const char* f, std::size_t d) {
        return cat("glaf_c->glaf_", f, bs, "[", d, "]");
      };
      w_.line("glaf_r = glaf_lo;");
      for (std::size_t d = last; d >= 1; --d) {
        w_.line(cat("glaf_q", d, " = glaf_r % ", field("t", d),
                    "; glaf_r /= ", field("t", d), ";"));
      }
      w_.line("glaf_q0 = glaf_r;");
      w_.line("for (glaf_k = glaf_lo; glaf_k < glaf_hi; glaf_k += glaf_w) {");
      w_.indent();
      for (std::size_t d = 0; d < last; ++d) {
        w_.line(cat(step.loops[d].index_var, " = ", field("b", d),
                    " + glaf_q", d, " * ", field("s", d), ";"));
      }
      w_.line(cat("glaf_w = ", field("t", last), " - glaf_q", last,
                  "; if (glaf_w > glaf_hi - glaf_k) glaf_w = glaf_hi - "
                  "glaf_k;"));
      const std::string& var = step.loops[last].index_var;
      w_.line(cat("for (", var, " = ", field("b", last), " + glaf_q", last,
                  " * ", field("s", last), ", glaf_r = 0; glaf_r < glaf_w; "
                  "++glaf_r, ", var, " += ", field("s", last), ") {"));
      w_.indent();
      carry = cat("glaf_q", last, " = 0;");
      for (std::size_t d = last - 1; d >= 1; --d) {
        carry += cat(" if (++glaf_q", d, " == ", field("t", d), ") { glaf_q",
                     d, " = 0;");
      }
      carry += " ++glaf_q0;";
      carry += std::string(last - 1, '}');
      open += 2;
    }
    for (std::size_t d = depth; d < step.loops.size(); ++d) {
      open += open_loop(step.loops[d]);
    }
    emit_body(step.body, fn, nullptr);
    for (int i = open; i > 0; --i) {
      w_.dedent();
      w_.line("}");
      if (i == 2 && !carry.empty()) w_.line(carry);
    }
  }

  /// The host-side call site of a dispatch region: evaluate every member
  /// step's band descriptors, bind shared grids and reduction scratch,
  /// then dispatch through the profit gate — one fork/join (or one gated
  /// serial run) for the whole region — and combine reductions in step
  /// and rank order.
  void emit_region_call(const Function& fn, const RegionInfo& info,
                        const std::vector<StepVerdict>& verdicts) {
    const std::string stem = region_stem(fn, info);
    const std::size_t lo = info.span.first_step;
    const std::size_t hi = lo + info.span.step_count;
    w_.line("{");
    w_.indent();
    w_.line(cat("struct ", stem, "_ctx glaf_c;"));
    w_.line("static glaf_site glaf_s;");
    w_.line("long glaf_n, glaf_rk, glaf_e;");
    w_.line("(void)glaf_rk; (void)glaf_e;");
    const auto emit_bands = [&](std::size_t s) {
      const Step& step = fn.steps[s];
      const std::string bs = band_suffix(s);
      const std::size_t depth = band_depth(step, verdicts[s]);
      for (std::size_t d = 0; d < depth; ++d) {
        const LoopSpec& loop = step.loops[d];
        const std::string b = cat("glaf_c.glaf_b", bs, "[", d, "]");
        const std::string st = cat("glaf_c.glaf_s", bs, "[", d, "]");
        const std::string t = cat("glaf_c.glaf_t", bs, "[", d, "]");
        // Begin, end, then stride, as the VM evaluates them; a zero
        // stride sets the fault and runs no trip.
        const std::optional<std::int64_t> lit = stride_value(loop, false);
        const bool checked = !lit || *lit == 0;
        w_.line(cat(b, " = ", index_text(*loop.begin), ";"));
        w_.line(cat("{ long glaf_end = ", index_text(*loop.end), "; ", st,
                    " = ", checked ? index_text(*loop.stride) : cat(*lit),
                    ";"));
        w_.indent();
        if (checked) {
          uses_fault_ = true;
          w_.line(cat("if (", st, " == 0) glaf_zero_stride();"));
        }
        w_.line(cat("long glaf_sp = ", st, " > 0 ? glaf_end - ", b, " : ", b,
                    " - glaf_end; ", t, " = ",
                    checked ? cat(st, " == 0 || ") : std::string(),
                    "glaf_sp < 0 ? 0 : glaf_sp / (", st, " < 0 ? -", st,
                    " : ", st, ") + 1; }"));
        w_.dedent();
      }
    };
    // Only the first step's bands are needed up front (they define the
    // dispatch range); the rest of the ctx is filled inside the
    // dispatch branch so the gated path pays nothing for it.
    emit_bands(lo);
    {
      // The dispatch range [0, glaf_n): the first step's partitioned
      // dimension. Fused members share identical partition bounds (the
      // fusion precondition), so one range drives every block.
      const Step& first = fn.steps[lo];
      const StepVerdict& v = verdicts[lo];
      const std::string bs = band_suffix(lo);
      const int owner = v.exact_partition_dim;
      const std::size_t depth = band_depth(first, v);
      if (owner >= 0) {
        w_.line(cat("glaf_n = glaf_c.glaf_t", bs, "[", owner, "];"));
      } else {
        w_.line(cat("glaf_n = glaf_c.glaf_t", bs, "[0];"));
        for (std::size_t d = 1; d < depth; ++d) {
          w_.line(cat("glaf_n *= glaf_c.glaf_t", bs, "[", d, "];"));
        }
      }
    }
    // Profit gate: while the site's countdown runs, a decrement and a
    // compare decide; otherwise the host decides (a fixed mode, or this
    // site's timings). A serial run takes the *plain serial loops* in the
    // else branch — no ctx fill, no reduction scratch, no combine — so a
    // gated region costs a few compares over serial code.
    w_.line("if (glaf_pfor && glaf_n > 0 && (--glaf_s.left >= 0 ? "
            "glaf_n >= glaf_s.nmin : glaf_gate_open(glaf_pfor_ctx, "
            "&glaf_s, glaf_n))) {");
    w_.indent();
    for (std::size_t s = lo + 1; s < hi; ++s) emit_bands(s);
    std::set<GridId> carried_union;
    for (std::size_t s = lo; s < hi; ++s) {
      for (const GridId id : carried_grids(fn, fn.steps[s], verdicts[s])) {
        if (!carried_union.insert(id).second) continue;
        const Grid& g = p_.grid(id);
        w_.line(cat("glaf_c.", g.name, " = ", g.dims.empty() ? "&" : "",
                    g.name, ";"));
      }
    }
    for (std::size_t s = lo; s < hi; ++s) {
      const StepVerdict& v = verdicts[s];
      const std::string bs = band_suffix(s);
      for (std::size_t r = 0; r < v.reductions.size(); ++r) {
        const Grid& g = p_.grid(v.reductions[r].grid);
        const char* identity = v.reductions[r].op == ReduceOp::kMin
                                   ? "INFINITY"
                                   : v.reductions[r].op == ReduceOp::kMax
                                         ? "-INFINITY"
                                         : "0.0";
        w_.line(cat("glaf_c.glaf_red", bs, r,
                    " = (double*)malloc((size_t)(", "glaf_nranks * ",
                    elem_count_long(g), ") * sizeof(double));"));
        w_.line(cat("for (glaf_e = 0; glaf_e < glaf_nranks * ",
                    elem_count_long(g), "; ++glaf_e) glaf_c.glaf_red", bs, r,
                    "[glaf_e] = ", identity, ";"));
      }
    }
    w_.line(cat("glaf_pfor(glaf_pfor_ctx, ", stem,
                "_range, &glaf_c, glaf_n);"));
    // Ordered combine: step order, then rank 0 first within each step.
    // The fixed order — not the completion order — plus exact
    // (integer-valued) operators is what keeps the merged result
    // bit-identical to the serial kernel.
    for (std::size_t s = lo; s < hi; ++s) {
      const StepVerdict& v = verdicts[s];
      const std::string bs = band_suffix(s);
      for (std::size_t r = 0; r < v.reductions.size(); ++r) {
        const ReductionClause& rc = v.reductions[r];
        const Grid& g = p_.grid(rc.grid);
        const std::string elems = elem_count_long(g);
        w_.line("for (glaf_rk = 0; glaf_rk < glaf_nranks; ++glaf_rk) {");
        w_.indent();
        const std::string src = cat("glaf_c.glaf_red", bs, r, "[glaf_rk * ",
                                    elems, " + glaf_e]");
        const std::string dst =
            g.dims.empty() ? base_name(g) : cat(base_name(g), "[glaf_e]");
        std::string combine;
        switch (rc.op) {
          case ReduceOp::kSum:
            combine = cat(dst, " = ", dst, " + ", src, ";");
            break;
          case ReduceOp::kProd:
            combine = cat(dst, " = ", dst, " * ", src, ";");
            break;
          case ReduceOp::kMin:
            combine = cat(dst, " = glaf_min(", dst, ", ", src, ");");
            break;
          case ReduceOp::kMax:
            combine = cat(dst, " = glaf_max(", dst, ", ", src, ");");
            break;
        }
        w_.line(cat("for (glaf_e = 0; glaf_e < ", elems, "; ++glaf_e) ",
                    combine));
        w_.dedent();
        w_.line("}");
        w_.line(cat("free(glaf_c.glaf_red", bs, r, ");"));
      }
    }
    w_.dedent();
    w_.line("} else {");
    w_.indent();
    // Gated (or no pool installed): run the member steps as ordinary
    // serial loops. Timed serial runs count here too; the host, which
    // knows them, takes them out of NativeEngine::gated_regions.
    w_.line("if (glaf_pfor && glaf_n > 0) ++glaf_gated;");
    for (std::size_t s = lo; s < hi; ++s) {
      emit_step(fn, fn.steps[s], verdicts[s]);
    }
    w_.dedent();
    w_.line("}");
    w_.line("if (glaf_s.timing) glaf_gate_close(glaf_pfor_ctx, &glaf_s);");
    w_.dedent();
    w_.line("}");
  }

  // ---- functions --------------------------------------------------------------

  std::string param_decl(const Grid& g) const {
    if (g.dims.empty()) {
      // Scalars are passed by value when only read, by pointer otherwise;
      // for simplicity and FORTRAN-interop parity, always by pointer would
      // be faithful, but readable C passes read-only scalars by value.
      return cat(ctype(g.elem_type), " ", g.name);
    }
    return cat(ptr_decl(ctype(g.elem_type)), g.name);
  }

  void emit_prototype(const Function& fn) {
    std::vector<std::string> params;
    params.reserve(fn.params.size());
    for (const GridId id : fn.params) params.push_back(param_decl(p_.grid(id)));
    w_.raw(cat(ctype(fn.return_type), " ", fn.name, "(",
               params.empty() ? "void" : join(params, ", "), ");"));
  }

  void emit_function(const Function& fn) {
    frees_.clear();
    if (opt_.emit_comments && !fn.comment.empty()) {
      w_.raw(cat("/* ", fn.comment, " */"));
    }
    std::vector<std::string> params;
    params.reserve(fn.params.size());
    for (const GridId id : fn.params) params.push_back(param_decl(p_.grid(id)));
    w_.raw(cat(ctype(fn.return_type), " ", fn.name, "(",
               params.empty() ? "void" : join(params, ", "), ") {"));
    w_.indent();

    std::set<std::string> vars;
    for (const Step& step : fn.steps) {
      for (const LoopSpec& loop : step.loops) vars.insert(loop.index_var);
    }
    if (!vars.empty()) {
      w_.line(cat("long ", join({vars.begin(), vars.end()}, ", "), ";"));
    }
    for (const GridId id : fn.params) {
      const Grid& g = p_.grid(id);
      if (captures_extents(g)) {
        w_.line(cat("const long ", join(extent_inits(g), ", "), ";"));
      }
    }
    for (const GridId id : fn.locals) {
      emit_definition(p_.grid(id), /*file_scope=*/false);
    }
    for (const GridId id : p_.referenced_grids(fn)) {
      if (lazy_globals_.count(id) == 0) continue;
      const Grid& g = p_.grid(id);
      w_.line(cat("if (!", g.name, ") ", g.name, " = (", ctype(g.elem_type),
                  "*)malloc(", elem_count_expr(g), " * sizeof(",
                  ctype(g.elem_type), "));"));
    }
    w_.blank();

    static const StepVerdict kNoVerdict;
    const auto& verdicts = analysis_.verdicts.count(fn.id) != 0
                               ? analysis_.verdicts.at(fn.id)
                               : std::vector<StepVerdict>{};
    const auto pit = plan_.find(fn.id);
    if (pit != plan_.end()) {
      // Host-parallel body: walk the region plan — ranged regions become
      // one gated dispatch each, serial regions emit their plain loops.
      for (const RegionInfo& info : pit->second) {
        if (info.ranged) {
          emit_region_call(fn, info, verdicts);
          w_.blank();
        } else {
          const std::size_t s = info.span.first_step;
          emit_step(fn, fn.steps[s],
                    s < verdicts.size() ? verdicts[s] : kNoVerdict);
        }
      }
    } else {
      for (std::size_t s = 0; s < fn.steps.size(); ++s) {
        emit_step(fn, fn.steps[s],
                  s < verdicts.size() ? verdicts[s] : kNoVerdict);
      }
    }

    for (const std::string& name : frees_) w_.line(cat("free(", name, ");"));
    w_.dedent();
    w_.raw("}");
  }

  void emit_step(const Function& fn, const Step& step,
                 const StepVerdict& verdict) {
    if (opt_.emit_comments && !step.comment.empty()) {
      w_.line(cat("/* ", step.comment, " */"));
    }
    // The loops the directive covers need strides of a known, nonzero
    // value for OpenMP's canonical loop form, and its clauses cannot name
    // a COMMON or TYPE member (a struct member in C); without either the
    // step runs serially.
    const std::size_t covered =
        std::min<std::size_t>(omp_collapse(verdict), step.loops.size());
    bool omp = opt_.enable_openmp && keep_directive(opt_.policy, verdict);
    for (std::size_t d = 0; omp && d < covered; ++d) {
      const auto st = stride_value(step.loops[d], true);
      omp = st && *st != 0;
    }
    const auto member = [&](GridId id) {
      return c_storage_name(p_.grid(id)) != p_.grid(id).name;
    };
    for (const ReductionClause& r : verdict.reductions) {
      omp = omp && !member(r.grid);
    }
    for (const auto* clause : {&verdict.private_grids,
                               &verdict.firstprivate_grids}) {
      omp = omp && std::none_of(clause->begin(), clause->end(), member);
    }
    int open = 0;
    std::size_t d = 0;
    if (omp) {
      std::vector<std::string> hoisted;
      std::vector<std::string> lines;
      for (; d < covered; ++d) {
        lines.push_back(omp_loop_line(step.loops[d], &hoisted));
      }
      if (!hoisted.empty()) {
        w_.line("{");
        w_.indent();
        w_.line(cat("const long ", join(hoisted, ", "), ";"));
        ++open;
      }
      emit_omp_pragma(step, verdict);
      for (const std::string& line : lines) {
        w_.line(line);
        w_.indent();
        ++open;
      }
    }
    for (; d < step.loops.size(); ++d) open += open_loop(step.loops[d]);
    emit_body(step.body, fn, omp ? &verdict : nullptr);
    for (; open > 0; --open) {
      w_.dedent();
      w_.line("}");
    }
    w_.blank();
  }

  /// How many loops of a step its OpenMP directive covers.
  int omp_collapse(const StepVerdict& verdict) const {
    if (opt_.emit_collapse && verdict.collapse > 1) {
      return std::min(verdict.collapse, opt_.max_collapse);
    }
    return 1;
  }

  void emit_omp_pragma(const Step& step, const StepVerdict& verdict) {
    std::string d = "#pragma omp parallel for";
    const int collapse = omp_collapse(verdict);
    if (collapse > 1) d += cat(" collapse(", collapse, ")");
    std::vector<std::string> privates;
    for (std::size_t i = static_cast<std::size_t>(collapse);
         i < step.loops.size(); ++i) {
      privates.push_back(step.loops[i].index_var);
    }
    for (const GridId g : verdict.private_grids) {
      if (!threadprivate(g)) privates.push_back(p_.grid(g).name);
    }
    if (!privates.empty()) d += cat(" private(", join(privates, ", "), ")");
    if (!verdict.firstprivate_grids.empty()) {
      std::vector<std::string> names;
      for (const GridId g : verdict.firstprivate_grids) {
        names.push_back(p_.grid(g).name);
      }
      d += cat(" firstprivate(", join(names, ", "), ")");
    }
    for (const ReductionClause& r : verdict.reductions) {
      d += cat(" reduction(", omp_spelling(r.op), ":", p_.grid(r.grid).name,
               ")");
    }
    if (opt_.schedule != OmpSchedule::kDefault) {
      d += cat(" schedule(",
               opt_.schedule == OmpSchedule::kDynamic ? "dynamic" : "static");
      if (opt_.schedule_chunk > 0) d += cat(", ", opt_.schedule_chunk);
      d += ")";
    }
    w_.raw(d);
  }

  void emit_body(const std::vector<Stmt>& body, const Function& fn,
                 const StepVerdict* omp) {
    for (const Stmt& s : body) emit_stmt(s, fn, omp);
  }

  void emit_stmt(const Stmt& s, const Function& fn, const StepVerdict* omp) {
    switch (s.kind) {
      case Stmt::Kind::kAssign: {
        const bool atomic = omp != nullptr && id_in(omp->atomic_grids,
                                                    s.lhs.grid);
        // A subprogram's store to a grid its caller's loop updates
        // atomically (an orphaned ATOMIC) is atomic as well: an update of
        // the element, or else a plain atomic write.
        const bool orphaned =
            !atomic && in_region_callee() && region_atomics_.count(s.lhs.grid);
        std::string rhs = expr(*s.rhs);
        // Interpreter-exact mode: INTEGER stores truncate explicitly (the
        // typed back-end gets the same effect from the long lvalue).
        if (interp_math() &&
            p_.grid(s.lhs.grid).field_type(s.lhs.field) == DataType::kInt) {
          rhs = cat("trunc(", rhs, ")");
        }
        const std::string lhs =
            access_text(s.lhs.grid, s.lhs.field, s.lhs.subscripts);
        if (atomic) w_.raw("#pragma omp atomic");
        if (orphaned) {
          w_.raw(rhs.find(lhs) != std::string::npos
                     ? "#pragma omp atomic"
                     : "#pragma omp atomic write");
        }
        w_.line(cat(lhs, " = ", rhs, ";"));
        break;
      }
      case Stmt::Kind::kIf: {
        const bool critical = omp != nullptr && omp->needs_critical &&
                              s.kind == Stmt::Kind::kIf &&
                              if_contains_return(s);
        if (critical) w_.raw("#pragma omp critical");
        if (critical) w_.line("{");
        for (std::size_t i = 0; i < s.arms.size(); ++i) {
          w_.line(cat(i == 0 ? "if (" : "} else if (", expr(*s.arms[i].cond),
                      ") {"));
          w_.indent();
          emit_body(s.arms[i].body, fn, omp);
          w_.dedent();
        }
        if (!s.else_body.empty()) {
          w_.line("} else {");
          w_.indent();
          emit_body(s.else_body, fn, omp);
          w_.dedent();
        }
        w_.line("}");
        if (critical) w_.line("}");
        break;
      }
      case Stmt::Kind::kCallSub: {
        std::vector<std::string> args;
        args.reserve(s.args.size());
        for (const ExprPtr& a : s.args) args.push_back(expr(*a));
        w_.line(cat(s.callee, "(", join(args, ", "), ");"));
        break;
      }
      case Stmt::Kind::kReturn:
        w_.line(s.ret ? cat("return ", expr(*s.ret), ";") : "return;");
        break;
    }
  }

  static bool if_contains_return(const Stmt& s) {
    for (const IfArm& arm : s.arms) {
      if (contains_return(arm.body)) return true;
    }
    return contains_return(s.else_body);
  }

  const Program& p_;
  const ProgramAnalysis& analysis_;
  const CodegenOptions& opt_;
  CodeWriter w_;
  std::vector<std::string> frees_;
  std::set<GridId> lazy_globals_;
  /// Functions called from the loop of a kept directive (OpenMP only),
  /// the grids those loops update atomically, and the function being
  /// emitted.
  std::set<std::string> region_callees_;
  std::set<GridId> region_atomics_;
  const Function* current_fn_ = nullptr;
  /// Set while index_text emits a typed-model subscript or bound that it
  /// rounds (interp_arith), and whether the code uses glaf_ix or
  /// glaf_zero_stride (emit_preamble defines them then).
  mutable bool index_arith_ = false;
  mutable bool uses_ix_ = false;
  bool uses_fault_ = false;
  /// Host-parallel dispatch plan (host_parallel only): every function's
  /// steps grouped into regions, plus the emitted-region metadata
  /// returned through GeneratedCode.
  EffectsMap effects_;
  std::map<FunctionId, std::vector<RegionInfo>> plan_;
  std::vector<ParallelRegion> regions_;
  /// Base-name redirections active while emitting a range function body
  /// (reduction targets point at per-rank scratch).
  std::map<GridId, std::string> name_overrides_;
};

}  // namespace

std::string c_storage_name(const Grid& g) {
  if (g.external == ExternalKind::kCommon) {
    return cat(g.common_block, "_.", g.name);
  }
  if (!g.type_parent.empty()) return cat(g.type_parent, ".", g.name);
  return g.name;
}

GeneratedCode generate_c(const Program& program,
                         const ProgramAnalysis& analysis,
                         const CodegenOptions& options) {
  return CGen(program, analysis, options).run();
}

}  // namespace glaf
