#include "codegen/c.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/fuse.hpp"
#include "codegen/directive_policy.hpp"
#include "codegen/emitter.hpp"
#include "core/libfuncs.hpp"
#include "core/typecheck.hpp"
#include "support/strings.hpp"

namespace glaf {
namespace {

std::string c_type(DataType t) {
  switch (t) {
    case DataType::kInt: return "long";
    case DataType::kReal: return "float";
    case DataType::kDouble: return "double";
    case DataType::kLogical: return "int";
    case DataType::kVoid: return "void";
  }
  return "void";
}

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

  /// Option-aware type spelling: the interpreter-exact numeric model
  /// (the JIT engine's bit-identical mode) stores every value as a C
  /// double, mirroring the tree-walk evaluator.
  std::string ctype(DataType t) const {
    if (interp_math() && t != DataType::kVoid) return "double";
    return c_type(t);
  }

  GeneratedCode run() {
    emit_preamble();
    emit_file_scope();
    GeneratedCode out;
    for (const Function& fn : p_.functions) emit_prototype(fn);
    w_.blank();
    if (opt_.host_parallel) {
      effects_ = compute_effects(p_);
      plan_regions();
      emit_range_units();
    }
    for (const Function& fn : p_.functions) {
      const std::size_t mark = w_.mark();
      emit_function(fn);
      out.per_function[fn.name] = w_.text_since(mark);
      w_.blank();
    }
    out.regions = regions_;
    out.source = w_.str();
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
        w_.raw(cat("  ", ctype(g->elem_type), " ", g->name,
                   flat_array_suffix(*g), ";"));
      }
      w_.raw(cat("} ", block, "_;"));
    }
    // Existing-module variables: storage provided by the legacy objects.
    for (const GridId id : p_.global_grids) {
      const Grid& g = p_.grid(id);
      if (g.external != ExternalKind::kModule) continue;
      if (!g.type_parent.empty()) {
        w_.raw(cat("/* ", g.type_parent, ".", g.name,
                   " is an element of a TYPE variable from module ",
                   g.external_module, " */"));
        continue;
      }
      w_.raw(cat("extern ", ctype(g.elem_type), " ", g.name,
                 flat_array_suffix(g), "; /* from module ", g.external_module,
                 " */"));
    }
    // Owned globals: static file-scope definitions (§3.3 module scope).
    for (const GridId id : p_.global_grids) {
      const Grid& g = p_.grid(id);
      if (g.external != ExternalKind::kNone) continue;
      if (opt_.emit_comments && !g.comment.empty()) {
        w_.raw(cat("/* ", g.comment, " */"));
      }
      emit_definition(g, /*file_scope=*/true);
    }
    w_.blank();
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

  std::string elem_count_expr(const Grid& g) const {
    std::vector<std::string> parts;
    parts.reserve(g.dims.size());
    for (const Dim& d : g.dims) parts.push_back(cat("(", expr(*d.extent), ")"));
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
      return;
    }
    // Symbolic extents.
    const std::string bytes =
        cat(elem_count_expr(g), " * sizeof(", ctype(g.elem_type), ")");
    if (file_scope) {
      // Lazily-allocated file-scope array: pointer definition here, a
      // guarded malloc at the top of each function that touches it.
      w_.raw(cat("static ", ptr_decl(ctype(g.elem_type)), g.name,
                 " = 0; /* allocated on first use */"));
      lazy_globals_.insert(g.id);
      return;
    }
    if (save) {
      // No-reallocation pattern.
      w_.line(cat("static ", ptr_decl(ctype(g.elem_type)), g.name, " = 0;"));
      w_.line(cat("if (!", g.name, ") ", g.name, " = (", ctype(g.elem_type),
                  "*)calloc(", elem_count_expr(g), ", sizeof(",
                  ctype(g.elem_type), "));"));
    } else {
      // calloc, not malloc: the interpreter's instances start zeroed.
      w_.line(cat(ptr_decl(ctype(g.elem_type)), g.name, " = (",
                  ctype(g.elem_type), "*)calloc(", elem_count_expr(g),
                  ", sizeof(", ctype(g.elem_type), "));"));
      frees_.push_back(g.name);
    }
  }

  // ---- expressions ---------------------------------------------------------

  /// Row-major flattened index: (((s0)*e1 + s1)*e2 + s2)...
  std::string flat_index(const Grid& g, const std::vector<ExprPtr>& subs) const {
    std::string out = cat("(", expr(*subs[0]), ")");
    for (std::size_t d = 1; d < subs.size(); ++d) {
      out = cat("(", out, " * (", expr(*g.dims[d].extent), ") + (",
                expr(*subs[d]), "))");
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
    if (g.external == ExternalKind::kCommon) {
      return cat(g.common_block, "_.", g.name);
    }
    if (!g.type_parent.empty()) return cat(g.type_parent, ".", g.name);
    return g.name;
  }

  std::string access_text(GridId id, const std::string& field,
                          const std::vector<ExprPtr>& subs) const {
    const Grid& g = p_.grid(id);
    std::string base = base_name(g);
    if (!field.empty() && opt_.soa_layout) base = cat(g.name, "_", field);
    if (subs.empty()) return field.empty() || opt_.soa_layout
                                 ? base
                                 : cat(base, ".", field);
    // Interpreter-exact mode holds subscripts in doubles: truncate the
    // flattened offset once at the access (values are exact integers).
    const std::string index = interp_math()
                                  ? cat("(long)", flat_index(g, subs))
                                  : flat_index(g, subs);
    std::string out = cat(base, "[", index, "]");
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
          if (interp_math()) return text;
          return t == DataType::kInt ? cat("(long)", text) : text;
        }
        if (e.bop == BinOp::kMod) {
          const DataType t = promote(infer_type(p_, *e.args[0]),
                                     infer_type(p_, *e.args[1]));
          if (t == DataType::kInt && !interp_math()) {
            return cat("(", expr(*e.args[0]), " % ", expr(*e.args[1]), ")");
          }
          // fmod truncates toward zero exactly like C's % on integral
          // values, and is the interpreter's MOD for every type.
          return cat("fmod(", expr(*e.args[0]), ", ", expr(*e.args[1]), ")");
        }
        if (e.bop == BinOp::kDiv && interp_math() &&
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
        return interp_math() ? cat("trunc(", args[0], ")")
                                : cat("(long)(", args[0], ")");
      }
      if (lib->name == "NINT" && interp_math()) {
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
        out = interp_math() ? cat("trunc(", out, ")")
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
  /// referenced grid expressible in the flat unit (no structs).
  bool step_ranged(const Step& step, const StepVerdict& v) const {
    if (!opt_.host_parallel || !interp_math()) return false;
    if (!v.has_loop || !v.bit_exact) return false;
    if (!keep_directive(opt_.policy, v)) return false;
    for (const GridId id : step_grids(step)) {
      if (p_.grid(id).is_struct()) return false;
    }
    return true;
  }

  std::string range_stem(const Function& fn, std::size_t sidx) const {
    return cat("glaf_rs_", fn.name, "_", sidx);
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
    if (info.span.step_count == 1) {
      return range_stem(fn, info.span.first_step);
    }
    return cat("glaf_rg_", fn.name, "_", info.ordinal);
  }

  /// Group every function's steps into dispatch regions: maximal fusable
  /// runs when fuse_regions is on, singletons otherwise. Also records
  /// the ranged regions as GeneratedCode metadata.
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
      std::vector<FusedRegion> spans;
      if (opt_.fuse_regions && !verdicts.empty()) {
        spans = plan_fused_regions(p_, fn, verdicts, ranged, effects_);
      } else {
        for (std::size_t s = 0; s < fn.steps.size(); ++s) {
          spans.push_back(FusedRegion{s, 1});
        }
      }
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

  /// Context-struct field suffix for one member step: fused regions
  /// prefix every per-step band array and scratch pointer with the step
  /// index; singleton regions keep the unsuffixed ABI-v2 names.
  static std::string band_suffix(const RegionInfo& info, std::size_t sidx) {
    return info.span.step_count == 1 ? std::string() : cat(sidx, "_");
  }

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
      const std::string bs = band_suffix(info, s);
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
      const bool fused = info.span.step_count > 1;
      if (fused) {
        w_.line("{");
        w_.indent();
      }
      emit_step_block(fn, fn.steps[s], verdicts[s], band_suffix(info, s));
      if (fused) {
        w_.dedent();
        w_.line("}");
      }
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
    const auto bound = [&](const Expr& e) {
      return interp_math() ? cat("(long)", expr(e)) : expr(e);
    };
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
      const LoopSpec& loop = step.loops[d];
      std::string head =
          cat("for (", loop.index_var, " = ", bound(*loop.begin), "; ",
              loop.index_var, " <= ", bound(*loop.end), "; ");
      head += loop.stride ? cat(loop.index_var, " += ", bound(*loop.stride))
                          : cat("++", loop.index_var);
      head += ") {";
      w_.line(head);
      w_.indent();
      ++open;
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
    const auto bound = [&](const Expr& e) {
      return interp_math() ? cat("(long)", expr(e)) : expr(e);
    };
    w_.line("{");
    w_.indent();
    w_.line(cat("struct ", stem, "_ctx glaf_c;"));
    w_.line("static glaf_site glaf_s;");
    w_.line("long glaf_n, glaf_rk, glaf_e;");
    w_.line("(void)glaf_rk; (void)glaf_e;");
    const auto emit_bands = [&](std::size_t s) {
      const Step& step = fn.steps[s];
      const std::string bs = band_suffix(info, s);
      const std::size_t depth = band_depth(step, verdicts[s]);
      for (std::size_t d = 0; d < depth; ++d) {
        const LoopSpec& loop = step.loops[d];
        const std::string b = cat("glaf_c.glaf_b", bs, "[", d, "]");
        const std::string st = cat("glaf_c.glaf_s", bs, "[", d, "]");
        const std::string t = cat("glaf_c.glaf_t", bs, "[", d, "]");
        w_.line(cat(b, " = ", bound(*loop.begin), ";"));
        w_.line(cat(st, " = ",
                    loop.stride ? bound(*loop.stride) : std::string("1"),
                    ";"));
        w_.line(cat("{ long glaf_end = ", bound(*loop.end),
                    "; long glaf_sp = ", st, " > 0 ? glaf_end - ", b, " : ",
                    b, " - glaf_end; ", t,
                    " = glaf_sp < 0 ? 0 : glaf_sp / (", st, " < 0 ? -", st,
                    " : ", st, ") + 1; }"));
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
      const std::string bs = band_suffix(info, lo);
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
      const std::string bs = band_suffix(info, s);
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
      const std::string bs = band_suffix(info, s);
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
    const bool omp = opt_.enable_openmp && keep_directive(opt_.policy, verdict);
    if (omp) emit_omp_pragma(step, verdict);
    for (const LoopSpec& loop : step.loops) {
      // Interpreter-exact mode: bound expressions are doubles (integral in
      // value); cast once at the loop head so the counter stays a long.
      const auto bound = [&](const Expr& e) {
        return interp_math() ? cat("(long)", expr(e)) : expr(e);
      };
      std::string head =
          cat("for (", loop.index_var, " = ", bound(*loop.begin), "; ",
              loop.index_var, " <= ", bound(*loop.end), "; ");
      head += loop.stride ? cat(loop.index_var, " += ", bound(*loop.stride))
                          : cat("++", loop.index_var);
      head += ") {";
      w_.line(head);
      w_.indent();
    }
    emit_body(step.body, fn, omp ? &verdict : nullptr);
    for (std::size_t i = 0; i < step.loops.size(); ++i) {
      w_.dedent();
      w_.line("}");
    }
    w_.blank();
  }

  void emit_omp_pragma(const Step& step, const StepVerdict& verdict) {
    std::string d = "#pragma omp parallel for";
    int collapse = 1;
    if (opt_.emit_collapse && verdict.collapse > 1) {
      collapse = std::min(verdict.collapse, opt_.max_collapse);
      if (collapse > 1) d += cat(" collapse(", collapse, ")");
    }
    std::vector<std::string> privates;
    for (std::size_t i = static_cast<std::size_t>(collapse);
         i < step.loops.size(); ++i) {
      privates.push_back(step.loops[i].index_var);
    }
    for (const GridId g : verdict.private_grids) {
      privates.push_back(p_.grid(g).name);
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
        const bool atomic =
            omp != nullptr &&
            std::find(omp->atomic_grids.begin(), omp->atomic_grids.end(),
                      s.lhs.grid) != omp->atomic_grids.end();
        if (atomic) w_.raw("#pragma omp atomic");
        std::string rhs = expr(*s.rhs);
        // Interpreter-exact mode: INTEGER stores truncate explicitly (the
        // typed back-end gets the same effect from the long lvalue).
        if (interp_math() &&
            p_.grid(s.lhs.grid).field_type(s.lhs.field) == DataType::kInt) {
          rhs = cat("trunc(", rhs, ")");
        }
        w_.line(cat(access_text(s.lhs.grid, s.lhs.field, s.lhs.subscripts),
                    " = ", rhs, ";"));
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

GeneratedCode generate_c(const Program& program,
                         const ProgramAnalysis& analysis,
                         const CodegenOptions& options) {
  return CGen(program, analysis, options).run();
}

}  // namespace glaf
