#include "codegen/c_run.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>

#include "codegen/c.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"

namespace glaf {
namespace {

std::string fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One global the harness reads back: its grid and folded element count.
struct HarnessGlobal {
  const Grid* grid = nullptr;
  std::int64_t elements = 1;
};

StatusOr<std::vector<HarnessGlobal>> harness_globals(const Program& p) {
  std::vector<HarnessGlobal> out;
  for (const GridId id : p.global_grids) {
    const Grid& g = p.grid(id);
    if (g.is_struct()) {
      return unimplemented(cat("C harness: struct grid '", g.name,
                               "' is not supported"));
    }
    HarnessGlobal hg{&g, 1};
    for (const Dim& d : g.dims) {
      const auto v = fold_with_globals(p, *d.extent);
      if (!v) {
        return unimplemented(
            cat("C harness: grid '", g.name, "' has a non-constant extent"));
      }
      hg.elements *= static_cast<std::int64_t>(value_as_double(*v));
    }
    out.push_back(hg);
  }
  return out;
}

/// The appended harness: defines storage for external grids (the role the
/// legacy FORTRAN objects play in the paper), feeds `inputs`, calls the
/// entry point and prints every global element-wise.
StatusOr<std::string> harness_text(const std::string& entry,
                                   const std::vector<HarnessGlobal>& globals,
                                   const GlobalValues& inputs) {
  std::vector<std::string> out;
  out.push_back("");
  out.push_back("/* ---- GLAF test harness ---- */");
  out.push_back("#include <stdio.h>");
  std::set<std::string> defined;  // struct variables already defined
  for (const HarnessGlobal& dg : globals) {
    const Grid& g = *dg.grid;
    const char* ty = storage_ctype(g.elem_type, NumericModel::kTyped);
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
      out.push_back(cat(ty, " ", g.name,
                        g.dims.empty() ? "" : cat("[", dg.elements, "]"),
                        ";"));
    }
  }
  std::vector<std::string> body;
  for (const HarnessGlobal& dg : globals) {
    const Grid& g = *dg.grid;
    const auto it = inputs.find(g.id);
    if (it == inputs.end()) continue;
    const std::vector<double>& values = it->second;
    if (static_cast<std::int64_t>(values.size()) != dg.elements) {
      return invalid_argument(cat("C harness: '", g.name, "' holds ",
                                  dg.elements, " elements, got ",
                                  values.size()));
    }
    std::vector<std::string> literals;
    for (const double v : values) {
      if (!std::isfinite(v)) {
        return invalid_argument(
            cat("C harness: non-finite input for '", g.name, "'"));
      }
      literals.push_back(fmt17(v));
    }
    const char* ty = storage_ctype(g.elem_type, NumericModel::kTyped);
    const std::string name = c_storage_name(g);
    if (g.dims.empty()) {
      body.push_back(cat("  ", name, " = (", ty, ")", literals[0], ";"));
      continue;
    }
    out.push_back(cat("static const double glaf_in_", g.id, "[",
                      dg.elements, "] = {", join(literals, ", "), "};"));
    body.push_back(cat("  { long i; for (i = 0; i < ", dg.elements, "; ++i) ",
                       name, "[i] = (", ty, ")glaf_in_", g.id, "[i]; }"));
  }
  out.push_back("int main(void) {");
  out.insert(out.end(), body.begin(), body.end());
  out.push_back(cat("  ", entry, "();"));
  for (const HarnessGlobal& dg : globals) {
    const std::string name = c_storage_name(*dg.grid);
    if (dg.grid->dims.empty()) {
      out.push_back(cat("  printf(\"%.17g\\n\", (double)", name, ");"));
    } else {
      out.push_back(cat("  { long i; for (i = 0; i < ", dg.elements,
                        "; ++i) printf(\"%.17g\\n\", (double)", name,
                        "[i]); }"));
    }
  }
  out.push_back("  return 0;");
  out.push_back("}");
  return join(out, "\n") + "\n";
}

}  // namespace

StatusOr<GlobalValues> run_generated_c(
    const Program& program, const ProgramAnalysis& analysis,
    const CodegenOptions& options, const std::string& entry,
    const GlobalValues& inputs, int threads, const std::string& cc,
    const std::string& work_dir,
    const std::function<std::string(const std::string&)>& transform) {
  const StatusOr<std::vector<HarnessGlobal>> globals =
      harness_globals(program);
  if (!globals.is_ok()) return globals.status();
  CodegenOptions copts = options;
  copts.language = Language::kC;
  copts.numeric_model = NumericModel::kTyped;
  copts.host_parallel = false;
  std::string source = generate_c(program, analysis, copts).source;
  if (transform) source = transform(source);
  const StatusOr<std::string> harness =
      harness_text(entry, globals.value(), inputs);
  if (!harness.is_ok()) return harness.status();
  source += harness.value();

  static std::atomic<int> counter{0};
  const std::string stem = cat(work_dir, "/glaf_c_run_", getpid(), "_",
                               counter.fetch_add(1));
  const std::string src_path = cat(stem, ".c");
  const std::string bin_path = cat(stem, ".bin");
  {
    std::ofstream out(src_path);
    if (!out) return internal_error(cat("cannot write ", src_path));
    out << source;
  }
  // -ffp-contract=off: FMA contraction would round differently from the
  // interpreter's plain double arithmetic.
  const RunResult compile =
      run_command(cat(cc, " -O1 -ffp-contract=off",
                      copts.enable_openmp ? " -fopenmp" : "", " -o ",
                      bin_path, " ", src_path, " -lm"));
  std::remove(src_path.c_str());
  if (!compile.ok()) {
    if (!compile.started) {
      return internal_error("C compilation failed: compiler did not start");
    }
    return internal_error(
        cat("C compilation failed: ", compile.output.substr(0, 2000)));
  }
  const RunResult run =
      run_command(cat("OMP_NUM_THREADS=", threads, " ", bin_path));
  std::remove(bin_path.c_str());
  if (!run.ok()) {
    if (!run.started) return internal_error("compiled program did not start");
    return internal_error(
        cat("compiled program exited with status ", run.exit_code));
  }

  std::vector<double> values;
  const char* cursor = run.output.c_str();
  char* end = nullptr;
  for (double v = std::strtod(cursor, &end); end != cursor;
       v = std::strtod(cursor, &end)) {
    values.push_back(v);
    cursor = end;
  }
  std::int64_t expected = 0;
  for (const HarnessGlobal& dg : globals.value()) expected += dg.elements;
  if (static_cast<std::int64_t>(values.size()) != expected) {
    return internal_error(cat("compiled program printed ", values.size(),
                              " values, expected ", expected));
  }
  GlobalValues result;
  auto at = values.begin();
  for (const HarnessGlobal& dg : globals.value()) {
    result[dg.grid->id].assign(at, at + dg.elements);
    at += dg.elements;
  }
  return result;
}

bool openmp_available(const std::string& cc) {
  static std::map<std::string, bool> cache;
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto it = cache.find(cc);
  if (it != cache.end()) return it->second;
  const bool ok =
      cc_available(cc) &&
      run_command(cat("printf '#include <omp.h>\\nint main(void) { return "
                      "omp_get_max_threads() < 1; }\\n' | ",
                      cc, " -fopenmp -x c -o /dev/null -"))
          .ok();
  return cache.emplace(cc, ok).first->second;
}

}  // namespace glaf
