// The OpenMP directives the analysis attaches to each step, run for real.
// Two engines execute them in parallel:
//
//  - the parallel native kernel threads the steps that cannot change a
//    bit (StepVerdict::bit_exact), so it is held *bitwise* to the serial
//    tree-walk reference;
//  - the C back-end's OpenMP build (codegen/c_run.hpp), compiled with
//    -fopenmp and run at several OMP_NUM_THREADS, executes every kept
//    clause: PRIVATE and FIRSTPRIVATE copies, REDUCTION combines and
//    ATOMIC updates. Reductions reassociate, so those checks carry a
//    tolerance; everything else is exact.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "codegen/c.hpp"
#include "codegen/c_run.hpp"
#include "codegen/fortran.hpp"
#include "core/builder.hpp"
#include "interp/machine.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"
#include "testing/programs.hpp"

namespace glaf {
namespace {

using Inputs = std::map<std::string, std::vector<double>>;

bool have_cc() { return cc_available("cc"); }
bool have_openmp() { return openmp_available("cc"); }

/// Run `entry` on a machine built with `opts` after setting `inputs`;
/// return every global by name.
Inputs run_machine(const Program& p, const InterpOptions& opts,
                   const std::string& entry, const Inputs& inputs,
                   NativeReport* report = nullptr) {
  Machine m(p, opts);
  for (const auto& [name, values] : inputs) {
    EXPECT_TRUE(m.set_array(name, values).is_ok()) << name;
  }
  EXPECT_TRUE(m.call(entry).is_ok()) << entry;
  if (report != nullptr) *report = m.native_report();
  Inputs out;
  for (const GridId id : p.global_grids) {
    const std::string& name = p.grid(id).name;
    out[name] = m.array(name).value();
  }
  return out;
}

Inputs run_serial(const Program& p, const std::string& entry,
                  const Inputs& inputs) {
  InterpOptions o;
  o.engine = ExecEngine::kTreeWalk;
  return run_machine(p, o, entry, inputs);
}

/// The parallel native kernel with every region dispatched (the profit
/// gate would keep these small regions serial).
InterpOptions native_opts(int threads,
                          DirectivePolicy policy = DirectivePolicy::kV0) {
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  o.parallel = true;
  o.num_threads = threads;
  o.policy = policy;
  o.gate_always_dispatch = true;
  return o;
}

/// The OpenMP C build under `policy`, run at `threads`.
Inputs run_openmp(const Program& p, const std::string& entry,
                  const Inputs& inputs, int threads,
                  DirectivePolicy policy = DirectivePolicy::kV0,
                  const TweaksByFunction& tweaks = {}) {
  GlobalValues by_id;
  for (const auto& [name, values] : inputs) {
    by_id[p.find_grid(name)->id] = values;
  }
  CodegenOptions copts;
  copts.policy = policy;
  const StatusOr<GlobalValues> out = run_generated_c(
      p, analyze_program(p, tweaks), copts, entry, by_id, threads);
  EXPECT_TRUE(out.is_ok()) << out.status().message();
  Inputs named;
  if (!out.is_ok()) return named;
  for (const auto& [id, values] : out.value()) named[p.grid(id).name] = values;
  return named;
}

void expect_bitwise(const Inputs& want, const Inputs& got,
                    const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (const auto& [name, a] : want) {
    const std::vector<double>& b = got.at(name);
    ASSERT_EQ(a.size(), b.size()) << what << " " << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                std::bit_cast<std::uint64_t>(b[i]))
          << what << " " << name << "[" << i << "]: " << a[i] << " vs "
          << b[i];
    }
  }
}

void expect_near(const Inputs& want, const Inputs& got, double tol,
                 const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (const auto& [name, a] : want) {
    const std::vector<double>& b = got.at(name);
    ASSERT_EQ(a.size(), b.size()) << what << " " << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], tol) << what << " " << name << "[" << i << "]";
    }
  }
}

#define REQUIRE_CC() \
  if (!have_cc()) GTEST_SKIP() << "no system compiler"
#define REQUIRE_OPENMP() \
  if (!have_openmp()) GTEST_SKIP() << "cc -fopenmp does not link"

// ---- bit-exact steps: the parallel native kernel ---------------------------

TEST(ParallelDirectives, SaxpyBitwiseAcrossThreadCounts) {
  REQUIRE_CC();
  const Program p = testing::saxpy_program();
  Inputs in{{"a", {1.5}}, {"x", {}}, {"y", {}}};
  for (int i = 0; i < 8; ++i) {
    in["x"].push_back(0.5 * i);
    in["y"].push_back(3.0 - i);
  }
  const Inputs serial = run_serial(p, "saxpy", in);
  for (const int threads : {1, 2, 4, 8}) {
    NativeReport report;
    const Inputs par =
        run_machine(p, native_opts(threads), "saxpy", in, &report);
    ASSERT_TRUE(report.available) << report.fallback_reason;
    if (threads > 1) {
      EXPECT_EQ(report.parallel_regions, 1u) << threads;
    }
    expect_bitwise(serial, par, cat(threads, " threads"));
  }
}

TEST(ParallelDirectives, DependentStepsStaySerial) {
  REQUIRE_CC();
  // A loop-carried dependence keeps its step serial.
  NativeReport report;
  const Inputs prefix =
      run_machine(testing::prefix_program(), native_opts(4), "prefix",
                  {{"arr", {1, 0, 0, 0, 0, 0, 0, 0}}}, &report);
  EXPECT_EQ(report.parallel_regions, 0u);
  EXPECT_DOUBLE_EQ(prefix.at("arr")[7], 8.0);

  // So does a write subscript the analysis cannot see through,
  // a(MOD(65*i, 64)), on every call, each leaving exactly the bits a
  // serial machine leaves.
  constexpr int kN = 64;
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {kN});
  auto w = pb.global("w", DataType::kDouble, {kN});
  auto s = pb.function("f").step("s");
  s.foreach_("i", 0, kN - 1);
  s.assign(a(call("MOD", {idx("i") * (kN + 1), E(kN)})),
           w(idx("i")) + a(idx("i")) * 0.5);
  const Program blocked = pb.build().value();
  std::vector<double> wv(kN);
  for (int i = 0; i < kN; ++i) wv[i] = 1.0 / (3.0 + i);
  Machine ser(blocked, InterpOptions{});
  Machine par(blocked, native_opts(4));
  ASSERT_TRUE(par.native_report().available);
  for (Machine* mm : {&ser, &par}) ASSERT_TRUE(mm->set_array("w", wv).is_ok());
  for (int call_no = 0; call_no < 2; ++call_no) {
    ASSERT_TRUE(ser.call("f").is_ok());
    ASSERT_TRUE(par.call("f").is_ok());
    const auto want = ser.array("a").value();
    const auto got = par.array("a").value();
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i]),
                std::bit_cast<std::uint64_t>(got[i]))
          << "call " << call_no << " a[" << i << "]";
    }
  }
  EXPECT_EQ(par.native_report().parallel_regions, 0u);
}

TEST(ParallelDirectives, PolicyControlsWhichLoopsParallelize) {
  REQUIRE_CC();
  // An init-to-zero loop keeps its directive only under v0.
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{64}}});
  auto a = pb.global("a", DataType::kDouble, {E(n)});
  auto s = pb.function("init").step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(a(idx("i")), 0.0);
  const Program p = pb.build().value();
  NativeReport v0;
  NativeReport v1;
  run_machine(p, native_opts(4, DirectivePolicy::kV0), "init", {}, &v0);
  run_machine(p, native_opts(4, DirectivePolicy::kV1), "init", {}, &v1);
  EXPECT_EQ(v0.parallel_regions, 1u);
  EXPECT_EQ(v1.parallel_regions, 0u);
}

Program collapse_program(std::int64_t rows, std::int64_t cols,
                         std::int64_t row_stride = 1,
                         std::int64_t col_begin = 0,
                         std::int64_t col_stride = 1) {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {E(rows), E(cols)});
  auto s = pb.function("f").step("s");
  s.foreach_("i", 0, rows - 1, row_stride)
      .foreach_("j", col_begin, cols - 1, col_stride);
  s.assign(a(idx("i"), idx("j")),
           idx("i") * 100.0 + idx("j") + call("SQRT", {idx("i") + 1.0}));
  return pb.build().value();
}

TEST(ParallelDirectives, CollapsedNestsBitwise) {
  REQUIRE_CC();
  // A square nest, the paper's 2 x 60 complex-loop shape, whose
  // COLLAPSE(2) band spreads 120 points over the ranks instead of the 2
  // outer ones, and a strided nest.
  struct Case {
    const char* name;
    Program program;
    int threads;
  };
  const Case cases[] = {{"60x60", collapse_program(60, 60), 8},
                        {"2x60", collapse_program(2, 60), 8},
                        {"strided", collapse_program(10, 10, 2, 1, 3), 4},
                        {"12x10", collapse_program(12, 10), 3}};
  for (const Case& c : cases) {
    const ProgramAnalysis pa = analyze_program(c.program);
    EXPECT_EQ(pa.verdict(c.program.find_function("f")->id, 0).collapse, 2)
        << c.name;
    NativeReport report;
    const Inputs par =
        run_machine(c.program, native_opts(c.threads), "f", {}, &report);
    EXPECT_EQ(report.parallel_regions, 1u) << c.name;
    expect_bitwise(run_serial(c.program, "f", {}), par, c.name);
  }
}

TEST(ParallelDirectives, PrivateLocalsBitwise) {
  REQUIRE_CC();
  REQUIRE_OPENMP();
  // A private scalar temporary, written before it is read in every
  // iteration: PRIVATE(t) in the OpenMP build, a per-rank copy in the
  // kernel.
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{512}}});
  auto a = pb.global("a", DataType::kDouble, {E(n)});
  auto fb = pb.function("f");
  auto t = fb.local("t", DataType::kDouble);
  auto s = fb.step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(t(), idx("i") * 2.0);
  s.assign(a(idx("i")), E(t) + call("SQRT", {E(t)}));
  const Program p = pb.build().value();
  const ProgramAnalysis pa = analyze_program(p);
  ASSERT_EQ(pa.verdict(p.find_function("f")->id, 0).private_grids.size(), 1u);

  const Inputs serial = run_serial(p, "f", {});
  NativeReport report;
  expect_bitwise(serial, run_machine(p, native_opts(4), "f", {}, &report),
                 "native");
  EXPECT_EQ(report.parallel_regions, 1u);
  for (const int threads : {1, 4}) {
    expect_bitwise(serial, run_openmp(p, "f", {}, threads),
                   cat("OpenMP C, ", threads, " threads"));
  }
}

// ---- clauses only the OpenMP build threads ---------------------------------

TEST(ParallelDirectives, FloatReductionWithinToleranceAcrossThreadCounts) {
  REQUIRE_OPENMP();
  // Parallel float summation reassociates; the paper's FUN3D check uses
  // an RMS tolerance of 1e-7 for the same reason.
  const Program p = testing::reduce_program();
  const ProgramAnalysis pa = analyze_program(p);
  ASSERT_EQ(pa.verdict(p.find_function("reduce_sum")->id, 0).reductions.size(),
            1u);
  Inputs in{{"x", {}}};
  for (int i = 0; i < 16; ++i) in["x"].push_back(1.0 / (1.0 + i));
  const Inputs serial = run_serial(p, "reduce_sum", in);
  for (const int threads : {1, 2, 4, 8}) {
    expect_near(serial, run_openmp(p, "reduce_sum", in, threads), 1e-12,
                cat(threads, " threads"));
  }
}

TEST(ParallelDirectives, AtomicScatterMatchesSerial) {
  REQUIRE_OPENMP();
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{4096}}});
  auto index = pb.global("index", DataType::kInt, {E(n)});
  auto w = pb.global("w", DataType::kDouble, {E(n)});
  auto out = pb.global("out", DataType::kDouble, {8});
  auto s = pb.function("scatter").step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(out(index(idx("i"))), out(index(idx("i"))) + w(idx("i")));
  const Program p = pb.build().value();
  const ProgramAnalysis pa = analyze_program(p);
  ASSERT_EQ(pa.verdict(p.find_function("scatter")->id, 0).atomic_grids.size(),
            1u);

  // Quarter-valued weights sum exactly in any order: a lost update, not
  // rounding, is the only way to differ.
  Inputs in{{"index", {}}, {"w", {}}};
  for (int i = 0; i < 4096; ++i) {
    in["index"].push_back(i % 8);
    in["w"].push_back(0.25);
  }
  const Inputs serial = run_serial(p, "scatter", in);
  for (const int threads : {2, 4, 8}) {
    expect_bitwise(serial, run_openmp(p, "scatter", in, threads),
                   cat(threads, " threads"));
  }
}

TEST(ParallelDirectives, OrphanedAtomicInCalleeMatchesSerial) {
  REQUIRE_OPENMP();
  // The loop only calls `bump`; the update of `acc` sits in the callee.
  // The force_atomic tweak makes the loop parallel, and the callee's
  // store must then be atomic too (an orphaned ATOMIC directive).
  constexpr int kN = 1 << 18;
  ProgramBuilder pb("m");
  auto acc = pb.global("acc", DataType::kDouble, {2});
  auto bump = pb.function("bump");
  auto k = bump.param("k", DataType::kInt);
  bump.step("s").assign(acc(call("MOD", {E(k), liti(2)})),
                        acc(call("MOD", {E(k), liti(2)})) + 1.0);
  auto loop = pb.function("f").step("loop");
  loop.foreach_("i", 0, kN - 1);
  loop.call_sub("bump", {idx("i")});
  const Program p = pb.build().value();
  TweaksByFunction tweaks;
  tweaks["f"].force_atomic.insert(p.find_grid("acc")->id);
  ASSERT_TRUE(analyze_program(p, tweaks)
                  .verdict(p.find_function("f")->id, 0)
                  .parallelizable);

  const Inputs serial = run_serial(p, "f", {});
  for (const int threads : {2, 4}) {
    expect_bitwise(serial,
                   run_openmp(p, "f", {}, threads, DirectivePolicy::kV0,
                              tweaks),
                   cat(threads, " threads"));
  }
}

TEST(ParallelDirectives, FirstprivateTweakRunsInOpenMpCAndNative) {
  REQUIRE_CC();
  // w(1) is set before the loop and only read inside it, while w(0) is
  // rewritten by every iteration: each rank needs its own copy that
  // starts from the shared values — FIRSTPRIVATE(w), which only the
  // §4.2.1 manual tweak asks for.
  constexpr int kN = 1024;
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {kN});
  auto fb = pb.function("f");
  auto w = fb.local("w", DataType::kDouble, {E(2)});
  auto init = fb.step("init");
  init.assign(w(liti(0)), 0.5);
  init.assign(w(liti(1)), 2.0);
  auto s = fb.step("s");
  s.foreach_("i", 0, kN - 1);
  s.assign(w(liti(0)), w(liti(1)) * idx("i") + 1.0);
  s.assign(a(idx("i")), w(liti(0)) * w(liti(0)) + w(liti(1)));
  const Program p = pb.build().value();
  const GridId w_id = p.find_function("f")->locals[0];
  TweaksByFunction tweaks;
  tweaks["f"].force_firstprivate.insert(w_id);

  const ProgramAnalysis pa = analyze_program(p, tweaks);
  const StepVerdict& v = pa.verdict(p.find_function("f")->id, 1);
  ASSERT_TRUE(v.parallelizable);
  EXPECT_EQ(v.firstprivate_grids, std::vector<GridId>{w_id});
  // The clause text, in both languages.
  CodegenOptions copts;
  copts.language = Language::kC;
  EXPECT_NE(generate_c(p, pa, copts).source.find(
                "#pragma omp parallel for firstprivate(w)"),
            std::string::npos);
  EXPECT_NE(generate_fortran(p, pa).source.find(
                "!$OMP PARALLEL DO FIRSTPRIVATE(w)"),
            std::string::npos);

  const Inputs serial = run_serial(p, "f", {});
  if (have_openmp()) {
    expect_bitwise(serial, run_openmp(p, "f", {}, 4, DirectivePolicy::kV0,
                                      tweaks),
                   "OpenMP C, 4 threads");
  }
  InterpOptions o = native_opts(4);
  o.tweaks = tweaks;
  NativeReport report;
  expect_bitwise(serial, run_machine(p, o, "f", {}, &report), "native");
  EXPECT_TRUE(report.available) << report.fallback_reason;
  EXPECT_EQ(report.parallel_regions, 1u);
}

}  // namespace
}  // namespace glaf
