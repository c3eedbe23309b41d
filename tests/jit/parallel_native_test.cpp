// Parallel native-engine tests: the threaded kernel must be *bitwise*
// identical to the serial kernel under every directive policy — the
// contract the emitter
// guarantees by only threading bit-exact steps, giving each rank its own
// reduction scratch and combining in rank order.
//
// Covered here: the six SARB Table-1 subroutines and the FUN3D
// decomposition (edgejp drives all five §4.2 sub-functions) under
// v0..v3; integer sum/min/max reduction ordering; ownership-banded
// float accumulation; float reductions staying serial; 1-thread ==
// N-thread; serial/parallel cache coexistence; and
// the forced-fallback path without a compiler (serial plans); and the
// cross-entry boundary wall (masked copies never expose stale kernel
// storage) at 1 and 4 threads, which compares bitwise against the plan
// VM: no -0.0 reaches a rank combine in these kernels. The steps these
// kernels keep serial are threaded by the OpenMP C build instead
// (parallel_directives_test.cpp).
//
// Equality is value equality (== with NaN==NaN), not bit_cast: the
// rank-ordered combine adds each rank's scratch to the target, and
// `x + 0.0` canonicalizes -0.0 to +0.0 — a representation change with
// no value change, exactly what the fuzz oracle's exact legs accept.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/profile.hpp"
#include "fun3d/glaf_full.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "fun3d/mesh.hpp"
#include "interp/machine.hpp"
#include "jit/cache.hpp"
#include "jit/gate.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"
#include "testing/cross_entry.hpp"
#include "testing/programs.hpp"

namespace glaf {
namespace {

bool have_cc() { return cc_available("cc"); }

std::string fresh_cache_dir(const std::string& tag) {
  std::string tmpl = cat(::testing::TempDir(), "glaf_pcache_", tag, "_XXXXXX");
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : tmpl;
}

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

InterpOptions serial_native() {
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  return o;
}

InterpOptions parallel_native(DirectivePolicy policy, int threads = 4) {
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  o.parallel = true;
  o.num_threads = threads;
  o.policy = policy;
  // These tests exercise the dispatch machinery itself, so the profit
  // gate must not divert small regions to the serial path (the measured
  // default keeps most of them serial, and a single-core host all).
  o.gate_always_dispatch = true;
  return o;
}

constexpr DirectivePolicy kAllPolicies[] = {
    DirectivePolicy::kV0, DirectivePolicy::kV1, DirectivePolicy::kV2,
    DirectivePolicy::kV3};

/// Value equality with NaN==NaN (see the file comment for why this is
/// the right comparator, not bit_cast).
void expect_value_equal(double a, double b, const std::string& what) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_TRUE(a == b) << what << ": reference " << a << " vs " << b;
}

void require_native(const Machine& m) {
  ASSERT_TRUE(m.native_report().available)
      << "native engine unavailable: " << m.native_report().fallback_reason;
}

void compare_all_globals(Machine& reference, Machine& other,
                         const std::string& tag) {
  for (const GridId id : reference.program().global_grids) {
    const Grid& g = reference.program().grid(id);
    if (g.is_struct()) continue;
    const std::vector<double> a = reference.array(g.name).value();
    const std::vector<double> b = other.array(g.name).value();
    ASSERT_EQ(a.size(), b.size()) << tag << ": " << g.name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      expect_value_equal(a[i], b[i], cat(tag, ": ", g.name, "[", i, "]"));
    }
  }
}

// ---- case-study kernels -----------------------------------------------------

TEST(ParallelNativeSarb, Table1SubroutinesBitIdenticalUnderAllPolicies) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("sarb"));
  const Program sarb = fuliou::build_sarb_program();
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(7);
  for (const DirectivePolicy policy : kAllPolicies) {
    for (const std::string& name : fuliou::table1_subroutines()) {
      const Function* fn = sarb.find_function(name);
      if (fn == nullptr || !fn->params.empty()) continue;
      const std::string tag = cat(name, "/", to_string(policy));
      Machine serial(sarb, serial_native());
      Machine par(sarb, parallel_native(policy));
      require_native(serial);
      require_native(par);
      for (Machine* m : {&serial, &par}) {
        ASSERT_TRUE(fuliou::load_profile(*m, profile).is_ok()) << tag;
        ASSERT_TRUE(m->call(name).is_ok()) << tag;
      }
      EXPECT_GT(par.native_report().native_calls, 0u) << tag;
      compare_all_globals(serial, par, tag);
    }
  }
}

TEST(ParallelNativeSarb, OneThreadEqualsEightThreads) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("threads"));
  const Program sarb = fuliou::build_sarb_program();
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(11);
  Machine one(sarb, parallel_native(DirectivePolicy::kV0, 1));
  Machine eight(sarb, parallel_native(DirectivePolicy::kV0, 8));
  for (Machine* m : {&one, &eight}) {
    require_native(*m);
    ASSERT_TRUE(fuliou::load_profile(*m, profile).is_ok());
    ASSERT_TRUE(m->call("longwave_entropy_model").is_ok());
  }
  EXPECT_EQ(one.native_report().num_threads, 1);
  EXPECT_EQ(eight.native_report().num_threads, 8);
  EXPECT_GT(eight.native_report().parallel_regions, 0u);
  compare_all_globals(one, eight, "1-vs-8-threads");
}

TEST(ParallelNativeFun3d, SubFunctionsBitIdenticalUnderAllPolicies) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("fun3d"));
  // edgejp drives all five §4.2 sub-functions (cell_loop, edge_loop,
  // angle_check, ioff_search via the call tree, plus face_weight).
  const fun3d::Mesh mesh = fun3d::make_mesh(60, 3);
  const Program p = fun3d::build_fun3d_full_program(mesh);
  for (const DirectivePolicy policy : kAllPolicies) {
    const std::string tag = cat("edgejp/", to_string(policy));
    Machine serial(p, serial_native());
    Machine par(p, parallel_native(policy));
    require_native(serial);
    require_native(par);
    for (Machine* m : {&serial, &par}) {
      ASSERT_TRUE(fun3d::load_mesh(*m, mesh).is_ok()) << tag;
      ASSERT_TRUE(m->call("edgejp").is_ok()) << tag;
    }
    EXPECT_GT(par.native_report().native_calls, 0u) << tag;
    compare_all_globals(serial, par, tag);
  }
}

TEST(ParallelNativeFun3d, SmallKernelsBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("fun3d_small"));
  const Program p = fun3d::build_fun3d_glaf_program();
  for (const std::string& name :
       {std::string("edge_scatter"), std::string("smooth_q")}) {
    for (const DirectivePolicy policy : kAllPolicies) {
      const std::string tag = cat(name, "/", to_string(policy));
      Machine serial(p, serial_native());
      Machine par(p, parallel_native(policy));
      require_native(serial);
      require_native(par);
      for (Machine* m : {&serial, &par}) {
        testing::load_fun3d_glaf(*m);
        ASSERT_TRUE(m->call(name).is_ok()) << tag;
      }
      compare_all_globals(serial, par, tag);
    }
  }
}

// ---- cross-entry boundary ---------------------------------------------------

// One parallel kernel Machine per thread count runs the whole sequence,
// with every region dispatched (gate off). Bitwise against the serial
// plan VM after each call.
TEST(ParallelNativeCrossEntry, SarbForwardThenReverseAtOneAndFourThreads) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("wall_sarb"));
  const Program sarb = fuliou::build_sarb_program();
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(5);
  for (const int threads : {1, 4}) {
    testing::run_cross_entry_wall(
        sarb, parallel_native(DirectivePolicy::kV0, threads),
        [&](Machine& m) {
          ASSERT_TRUE(fuliou::load_profile(m, profile).is_ok());
        },
        testing::sarb_wall_sequence(sarb), cat("sarb/", threads, "t"));
  }
}

// The shipped default: the measured gate, whose call sites switch
// between the dispatched and the serial branch while they probe and
// revisit. Every entry runs often enough to cross its sites' probe window
// and their first revisit, each call bitwise against the plan VM.
TEST(ParallelNativeCrossEntry, SarbAtTheMeasuredGateAtOneAndFourThreads) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("wall_gate"));
  const Program sarb = fuliou::build_sarb_program();
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(5);
  // sarb_wall_sequence runs each entry twice.
  const std::vector<std::string> round = testing::sarb_wall_sequence(sarb);
  const long calls_per_entry =
      2 * jit::kGateProbeRuns + jit::kGateRevisitFirst + 2;
  std::vector<std::string> sequence;
  for (long r = 0; r < (calls_per_entry + 1) / 2; ++r) {
    sequence.insert(sequence.end(), round.begin(), round.end());
  }
  for (const int threads : {1, 4}) {
    InterpOptions measured = parallel_native(DirectivePolicy::kV0, threads);
    measured.gate_always_dispatch = false;
    NativeReport report;
    testing::run_cross_entry_wall(
        sarb, measured,
        [&](Machine& m) {
          ASSERT_TRUE(fuliou::load_profile(m, profile).is_ok());
        },
        sequence, cat("sarb-gate/", threads, "t"), &report);
    if (threads > 1 && std::thread::hardware_concurrency() > 1) {
      EXPECT_EQ(report.gate_mode, "measured");
      EXPECT_GE(report.gate_probes,
                static_cast<std::uint64_t>(2 * jit::kGateProbeRuns + 2));
    } else {
      EXPECT_EQ(report.gate_mode, "serial");
      EXPECT_EQ(report.gate_probes, 0u);
      EXPECT_EQ(report.parallel_regions, 0u);
    }
  }
}

TEST(ParallelNativeCrossEntry, Fun3dPairBothOrdersAtOneAndFourThreads) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("wall_fun3d"));
  const Program p = fun3d::build_fun3d_glaf_program();
  for (const int threads : {1, 4}) {
    testing::run_cross_entry_wall(
        p, parallel_native(DirectivePolicy::kV0, threads),
        testing::load_fun3d_glaf, testing::kFun3dWallSequence,
        cat("fun3d/", threads, "t"));
  }
}

TEST(ParallelNativeCrossEntry, ExtentOnlyGlobalsAtOneAndFourThreads) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("wall_extent"));
  for (const int threads : {1, 4}) {
    testing::run_extent_reads_check(
        parallel_native(DirectivePolicy::kV0, threads),
        cat("extent/", threads, "t"));
  }
}

// ---- reduction ordering -----------------------------------------------------

/// total += a(i) over an INTEGER array: an exact reduction the emitter
/// may thread (per-rank scratch, rank-ordered combine).
Program int_reduce_program(int n) {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kInt, {E(n)});
  auto total = pb.global("total", DataType::kInt);
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, n - 1);
  s.assign(total(), E(total) + a(idx("i")));
  return pb.build().value();
}

TEST(ParallelNativeReductions, IntSumBitwiseAcrossThreadCounts) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("intsum"));
  const Program p = int_reduce_program(64);
  std::vector<double> a(64);
  for (int i = 0; i < 64; ++i) a[static_cast<std::size_t>(i)] = (i * 13) % 31 - 15;
  Machine serial(p, serial_native());
  require_native(serial);
  ASSERT_TRUE(serial.set_array("a", a).is_ok());
  ASSERT_TRUE(serial.call("f").is_ok());
  const double expected = serial.scalar("total").value();
  for (const int threads : {1, 2, 4, 8}) {
    Machine par(p, parallel_native(DirectivePolicy::kV0, threads));
    require_native(par);
    ASSERT_TRUE(par.set_array("a", a).is_ok());
    ASSERT_TRUE(par.call("f").is_ok());
    EXPECT_EQ(par.native_report().parallel_calls, 1u) << threads;
    EXPECT_GT(par.native_report().parallel_regions, 0u) << threads;
    expect_value_equal(expected, par.scalar("total").value(),
                       cat("total@", threads, " threads"));
  }
}

TEST(ParallelNativeReductions, IntMinMaxBitwise) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("minmax"));
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kInt, {E(48)});
  auto lo = pb.global("lo", DataType::kInt);
  auto hi = pb.global("hi", DataType::kInt);
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, 47);
  s.assign(lo(), call("MIN", {E(lo), a(idx("i"))}));
  s.assign(hi(), call("MAX", {E(hi), a(idx("i"))}));
  const Program p = pb.build().value();
  std::vector<double> a_in(48);
  for (int i = 0; i < 48; ++i) {
    a_in[static_cast<std::size_t>(i)] = (i * 37) % 101 - 50;
  }
  const auto run = [&](InterpOptions o) {
    Machine m(p, o);
    require_native(m);
    EXPECT_TRUE(m.set_scalar("lo", 1000).is_ok());
    EXPECT_TRUE(m.set_scalar("hi", -1000).is_ok());
    EXPECT_TRUE(m.set_array("a", a_in).is_ok());
    EXPECT_TRUE(m.call("f").is_ok());
    return std::pair<double, double>{m.scalar("lo").value(),
                                     m.scalar("hi").value()};
  };
  const auto serial = run(serial_native());
  const auto par = run(parallel_native(DirectivePolicy::kV0, 8));
  expect_value_equal(serial.first, par.first, "lo");
  expect_value_equal(serial.second, par.second, "hi");
}

TEST(ParallelNativeReductions, FloatSumStaysSerialInsideTheKernel) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("floatsum"));
  // A float sum is order-sensitive, so it is not bit-exact: the parallel
  // kernel must run it serially (no ranged dispatch) and stay bitwise
  // equal to the serial kernel.
  const Program p = testing::reduce_program();
  std::vector<double> x(16);
  for (int i = 0; i < 16; ++i) x[static_cast<std::size_t>(i)] = 1.0 / (1.0 + i);
  const auto run = [&](InterpOptions o, std::uint64_t* regions) {
    Machine m(p, o);
    require_native(m);
    EXPECT_TRUE(m.set_array("x", x).is_ok());
    EXPECT_TRUE(m.call("reduce_sum").is_ok());
    if (regions != nullptr) *regions = m.native_report().parallel_regions;
    return m.scalar("total").value();
  };
  const double serial = run(serial_native(), nullptr);
  std::uint64_t regions = ~std::uint64_t{0};
  const double par =
      run(parallel_native(DirectivePolicy::kV0, 8), &regions);
  EXPECT_EQ(regions, 0u) << "float reduction must not be threaded";
  expect_value_equal(serial, par, "total");
}

// ---- collapsed (flat-banded) ranges -----------------------------------------

/// Loop nests the emitter collapses into one flat range: its range
/// function unflattens the chunk start once and walks rows, so chunks that
/// start or end mid-row, or are shorter than a row, are the cases to pin.
/// Trip counts come from global scalars, so one kernel runs every shape:
///  - fwd: r x c, j = 1, 4, ... (stride 3);
///  - bwd: r x c, j = 2c-1 down to 1 (stride -2);
///  - cube: a x b x d, depth-3 collapse;
///  - tri: r x c collapsed, with an inner k = 0..j loop the collapse cannot
///    take (its bound reads j).
Program collapsed_program() {
  ProgramBuilder pb("m");
  const auto scalar = [&](const char* name) {
    return pb.global(name, DataType::kInt, {}, {.init = {std::int64_t{1}}});
  };
  auto r = scalar("r");
  auto c = scalar("c");
  auto a = scalar("a");
  auto b = scalar("b");
  auto d = scalar("d");
  auto x = pb.global("x", DataType::kDouble, {E(9), E(32)});
  auto y = pb.global("y", DataType::kDouble, {E(9), E(32)});
  auto w = pb.global("w", DataType::kDouble, {E(9), E(32)});
  auto x3 = pb.global("x3", DataType::kDouble, {E(9), E(12), E(12)});
  auto z = pb.global("z", DataType::kDouble, {E(9), E(12), E(12)});
  auto t = pb.global("t", DataType::kDouble, {E(9), E(12), E(12)});
  auto fb = pb.function("f");
  auto fwd = fb.step("fwd");
  fwd.foreach_("i", 0, E(r) - 1).foreach_("j", 1, E(c) * 3 - 2, 3);
  fwd.assign(y(idx("i"), idx("j")),
             x(idx("i"), idx("j")) * 0.5 + idx("i") * 7.0 + idx("j"));
  auto bwd = fb.step("bwd");
  bwd.foreach_("i", 0, E(r) - 1).foreach_("j", E(c) * 2 - 1, 1, -2);
  bwd.assign(w(idx("i"), idx("j")),
             x(idx("i"), idx("j")) - idx("i") + idx("j") * 0.25);
  auto cube = fb.step("cube");
  cube.foreach_("i", 0, E(a) - 1)
      .foreach_("j", 0, E(b) - 1)
      .foreach_("k", 0, E(d) - 1);
  cube.assign(z(idx("i"), idx("j"), idx("k")),
              x3(idx("i"), idx("j"), idx("k")) * 2.0 + idx("i") * 100.0 +
                  idx("j") * 10.0 + idx("k"));
  auto tri = fb.step("tri");
  tri.foreach_("i", 0, E(r) - 1)
      .foreach_("j", 0, E(c) - 1)
      .foreach_("k", 0, idx("j"));
  tri.assign(t(idx("i"), idx("j"), idx("k")),
             x3(idx("i"), idx("j"), idx("k")) + idx("k") * 0.5);
  return pb.build().value();
}

TEST(ParallelNativeCollapse, RaggedPartitionsBitwiseAtOneToFourRanks) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("collapse"));
  const Program p = collapsed_program();
  {
    // Every step is flat-banded (no ownership band) at its full depth.
    Machine probe(p, serial_native());
    const auto& verdicts =
        probe.analysis().verdicts.at(p.find_function("f")->id);
    ASSERT_EQ(verdicts.size(), 4u);
    const int depth[] = {2, 2, 3, 2};
    for (std::size_t s = 0; s < verdicts.size(); ++s) {
      ASSERT_TRUE(verdicts[s].bit_exact) << verdict_to_string(p, verdicts[s]);
      EXPECT_LT(verdicts[s].exact_partition_dim, 0) << s;
      EXPECT_EQ(verdicts[s].collapse, depth[s]) << s;
    }
  }
  // (r, c) for fwd/bwd/tri and (a, b, d) for cube: rows longer and
  // shorter than a chunk, single rows and single columns.
  struct Shape {
    int r, c, a, b, d;
  };
  const Shape shapes[] = {{7, 5, 5, 1, 3},  {1, 9, 1, 1, 7},
                          {9, 1, 2, 3, 4},  {3, 4, 3, 5, 2},
                          {5, 11, 4, 2, 3}, {2, 3, 9, 1, 1}};
  InterpOptions plan;
  plan.engine = ExecEngine::kPlan;
  for (const int threads : {1, 2, 3, 4}) {
    Machine reference(p, plan);
    Machine native(p, parallel_native(DirectivePolicy::kV0, threads));
    require_native(native);
    int round = 0;
    for (const Shape& sh : shapes) {
      const std::string tag = cat(threads, " ranks, ", sh.r, "x", sh.c, ", ",
                                  sh.a, "x", sh.b, "x", sh.d);
      testing::overwrite_floating_globals(reference, native, round++);
      for (Machine* m : {&reference, &native}) {
        for (const auto& [name, v] :
             {std::pair<const char*, int>{"r", sh.r}, {"c", sh.c},
              {"a", sh.a}, {"b", sh.b}, {"d", sh.d}}) {
          ASSERT_TRUE(m->set_scalar(name, v).is_ok()) << name;
        }
        ASSERT_TRUE(m->call("f").is_ok()) << tag;
      }
      testing::expect_globals_bitwise(reference, native, tag);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_EQ(native.native_report().parallel_regions,
              4 * std::size(shapes))
        << threads;
  }
}

// ---- ownership-banded accumulation ------------------------------------------

/// acc(i) += w(i,j) under a collapse(2) directive: element acc(i) is
/// updated by several j iterations, so a flat partition would race —
/// the ownership band partitions on i only, keeping each element's
/// serial accumulation order even for floats.
Program ownership_program() {
  ProgramBuilder pb("m");
  auto w = pb.global("w", DataType::kDouble, {E(8), E(16)});
  auto acc = pb.global("acc", DataType::kDouble, {E(8)});
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, 7).foreach_("j", 0, 15);
  s.assign(acc(idx("i")), acc(idx("i")) + w(idx("i"), idx("j")));
  return pb.build().value();
}

TEST(ParallelNativeOwnership, BandedFloatAccumulationBitwise) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("owner"));
  const Program p = ownership_program();
  // The analysis must classify this as bit-exact *with* an ownership
  // band (atomic grid covered by the pure 'i' subscript).
  const Function* fn = p.find_function("f");
  ASSERT_NE(fn, nullptr);
  Machine probe(p, serial_native());
  const auto& verdicts = probe.analysis().verdicts.at(fn->id);
  ASSERT_EQ(verdicts.size(), 1u);
  ASSERT_TRUE(verdicts[0].bit_exact) << verdict_to_string(p, verdicts[0]);
  ASSERT_GE(verdicts[0].exact_partition_dim, 0)
      << verdict_to_string(p, verdicts[0]);

  std::vector<double> w_in(8 * 16);
  for (std::size_t i = 0; i < w_in.size(); ++i) {
    w_in[i] = 1.0 / (3.0 + static_cast<double>(i));
  }
  const auto run = [&](InterpOptions o, std::uint64_t* regions) {
    Machine m(p, o);
    require_native(m);
    EXPECT_TRUE(m.set_array("w", w_in).is_ok());
    EXPECT_TRUE(m.call("f").is_ok());
    if (regions != nullptr) *regions = m.native_report().parallel_regions;
    return m.array("acc").value();
  };
  const std::vector<double> serial = run(serial_native(), nullptr);
  for (const int threads : {2, 8}) {
    std::uint64_t regions = 0;
    const std::vector<double> par =
        run(parallel_native(DirectivePolicy::kV0, threads), &regions);
    EXPECT_GT(regions, 0u) << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_value_equal(serial[i], par[i],
                         cat("acc[", i, "]@", threads, " threads"));
    }
  }
}

// ---- cache configuration ----------------------------------------------------

TEST(ParallelNativeCache, SerialAndParallelObjectsCoexist) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const std::string dir = fresh_cache_dir("coexist");
  const ScopedEnv env("GLAF_KERNEL_CACHE", dir);
  const Program p = testing::saxpy_program();
  Machine serial(p, serial_native());
  Machine par(p, parallel_native(DirectivePolicy::kV0));
  require_native(serial);
  require_native(par);
  EXPECT_NE(serial.native_report().object_path,
            par.native_report().object_path);
  // Both entries live on under the same directory; a second pair of
  // machines hits both caches.
  Machine serial2(p, serial_native());
  Machine par2(p, parallel_native(DirectivePolicy::kV0));
  require_native(serial2);
  require_native(par2);
  EXPECT_TRUE(serial2.native_report().cache_hit);
  EXPECT_TRUE(par2.native_report().cache_hit);
}

TEST(ParallelNativeCache, KeySeparatesEngineConfig) {
  const std::string base = jit::KernelCache::key("int x;", "cc", "-O2");
  EXPECT_EQ(base, jit::KernelCache::key("int x;", "cc", "-O2", ""));
  const std::string serial_key =
      jit::KernelCache::key("int x;", "cc", "-O2", "parallel=0;policy=v0");
  const std::string par_key =
      jit::KernelCache::key("int x;", "cc", "-O2", "parallel=1;policy=v0");
  EXPECT_EQ(serial_key.size(), 32u);
  EXPECT_NE(serial_key, base);
  EXPECT_NE(serial_key, par_key);
  EXPECT_NE(par_key,
            jit::KernelCache::key("int x;", "cc", "-O2", "parallel=1;policy=v2"));
}

// ---- forced fallback --------------------------------------------------------

TEST(ParallelNativeFallback, MissingCompilerFallsBackToSerialPlans) {
  const ScopedEnv env("GLAF_CC", "/nonexistent/compiler");
  const Program p = int_reduce_program(32);
  Machine m(p, parallel_native(DirectivePolicy::kV0, 4));
  EXPECT_FALSE(m.native_report().available);
  EXPECT_FALSE(m.native_report().fallback_reason.empty());
  EXPECT_EQ(m.native_report().num_threads, 1);
  std::vector<double> a(32);
  for (int i = 0; i < 32; ++i) a[static_cast<std::size_t>(i)] = i - 16;
  Machine serial(p, InterpOptions{});
  for (Machine* mm : {&serial, &m}) {
    ASSERT_TRUE(mm->set_array("a", a).is_ok());
    ASSERT_TRUE(mm->call("f").is_ok());
  }
  EXPECT_EQ(m.native_report().native_calls, 0u);
  EXPECT_GE(m.native_report().fallback_calls, 1u);
  expect_value_equal(serial.scalar("total").value(),
                     m.scalar("total").value(), "total");
}

}  // namespace
}  // namespace glaf
