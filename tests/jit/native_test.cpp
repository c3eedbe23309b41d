// Native-engine tests: (a) bit-identical differentials against the plan
// engine on the drift-prone semantics (integer DIV/MOD truncation, NaN
// through MIN/MAX, INTEGER-store truncation) and on the checked-in
// example kernels (SARB Table 1, FUN3D), (b) the kernel cache's
// cold/warm compile behaviour, corruption recovery and directory
// override, and (c) the fallback policy when no compiler is available
// or a program has no flat-argument-block layout, plus (d) the
// cross-entry boundary wall: entry wrappers copy only the scalars their
// function touches, and stale kernel storage must never be observed,
// and (e) the in-place boundary: kernels of both tiers bind every
// global array they store as double to the host's buffer, only after
// every extent checks out, and only when no two slots share storage.
//
// Every test that needs the system compiler GTEST_SKIPs without one.

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/profile.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "interp/machine.hpp"
#include "jit/cache.hpp"
#include "jit/emit.hpp"
#include "jit/engine.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"
#include "testing/cross_entry.hpp"
#include "testing/programs.hpp"

namespace glaf {
namespace {

bool have_cc() { return cc_available("cc"); }

/// Fresh per-test cache directory under the gtest temp root, so cache
/// tests see exactly their own entries.
std::string fresh_cache_dir(const std::string& tag) {
  std::string tmpl = cat(::testing::TempDir(), "glaf_cache_", tag, "_XXXXXX");
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : tmpl;
}

/// Scoped environment override (restores the previous value).
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

InterpOptions native_opts() {
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  return o;
}

InterpOptions plan_opts() {
  InterpOptions o;
  o.engine = ExecEngine::kPlan;
  return o;
}

void expect_bit_equal(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": plan " << a << " vs native " << b;
}

/// Assert the machine actually loaded its kernel (tests that exist to
/// prove native execution must not silently pass through the fallback).
void require_native(const Machine& m) {
  ASSERT_TRUE(m.native_report().available)
      << "native engine unavailable: " << m.native_report().fallback_reason;
}

// ---- bit-identical semantics ----------------------------------------------

TEST(NativeVsPlan, IntegerDivisionTruncates) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  ProgramBuilder pb("m");
  auto ia = pb.global("ia", DataType::kInt);
  auto ib = pb.global("ib", DataType::kInt);
  auto q = pb.global("q", DataType::kInt);
  auto fb = pb.function("f");
  fb.step("s").assign(q(), E(ia) / E(ib));
  const Program p = pb.build().value();

  const double cases[][3] = {
      {-7, 2, -3}, {7, -2, -3}, {-7, -2, 3}, {7, 2, 3}, {1, 3, 0}};
  for (const auto& c : cases) {
    Machine pl(p, plan_opts());
    Machine nat(p, native_opts());
    require_native(nat);
    for (Machine* m : {&pl, &nat}) {
      ASSERT_TRUE(m->set_scalar("ia", c[0]).is_ok());
      ASSERT_TRUE(m->set_scalar("ib", c[1]).is_ok());
      ASSERT_TRUE(m->call("f").is_ok());
    }
    EXPECT_GT(nat.native_report().native_calls, 0u);
    EXPECT_DOUBLE_EQ(nat.scalar("q").value(), c[2]);
    expect_bit_equal(pl.scalar("q").value(), nat.scalar("q").value(), "q");
  }
}

TEST(NativeVsPlan, ModIsFmodOnNegatives) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  ProgramBuilder pb("m");
  auto x = pb.global("x", DataType::kDouble);
  auto y = pb.global("y", DataType::kDouble);
  auto r = pb.global("r", DataType::kDouble);
  auto ix = pb.global("ix", DataType::kInt);
  auto iy = pb.global("iy", DataType::kInt);
  auto ir = pb.global("ir", DataType::kInt);
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.assign(r(), call("MOD", {E(x), E(y)}));
  s.assign(ir(), call("MOD", {E(ix), E(iy)}));
  const Program p = pb.build().value();

  const double cases[][2] = {{-7, 3}, {7, -3}, {-7.5, 2.5}, {8.25, 3.5}};
  for (const auto& c : cases) {
    Machine pl(p, plan_opts());
    Machine nat(p, native_opts());
    require_native(nat);
    for (Machine* m : {&pl, &nat}) {
      ASSERT_TRUE(m->set_scalar("x", c[0]).is_ok());
      ASSERT_TRUE(m->set_scalar("y", c[1]).is_ok());
      ASSERT_TRUE(m->set_scalar("ix", std::trunc(c[0])).is_ok());
      ASSERT_TRUE(m->set_scalar("iy", std::trunc(c[1])).is_ok());
      ASSERT_TRUE(m->call("f").is_ok());
    }
    expect_bit_equal(pl.scalar("r").value(), nat.scalar("r").value(), "r");
    expect_bit_equal(pl.scalar("ir").value(), nat.scalar("ir").value(), "ir");
  }
}

TEST(NativeVsPlan, NanThroughMinMaxIsBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  ProgramBuilder pb("m");
  auto x = pb.global("x", DataType::kDouble);
  auto lo = pb.global("lo", DataType::kDouble);
  auto hi = pb.global("hi", DataType::kDouble);
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.assign(lo(), call("MIN", {E(x), E(1.0)}));
  s.assign(hi(), call("MAX", {E(1.0), E(x)}));
  const Program p = pb.build().value();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  Machine pl(p, plan_opts());
  Machine nat(p, native_opts());
  require_native(nat);
  for (Machine* m : {&pl, &nat}) {
    ASSERT_TRUE(m->set_scalar("x", nan).is_ok());
    ASSERT_TRUE(m->call("f").is_ok());
  }
  expect_bit_equal(pl.scalar("lo").value(), nat.scalar("lo").value(), "lo");
  expect_bit_equal(pl.scalar("hi").value(), nat.scalar("hi").value(), "hi");
}

TEST(NativeVsPlan, IntegerStoreTruncates) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  ProgramBuilder pb("m");
  auto x = pb.global("x", DataType::kDouble);
  auto k = pb.global("k", DataType::kInt);
  auto fb = pb.function("f");
  fb.step("s").assign(k(), E(x) * 1.0);
  const Program p = pb.build().value();

  for (const double v : {2.75, -2.75, 0.5, -0.5}) {
    Machine pl(p, plan_opts());
    Machine nat(p, native_opts());
    require_native(nat);
    for (Machine* m : {&pl, &nat}) {
      ASSERT_TRUE(m->set_scalar("x", v).is_ok());
      ASSERT_TRUE(m->call("f").is_ok());
    }
    EXPECT_DOUBLE_EQ(nat.scalar("k").value(), std::trunc(v));
    expect_bit_equal(pl.scalar("k").value(), nat.scalar("k").value(), "k");
  }
}

/// out = k * 2 + b for a scalar parameter k: exercises the wrapper's
/// flat scalar-argument block and the FUNCTION return path.
Program scaled_program() {
  ProgramBuilder pb("m");
  auto out = pb.global("out", DataType::kDouble);
  auto b = pb.global("b", DataType::kDouble);
  auto fb = pb.function("f", DataType::kDouble);
  auto k = fb.param("k", DataType::kDouble);
  auto s = fb.step("s");
  s.assign(out(), E(k) * 2.0 + E(b));
  s.ret(E(out) + 1.0);
  return pb.build().value();
}

TEST(NativeVsPlan, ScalarArgumentsAndReturnValues) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program p = scaled_program();
  Machine pl(p, plan_opts());
  Machine nat(p, native_opts());
  require_native(nat);
  for (Machine* m : {&pl, &nat}) ASSERT_TRUE(m->set_scalar("b", 0.125).is_ok());
  const StatusOr<double> r_pl = pl.call("f", {CallArg{2.5}});
  const StatusOr<double> r_nat = nat.call("f", {CallArg{2.5}});
  ASSERT_TRUE(r_pl.is_ok());
  ASSERT_TRUE(r_nat.is_ok());
  EXPECT_GT(nat.native_report().native_calls, 0u);
  expect_bit_equal(r_pl.value(), r_nat.value(), "return");
  expect_bit_equal(pl.scalar("out").value(), nat.scalar("out").value(), "out");
}

TEST(NativeVsPlan, WholeArrayStateBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program p = testing::saxpy_program();
  Machine pl(p, plan_opts());
  Machine nat(p, native_opts());
  require_native(nat);
  for (Machine* m : {&pl, &nat}) {
    ASSERT_TRUE(m->set_scalar("a", 2.5).is_ok());
    ASSERT_TRUE(m->set_array("x", {1, 2, 3, 4, 5, 6, 7, 8}).is_ok());
    ASSERT_TRUE(m->call("saxpy").is_ok());
  }
  EXPECT_GT(nat.native_report().native_calls, 0u);
  const std::vector<double> y_pl = pl.array("y").value();
  const std::vector<double> y_nat = nat.array("y").value();
  ASSERT_EQ(y_pl.size(), y_nat.size());
  for (std::size_t i = 0; i < y_pl.size(); ++i) {
    expect_bit_equal(y_pl[i], y_nat[i], cat("y[", i, "]"));
  }
}

// ---- example kernels --------------------------------------------------------

void compare_all_globals(Machine& pl, Machine& nat) {
  for (const GridId id : pl.program().global_grids) {
    const Grid& g = pl.program().grid(id);
    if (g.is_struct()) continue;
    const std::vector<double> a = pl.array(g.name).value();
    const std::vector<double> b = nat.array(g.name).value();
    ASSERT_EQ(a.size(), b.size()) << g.name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      expect_bit_equal(a[i], b[i], cat(g.name, "[", i, "]"));
    }
  }
}

TEST(NativeExamples, SarbTable1SubroutinesBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program sarb = fuliou::build_sarb_program();
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(1);
  for (const std::string& name : fuliou::table1_subroutines()) {
    const Function* fn = sarb.find_function(name);
    if (fn == nullptr || !fn->params.empty()) continue;
    Machine pl(sarb, plan_opts());
    Machine nat(sarb, native_opts());
    require_native(nat);
    for (Machine* m : {&pl, &nat}) {
      ASSERT_TRUE(fuliou::load_profile(*m, profile).is_ok());
      ASSERT_TRUE(m->call(name).is_ok()) << name;
    }
    EXPECT_GT(nat.native_report().native_calls, 0u) << name;
    compare_all_globals(pl, nat);
  }
}

TEST(NativeExamples, Fun3dKernelsBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program p = fun3d::build_fun3d_glaf_program();
  for (const std::string& name :
       {std::string("edge_scatter"), std::string("smooth_q")}) {
    Machine pl(p, plan_opts());
    Machine nat(p, native_opts());
    require_native(nat);
    for (Machine* m : {&pl, &nat}) {
      testing::load_fun3d_glaf(*m);
      ASSERT_TRUE(m->call(name).is_ok()) << name;
    }
    EXPECT_GT(nat.native_report().native_calls, 0u) << name;
    compare_all_globals(pl, nat);
  }
}

// ---- cross-entry boundary ---------------------------------------------------

TEST(CrossEntryWall, SarbForwardThenReverseBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program sarb = fuliou::build_sarb_program();
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(3);
  testing::run_cross_entry_wall(
      sarb, native_opts(),
      [&](Machine& m) {
        ASSERT_TRUE(fuliou::load_profile(m, profile).is_ok());
      },
      testing::sarb_wall_sequence(sarb), "sarb/native");
}

TEST(CrossEntryWall, Fun3dPairBothOrdersBitIdentical) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  testing::run_cross_entry_wall(fun3d::build_fun3d_glaf_program(),
                                native_opts(), testing::load_fun3d_glaf,
                                testing::kFun3dWallSequence, "fun3d/native");
}

TEST(CrossEntryWall, GlobalsReadOnlyThroughExtentsReachTheKernel) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  testing::run_extent_reads_check(native_opts(), "extent/native");
}

/// fill writes all of `a`; half writes only a(0..3) and reads `s`.
Program half_write_program() {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {E(8)});
  auto s = pb.global("s", DataType::kDouble);
  {
    auto fb = pb.function("fill");
    auto st = fb.step("st");
    st.foreach_("i", 0, 7);
    st.assign(a(idx("i")), idx("i") + 100.0);
  }
  {
    auto fb = pb.function("half");
    auto st = fb.step("st");
    st.foreach_("i", 0, 3);
    st.assign(a(idx("i")), E(s) * idx("i"));
  }
  return pb.build().value();
}

TEST(CrossEntryWall, PartialWriteExportsTheHostsOwnBits) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program p = half_write_program();
  Machine pl(p, plan_opts());
  Machine nat(p, native_opts());
  require_native(nat);
  // Host bits the kernel could not reproduce by arithmetic: a signed
  // zero, a NaN payload, a subnormal.
  const std::vector<double> host = {
      1.0, 2.0, 3.0, 4.0, -0.0,
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000abcULL}),
      std::numeric_limits<double>::denorm_min(), -1e300};
  for (Machine* m : {&pl, &nat}) {
    // fill leaves 100..107 in the kernel's own storage for `a`.
    ASSERT_TRUE(m->call("fill").is_ok());
    ASSERT_TRUE(m->set_array("a", host).is_ok());
    ASSERT_TRUE(m->set_scalar("s", 0.5).is_ok());
    ASSERT_TRUE(m->call("half").is_ok());
  }
  EXPECT_EQ(nat.native_report().native_calls, 2u);
  const std::vector<double> got = nat.array("a").value();
  for (std::size_t i = 4; i < host.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(host[i]))
        << "a[" << i << "] lost the host's bits";
  }
  testing::expect_globals_bitwise(pl, nat, "half");
}

TEST(NativeEmit, InterpUnitsCarryPerEntryCopyMasks) {
  const Program sarb = fuliou::build_sarb_program();
  const StatusOr<jit::KernelUnit> unit =
      jit::emit_kernel_unit(sarb, analyze_program(sarb));
  ASSERT_TRUE(unit.is_ok()) << unit.status().message();
  const EffectsMap effects = compute_effects(sarb);
  const auto csv = [](const std::vector<bool>& mask) {
    std::vector<std::string> bits;
    for (const bool b : mask) bits.push_back(b ? "1" : "0");
    return join(bits, ",");
  };
  bool skips_a_slot = false;
  for (const jit::AbiFunction& fn : unit.value().functions) {
    if (!fn.supported) continue;
    const jit::CopyMasks masks =
        jit::copy_masks(sarb, unit.value().slots, effects, fn.name);
    const std::string& src = unit.value().source;
    EXPECT_NE(src.find(cat("glaf_nat_touch_", fn.symbol, "[] = {",
                           csv(masks.touch), "};")),
              std::string::npos)
        << fn.name;
    EXPECT_NE(src.find(cat("glaf_nat_write_", fn.symbol, "[] = {",
                           csv(masks.write), "};")),
              std::string::npos)
        << fn.name;
    EXPECT_NE(src.find(cat("glaf_nat_copy_in(glaf_nat_a, glaf_nat_touch_",
                           fn.symbol, ");")),
              std::string::npos)
        << fn.name;
    EXPECT_NE(src.find(cat("glaf_nat_copy_out(glaf_nat_a, glaf_nat_write_",
                           fn.symbol, ");")),
              std::string::npos)
        << fn.name;
    for (std::size_t i = 0; i < masks.touch.size(); ++i) {
      // Copy-in covers every written slot, so partial writes export the
      // host's values for untouched elements.
      EXPECT_TRUE(masks.touch[i] || !masks.write[i]) << fn.name << " " << i;
      skips_a_slot = skips_a_slot || !masks.touch[i];
    }
  }
  EXPECT_TRUE(skips_a_slot) << "no SARB entry skips any global";
}

TEST(NativeEmit, ExtentReadsEnterTheCopyInMasks) {
  // Expected masks written by hand, slot order n, m, out, buf: the
  // analysis itself is under test here.
  const Program p = testing::extent_reads_program();
  const StatusOr<jit::KernelUnit> unit =
      jit::emit_kernel_unit(p, analyze_program(p));
  ASSERT_TRUE(unit.is_ok()) << unit.status().message();
  const std::string& src = unit.value().source;
  for (const char* mask : {"touch_glaf_nat_call_local_min[] = {1,0,1,0}",
                           "write_glaf_nat_call_local_min[] = {0,0,1,0}",
                           "touch_glaf_nat_call_scatter2[] = {0,1,0,1}",
                           "write_glaf_nat_call_scatter2[] = {0,0,0,1}",
                           "touch_glaf_nat_call_set_n[] = {1,1,0,0}",
                           "write_glaf_nat_call_set_n[] = {1,1,0,0}"}) {
    EXPECT_NE(src.find(cat("glaf_nat_", mask, ";")), std::string::npos)
        << mask;
  }
}

TEST(NativeEmit, MissingEffectSummaryCopiesEverything) {
  const Program sarb = fuliou::build_sarb_program();
  const StatusOr<jit::KernelUnit> unit =
      jit::emit_kernel_unit(sarb, analyze_program(sarb));
  ASSERT_TRUE(unit.is_ok()) << unit.status().message();
  const std::vector<jit::AbiSlot>& slots = unit.value().slots;
  const std::vector<bool> ones(slots.size(), true);
  for (const EffectsMap& effects : {EffectsMap{}, compute_effects(sarb)}) {
    const std::string name = effects.empty() ? "adjust2" : "no_such_function";
    const jit::CopyMasks masks = jit::copy_masks(sarb, slots, effects, name);
    EXPECT_EQ(masks.touch, ones) << name;
    EXPECT_EQ(masks.write, ones) << name;
  }
}

// ---- in-place boundary ------------------------------------------------------

/// One global array of every kind the wrapper binds: a module extern, a
/// COMMON member, a TYPE element and an owned module variable. `mix`
/// reads and writes all four, so any of them left unbound or bound to
/// the wrong slot shows up in the bitwise comparison.
Program array_kinds_program() {
  ProgramBuilder pb("kinds_mod");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{5}}});
  auto ext = pb.global("ext", DataType::kDouble, {E(n)},
                       {.from_module = "legacy_mod"});
  auto blk = pb.global("blk", DataType::kDouble, {E(n)},
                       {.common_block = "cb"});
  auto mem = pb.global("mem", DataType::kDouble, {E(n)},
                       {.from_module = "legacy_mod", .type_parent = "rec"});
  auto own = pb.global("own", DataType::kDouble, {E(n)},
                       {.module_scope = true});
  auto fb = pb.function("mix");
  auto s = fb.step("Step1");
  s.foreach_("k", 0, E(n) - 1);
  s.assign(own(idx("k")), ext(idx("k")) + blk(idx("k")) * mem(idx("k")));
  s.assign(blk(idx("k")), own(idx("k")) - ext(idx("k")));
  s.assign(mem(idx("k")), own(idx("k")) * 0.5);
  s.assign(ext(idx("k")), E(n) - ext(idx("k")));
  return pb.build().value();
}

/// The wrapper's boundary code: glaf_nat_copy_in and glaf_nat_copy_out.
std::string boundary_text(const std::string& src) {
  const std::size_t begin = src.find("static long glaf_nat_copy_in(");
  const std::size_t end =
      src.find("static const unsigned char glaf_nat_touch_", begin);
  if (begin == std::string::npos || end == std::string::npos) return "";
  return src.substr(begin, end - begin);
}

TEST(NativeEmit, InterpUnitsBindGlobalArraysInPlace) {
  // The interp tier stores everything as double, like the host block,
  // so its wrapper points every global array at the host's buffer: each
  // array is a restrict pointer, and the boundary copies no array in
  // either direction. Serial and parallel units alike.
  for (const Program& p :
       {fuliou::build_sarb_program(), fun3d::build_fun3d_glaf_program(),
        array_kinds_program()}) {
    for (const bool parallel : {false, true}) {
      jit::EmitOptions opts;
      opts.parallel = parallel;
      const StatusOr<jit::KernelUnit> unit =
          jit::emit_kernel_unit(p, analyze_program(p), opts);
      ASSERT_TRUE(unit.is_ok()) << unit.status().message();
      const std::string& src = unit.value().source;
      const std::string boundary = boundary_text(src);
      ASSERT_FALSE(boundary.empty()) << p.module_name;
      EXPECT_EQ(boundary.find("memcpy("), std::string::npos) << p.module_name;
      const std::vector<jit::AbiSlot>& slots = unit.value().slots;
      int arrays = 0;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const Grid& g = p.grid(slots[i].grid);
        if (g.dims.empty()) continue;
        ++arrays;
        EXPECT_NE(src.find(cat("double* restrict ", g.name, ";")),
                  std::string::npos)
            << p.module_name << " " << g.name;
        EXPECT_NE(boundary.find(cat(" = glaf_nat_a->grids[", i, "];")),
                  std::string::npos)
            << p.module_name << " " << g.name;
        EXPECT_EQ(boundary.find(cat("glaf_nat_a->grids[", i, "][")),
                  std::string::npos)
            << p.module_name << " " << g.name << " is copied element-wise";
      }
      EXPECT_GT(arrays, 0) << p.module_name;
    }
  }
}

TEST(NativeEmit, Fun3dEdgeScatterWritesThroughRestrictPointers) {
  // edge_scatter's scatter loop stores into jac while it reads edge_a, q
  // and w. As plain pointers those stores could alias the reads, and the
  // loop would reload them after every store; restrict rules that out.
  // Serial and parallel units alike declare all four restrict and keep
  // the loop in edge_scatter itself, indexing the globals directly.
  const Program p = fun3d::build_fun3d_glaf_program();
  for (const bool parallel : {false, true}) {
    jit::EmitOptions opts;
    opts.parallel = parallel;
    const StatusOr<jit::KernelUnit> unit =
        jit::emit_kernel_unit(p, analyze_program(p), opts);
    ASSERT_TRUE(unit.is_ok()) << unit.status().message();
    const std::string& src = unit.value().source;
    for (const char* name : {"jac", "edge_a", "q", "w"}) {
      EXPECT_NE(src.find(cat("double* restrict ", name, ";")),
                std::string::npos)
          << name << (parallel ? " (parallel)" : "");
    }
    const std::size_t begin = src.find("void edge_scatter(void) {");
    ASSERT_NE(begin, std::string::npos);
    const std::string body =
        src.substr(begin, src.find("\n}\n", begin) - begin);
    EXPECT_NE(body.find("jac[(long)(edge_a[(long)(e)])] = "),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("q[(long)(edge_b[(long)(e)])]"), std::string::npos);
    EXPECT_NE(body.find("w[(long)(e)]"), std::string::npos);
  }
}

TEST(NativeEmit, OptUnitsBindDoubleArraysAndConvertTheRest) {
  // The opt tier stores DOUBLE PRECISION arrays as double, like the host
  // block, so they bind in place exactly as in the interp tier: jac is a
  // restrict pointer and no array is memcpy'd. The INTEGER edge_a is
  // stored as long, so it alone is still converted element by element.
  const Program p = fun3d::build_fun3d_glaf_program();
  jit::EmitOptions opts;
  opts.model = NumericModel::kOpt;
  const StatusOr<jit::KernelUnit> unit =
      jit::emit_kernel_unit(p, analyze_program(p), opts);
  ASSERT_TRUE(unit.is_ok()) << unit.status().message();
  const std::string& src = unit.value().source;
  const std::string boundary = boundary_text(src);
  ASSERT_FALSE(boundary.empty());
  EXPECT_NE(src.find("double* restrict jac;"), std::string::npos);
  EXPECT_EQ(boundary.find("memcpy("), std::string::npos) << boundary;
  std::size_t jac = 0, edge_a = 0;
  const std::vector<jit::AbiSlot>& slots = unit.value().slots;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].name == "jac") jac = i;
    if (slots[i].name == "edge_a") edge_a = i;
  }
  EXPECT_NE(boundary.find(cat("  jac = glaf_nat_a->grids[", jac, "];")),
            std::string::npos);
  EXPECT_NE(src.find("extern long edge_a[512];"), std::string::npos);
  EXPECT_NE(boundary.find(cat("glaf_s = glaf_nat_a->grids[", edge_a,
                              "]; long* restrict glaf_d = edge_a;")),
            std::string::npos)
      << boundary;
  EXPECT_NE(boundary.find("glaf_s = edge_a; double* restrict glaf_d = "
                          "glaf_nat_a->grids["),
            std::string::npos)
      << boundary;
}

/// Both JIT tiers: each binds its double arrays in place
/// (binds_global_array), so the in-place tests below run on each.
constexpr NumericModel kTiers[] = {NumericModel::kInterp, NumericModel::kOpt};

TEST(NativeVsPlan, EveryGlobalArrayKindWorksInPlace) {
  // The interp tier must match the plan VM bitwise; the opt tier within
  // the default budget of its ulp comparator.
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program p = array_kinds_program();
  for (const NumericModel model : kTiers) {
    SCOPED_TRACE(to_string(model));
    InterpOptions opts = native_opts();
    opts.native_model = model;
    Machine pl(p, plan_opts());
    Machine nat(p, opts);
    require_native(nat);
    for (Machine* m : {&pl, &nat}) {
      ASSERT_TRUE(m->set_array("ext", {1, 2, 3, 4, 5}).is_ok());
      ASSERT_TRUE(m->set_array("blk", {0.5, -1, 2, 0.25, 8}).is_ok());
      ASSERT_TRUE(m->set_array("mem", {3, 3, -2, 1, 0}).is_ok());
      ASSERT_TRUE(m->call("mix").is_ok());
      ASSERT_TRUE(m->call("mix").is_ok());
    }
    EXPECT_EQ(nat.native_report().native_calls, 2u);
    if (model == NumericModel::kInterp) {
      compare_all_globals(pl, nat);
    } else {
      testing::expect_globals_ulp(pl, nat, testing::kDefaultUlpBudget,
                                  "array kinds");
    }
  }
}

/// A loaded engine of tier `model` for array_kinds_program, driven
/// directly through the flat argument block.
std::unique_ptr<jit::NativeEngine> array_kinds_engine(const std::string& tag,
                                                      NumericModel model) {
  const Program p = array_kinds_program();
  jit::NativeEngine::Options options;
  options.cache_dir = fresh_cache_dir(tag);
  options.model = model;
  StatusOr<std::unique_ptr<jit::NativeEngine>> engine =
      jit::NativeEngine::create(p, analyze_program(p), options);
  EXPECT_TRUE(engine.is_ok()) << engine.status().message();
  return engine.is_ok() ? std::move(engine).value() : nullptr;
}

/// One host buffer per slot, each element a distinct value.
std::vector<std::vector<double>> host_buffers(const jit::NativeEngine& e) {
  std::vector<std::vector<double>> host;
  for (const jit::AbiSlot& slot : e.slots()) {
    host.emplace_back(static_cast<std::size_t>(slot.elements));
    for (std::size_t k = 0; k < host.back().size(); ++k) {
      host.back()[k] = static_cast<double>(10 * host.size() + k);
    }
  }
  host[0][0] = 5.0;  // n: the extent every array was emitted with
  return host;
}

TEST(NativeLoad, MisSizedBindingIsRefusedBeforeAnyWrite) {
  // Kernels write host buffers in place, so the copy-in extent check is
  // all that stands between a mis-sized binding and a heap overwrite.
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  for (const NumericModel model : kTiers) {
    SCOPED_TRACE(to_string(model));
    const std::unique_ptr<jit::NativeEngine> engine =
        array_kinds_engine("extent_guard", model);
    ASSERT_NE(engine, nullptr);
    const jit::AbiFunction* mix = engine->find("mix");
    ASSERT_NE(mix, nullptr);
    const std::size_t slots = engine->slots().size();
    for (std::size_t bad = 0; bad < slots; ++bad) {
      std::vector<std::vector<double>> host = host_buffers(*engine);
      // One element short of what the kernel expects, in an allocation
      // of exactly that size, so an instrumented kernel that wrote past
      // it would be reported.
      host[bad] = std::vector<double>(host[bad].begin(), host[bad].end() - 1);
      const std::vector<std::vector<double>> before = host;
      for (std::size_t i = 0; i < slots; ++i) {
        engine->bind_global(i, host[i].data(),
                            static_cast<std::int64_t>(host[i].size()));
      }
      const StatusOr<double> result = engine->call(*mix);
      ASSERT_FALSE(result.is_ok()) << "slot " << bad;
      EXPECT_EQ(result.status().code(), StatusCode::kInternal);
      EXPECT_EQ(result.status().message(),
                cat("native kernel rejected slot ", bad,
                    " of 'mix' (extent mismatch)"));
      EXPECT_EQ(host, before) << "a refused call wrote a host buffer";
    }
    // Rightly sized, the same engine runs and writes in place.
    std::vector<std::vector<double>> host = host_buffers(*engine);
    const std::vector<std::vector<double>> before = host;
    for (std::size_t i = 0; i < slots; ++i) {
      engine->bind_global(i, host[i].data(),
                          static_cast<std::int64_t>(host[i].size()));
    }
    ASSERT_TRUE(engine->call(*mix).is_ok());
    EXPECT_NE(host, before);
  }
}

TEST(NativeLoad, OverlappingBindingsAreRefused) {
  // Kernels of either tier declare every double global array restrict
  // and write it in place: sound only while distinct globals have
  // distinct storage. The engine refuses bindings that break that before
  // the kernel runs.
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  for (const NumericModel model : kTiers) {
    SCOPED_TRACE(to_string(model));
    const std::unique_ptr<jit::NativeEngine> engine =
        array_kinds_engine("overlap", model);
    ASSERT_NE(engine, nullptr);
    const jit::AbiFunction* mix = engine->find("mix");
    ASSERT_NE(mix, nullptr);
    const std::size_t slots = engine->slots().size();
    ASSERT_EQ(slots, 5u);  // n, ext, blk, mem, own
    std::vector<std::vector<double>> host = host_buffers(*engine);
    for (std::size_t i = 0; i < slots; ++i) {
      engine->bind_global(i, host[i].data(),
                          static_cast<std::int64_t>(host[i].size()));
    }
    ASSERT_TRUE(engine->call(*mix).is_ok());

    // blk on ext's buffer, then blk two elements into ext's buffer.
    std::vector<double> shared(7, 1.0);
    for (const std::size_t offset : {0u, 2u}) {
      engine->bind_global(1, shared.data(), 5);
      engine->bind_global(2, shared.data() + offset, 5);
      const std::vector<double> before = shared;
      const StatusOr<double> result = engine->call(*mix);
      ASSERT_FALSE(result.is_ok()) << "offset " << offset;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find("share storage"),
                std::string::npos)
          << result.status().message();
      EXPECT_EQ(shared, before);
    }
    // Adjacent but disjoint buffers are fine.
    std::vector<double> pair(10, 1.0);
    engine->bind_global(1, pair.data(), 5);
    engine->bind_global(2, pair.data() + 5, 5);
    EXPECT_TRUE(engine->call(*mix).is_ok());
  }
}

// ---- private kernel copy ----------------------------------------------------

TEST(NativeLoad, PrivateCopyGoesUnderTmpdir) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv cache("GLAF_KERNEL_CACHE", fresh_cache_dir("tmpdir"));
  const std::string tmpdir = fresh_cache_dir("private_copy");
  const ScopedEnv env("TMPDIR", tmpdir);
  const Program p = testing::saxpy_program();
  Machine nat(p, native_opts());
  require_native(nat);
  // The unlinked copy stays mapped for the engine's lifetime.
  std::ifstream maps("/proc/self/maps");
  if (maps) {
    bool mapped_under_tmpdir = false;
    for (std::string line; std::getline(maps, line);) {
      if (line.find(cat(tmpdir, "/glaf_nat_")) != std::string::npos) {
        mapped_under_tmpdir = true;
      }
    }
    EXPECT_TRUE(mapped_under_tmpdir) << "kernel copy not under " << tmpdir;
  }
  Machine pl(p, plan_opts());
  for (Machine* m : {&pl, &nat}) {
    ASSERT_TRUE(m->set_scalar("a", 1.5).is_ok());
    ASSERT_TRUE(m->call("saxpy").is_ok());
  }
  EXPECT_EQ(nat.native_report().native_calls, 1u);
  testing::expect_globals_bitwise(pl, nat, "saxpy");
}

TEST(NativeLoad, UnusableTmpdirIsNamedAndKeepsTheCachedObject) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv cache("GLAF_KERNEL_CACHE", fresh_cache_dir("bad_tmpdir"));
  const Program p = testing::saxpy_program();
  {
    Machine warm(p, native_opts());
    require_native(warm);
  }
  const std::string missing = cat(fresh_cache_dir("missing"), "/absent");
  {
    const ScopedEnv env("TMPDIR", missing);
    Machine nat(p, native_opts());
    ASSERT_FALSE(nat.native_report().available);
    const std::string& reason = nat.native_report().fallback_reason;
    EXPECT_NE(reason.find(missing), std::string::npos) << reason;
    EXPECT_NE(reason.find(std::strerror(ENOENT)), std::string::npos) << reason;
  }
  // The host's directory was at fault, so the cached object survives.
  Machine again(p, native_opts());
  require_native(again);
  EXPECT_TRUE(again.native_report().cache_hit);
}

// ---- kernel cache -----------------------------------------------------------

TEST(KernelCache, SecondBindSkipsCompilation) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("warm"));
  const Program p = testing::saxpy_program();
  jit::reset_kernel_cache_stats();

  Machine cold(p, native_opts());
  require_native(cold);
  EXPECT_FALSE(cold.native_report().cache_hit);
  const jit::KernelCacheStats after_cold = jit::kernel_cache_stats();
  EXPECT_EQ(after_cold.compiles, 1u);
  EXPECT_EQ(after_cold.misses, 1u);

  Machine warm(p, native_opts());
  require_native(warm);
  EXPECT_TRUE(warm.native_report().cache_hit);
  const jit::KernelCacheStats after_warm = jit::kernel_cache_stats();
  EXPECT_EQ(after_warm.compiles, 1u) << "warm bind must not recompile";
  EXPECT_GE(after_warm.hits, 1u);

  // And the warm machine still computes correctly.
  ASSERT_TRUE(warm.set_scalar("a", 2.0).is_ok());
  ASSERT_TRUE(warm.call("saxpy").is_ok());
  EXPECT_GT(warm.native_report().native_calls, 0u);
}

TEST(KernelCache, CorruptedEntryIsDiscardedAndRebuilt) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("corrupt"));
  const Program p = testing::saxpy_program();

  Machine first(p, native_opts());
  require_native(first);
  const std::string object = first.native_report().object_path;
  ASSERT_FALSE(object.empty());
  {  // Truncate the published object to garbage.
    std::ofstream out(object, std::ios::binary | std::ios::trunc);
    out << "not an ELF object";
  }

  jit::reset_kernel_cache_stats();
  Machine second(p, native_opts());
  require_native(second);
  const jit::KernelCacheStats stats = jit::kernel_cache_stats();
  EXPECT_GE(stats.corrupt_discards, 1u);
  EXPECT_EQ(stats.compiles, 1u) << "rebuild after discarding";
  EXPECT_FALSE(second.native_report().cache_hit);

  Machine pl(p, plan_opts());
  for (Machine* m : {&pl, &second}) {
    ASSERT_TRUE(m->set_scalar("a", 3.0).is_ok());
    ASSERT_TRUE(m->call("saxpy").is_ok());
  }
  const std::vector<double> y_pl = pl.array("y").value();
  const std::vector<double> y_nat = second.array("y").value();
  for (std::size_t i = 0; i < y_pl.size(); ++i) {
    expect_bit_equal(y_pl[i], y_nat[i], cat("y[", i, "]"));
  }
}

TEST(KernelCache, EnvironmentOverrideRedirectsTheDirectory) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const std::string dir = fresh_cache_dir("override");
  const ScopedEnv env("GLAF_KERNEL_CACHE", dir);
  Machine m(testing::saxpy_program(), native_opts());
  require_native(m);
  EXPECT_EQ(m.native_report().object_path.rfind(dir + "/", 0), 0u)
      << "object " << m.native_report().object_path << " not under " << dir;
}

TEST(KernelCache, KeySeparatesSourceCompilerAndFlags) {
  const std::string k1 = jit::KernelCache::key("int x;", "cc", "-O2");
  EXPECT_EQ(k1.size(), 32u);
  EXPECT_EQ(k1, jit::KernelCache::key("int x;", "cc", "-O2"));
  EXPECT_NE(k1, jit::KernelCache::key("int y;", "cc", "-O2"));
  EXPECT_NE(k1, jit::KernelCache::key("int x;", "cc", "-O3"));
}

// ---- fallback policy --------------------------------------------------------

TEST(NativeFallback, MissingCompilerFallsBackToPlans) {
  const ScopedEnv env("GLAF_CC", "/nonexistent/compiler");
  const Program p = testing::saxpy_program();
  Machine m(p, native_opts());
  EXPECT_FALSE(m.native_report().available);
  EXPECT_NE(m.native_report().fallback_reason.find("not available"),
            std::string::npos)
      << m.native_report().fallback_reason;
  // Execution still works (plan fallback) and matches the plan engine.
  Machine pl(p, plan_opts());
  for (Machine* mm : {&pl, &m}) {
    ASSERT_TRUE(mm->set_scalar("a", 2.0).is_ok());
    ASSERT_TRUE(mm->call("saxpy").is_ok());
  }
  EXPECT_EQ(m.native_report().native_calls, 0u);
  const std::vector<double> a = pl.array("y").value();
  const std::vector<double> b = m.array("y").value();
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bit_equal(a[i], b[i], cat("y[", i, "]"));
  }
}

TEST(NativeFallback, StructGlobalsAreWholeEngineFallback) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  ProgramBuilder pb("m");
  auto s = pb.global("s", DataType::kDouble, {E(4)},
                     {.fields = {{"a", DataType::kDouble},
                                 {"b", DataType::kDouble}}});
  auto fb = pb.function("f");
  auto st = fb.step("st");
  st.foreach_("i", 0, 3);
  st.assign(s.at_field("a", idx("i")), idx("i") * 2.0);
  const Program p = pb.build().value();
  Machine m(p, native_opts());
  EXPECT_FALSE(m.native_report().available);
  EXPECT_NE(m.native_report().fallback_reason.find("struct"),
            std::string::npos);
  ASSERT_TRUE(m.call("f").is_ok());  // plan fallback still runs
}

TEST(NativeFallback, GridNameArgumentsFallBackPerCall) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program p = scaled_program();
  Machine m(p, native_opts());
  require_native(m);
  ASSERT_TRUE(m.set_scalar("b", 1.0).is_ok());
  // Passing the scalar global by name binds it by reference — the C ABI
  // passes scalars by value, so this call must take the plan path.
  ASSERT_TRUE(m.call("f", {CallArg{std::string("b")}}).is_ok());
  EXPECT_EQ(m.native_report().native_calls, 0u);
  EXPECT_GE(m.native_report().fallback_calls, 1u);
  // A literal argument takes the native path on the same machine.
  ASSERT_TRUE(m.call("f", {CallArg{2.0}}).is_ok());
  EXPECT_EQ(m.native_report().native_calls, 1u);
}

TEST(NativeFallback, TraceRequestsUsePlans) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  InterpOptions o = native_opts();
  o.trace = true;
  Machine m(testing::saxpy_program(), o);
  EXPECT_FALSE(m.native_report().available);
  ASSERT_TRUE(m.set_scalar("a", 2.0).is_ok());
  ASSERT_TRUE(m.call("saxpy").is_ok());
  EXPECT_FALSE(m.trace().empty());
}

}  // namespace
}  // namespace glaf
