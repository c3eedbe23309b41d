// Fused-region tests: ABI v3 lets the emitter fuse maximal runs of
// adjacent parallelizable steps that share a partition dimension into a
// single range entry point (one fork/join per region instead of per
// step). Two layers are covered here:
//
//  - region *boundaries*, asserted against the emitted unit's region
//    metadata: producer/consumer elementwise steps fuse; a cross-step
//    carried dependence (reading a neighbour of what the previous step
//    wrote) splits; mismatched loop bounds split; mismatched partition
//    dimensions split; a step consuming a reduction target splits while
//    independent exact reductions fuse;
//
//  - *differential bit-identity*: fused, unfused and serial kernels must
//    agree bitwise on the SARB Table-1 subroutines and the FUN3D
//    decomposition under every directive policy, and at 1 == N threads —
//    fusion is a pure dispatch-cost optimization, never a semantic one.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/profile.hpp"
#include "fun3d/glaf_full.hpp"
#include "fun3d/mesh.hpp"
#include "interp/machine.hpp"
#include "jit/emit.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"

namespace glaf {
namespace {

bool have_cc() { return cc_available("cc"); }

std::string fresh_cache_dir(const std::string& tag) {
  std::string tmpl = cat(::testing::TempDir(), "glaf_fcache_", tag, "_XXXXXX");
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

/// Parallel native with the profit gate off: these tests compare the
/// dispatch paths themselves, so nothing may be diverted to serial.
InterpOptions parallel_native(DirectivePolicy policy, bool fuse,
                              int threads = 4) {
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  o.parallel = true;
  o.num_threads = threads;
  o.policy = policy;
  o.fuse_regions = fuse;
  o.gate_always_dispatch = true;
  return o;
}

constexpr DirectivePolicy kAllPolicies[] = {
    DirectivePolicy::kV0, DirectivePolicy::kV1, DirectivePolicy::kV2,
    DirectivePolicy::kV3};

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

// ---- region-boundary unit tests ---------------------------------------------

/// Emit `p` parallel (v0) and return the region list, optionally with
/// fusion disabled.
std::vector<ParallelRegion> regions_of(const Program& p, bool fuse = true,
                                       std::string* source = nullptr) {
  jit::EmitOptions eo;
  eo.parallel = true;
  eo.fuse_regions = fuse;
  StatusOr<jit::KernelUnit> unit =
      jit::emit_kernel_unit(p, analyze_program(p), eo);
  EXPECT_TRUE(unit.is_ok()) << unit.status().message();
  if (!unit.is_ok()) return {};
  if (source != nullptr) *source = unit.value().source;
  return unit.value().regions;
}

TEST(FusedRegionPlan, ProducerConsumerElementwiseStepsFuse) {
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{32}}});
  auto a = pb.global("a", DataType::kDouble);
  auto x = pb.global("x", DataType::kDouble, {E(n)});
  auto y = pb.global("y", DataType::kDouble, {E(n)});
  auto z = pb.global("z", DataType::kDouble, {E(n)});
  auto fb = pb.function("f");
  auto s1 = fb.step("scale");
  s1.foreach_("i", 0, E(n) - 1);
  s1.assign(y(idx("i")), E(a) * x(idx("i")));
  auto s2 = fb.step("combine");
  s2.foreach_("i", 0, E(n) - 1);
  s2.assign(z(idx("i")), y(idx("i")) + x(idx("i")));
  const Program p = pb.build().value();

  std::string source;
  const std::vector<ParallelRegion> fused = regions_of(p, true, &source);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused[0].first_step, 0u);
  EXPECT_EQ(fused[0].step_count, 2u);
  EXPECT_NE(source.find("glaf_rg_f_0_range"), std::string::npos)
      << "fused regions use glaf_rg_* entry points";

  const std::vector<ParallelRegion> unfused = regions_of(p, false);
  ASSERT_EQ(unfused.size(), 2u);
  EXPECT_EQ(unfused[0].step_count, 1u);
  EXPECT_EQ(unfused[1].step_count, 1u);
}

TEST(FusedRegionPlan, CrossStepCarriedDependenceSplits) {
  // Step 2 reads y(i+1): rank r's chunk of step 2 would consume values
  // rank r+1 writes in step 1, so the steps cannot share one fork/join.
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{32}}});
  auto x = pb.global("x", DataType::kDouble, {E(n) + 1});
  auto y = pb.global("y", DataType::kDouble, {E(n) + 1});
  auto z = pb.global("z", DataType::kDouble, {E(n)});
  auto fb = pb.function("f");
  auto s1 = fb.step("produce");
  s1.foreach_("i", 0, E(n) - 1);
  s1.assign(y(idx("i")), x(idx("i")) * 2.0);
  auto s2 = fb.step("shift");
  s2.foreach_("i", 0, E(n) - 1);
  s2.assign(z(idx("i")), y(idx("i") + 1));
  const Program p = pb.build().value();

  const std::vector<ParallelRegion> regions = regions_of(p);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].step_count, 1u);
  EXPECT_EQ(regions[1].step_count, 1u);
}

TEST(FusedRegionPlan, MismatchedBoundsSplit) {
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{32}}});
  auto x = pb.global("x", DataType::kDouble, {E(n)});
  auto y = pb.global("y", DataType::kDouble, {E(n)});
  auto fb = pb.function("f");
  auto s1 = fb.step("all");
  s1.foreach_("i", 0, E(n) - 1);
  s1.assign(x(idx("i")), 1.0);
  auto s2 = fb.step("half");
  s2.foreach_("i", 0, E(n) / 2 - 1);
  s2.assign(y(idx("i")), 2.0);
  const Program p = pb.build().value();

  // Different trip counts -> different partition signatures -> two
  // regions, even though the steps touch disjoint grids.
  const std::vector<ParallelRegion> regions = regions_of(p);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].step_count, 1u);
  EXPECT_EQ(regions[1].step_count, 1u);
}

TEST(FusedRegionPlan, MismatchedPartitionDimensionsSplit) {
  // Both steps are collapse(2) over the same 8x16 nest, but step 1
  // accumulates into acc(i) (ownership band on dim 0) while step 2
  // accumulates into col(j) (band on dim 1): the ranks would partition
  // different loops, so the steps cannot share a region.
  ProgramBuilder pb("m");
  auto w = pb.global("w", DataType::kDouble, {E(8), E(16)});
  auto acc = pb.global("acc", DataType::kDouble, {E(8)});
  auto col = pb.global("col", DataType::kDouble, {E(16)});
  auto fb = pb.function("f");
  auto s1 = fb.step("rows");
  s1.foreach_("i", 0, 7).foreach_("j", 0, 15);
  s1.assign(acc(idx("i")), acc(idx("i")) + w(idx("i"), idx("j")));
  auto s2 = fb.step("cols");
  s2.foreach_("i", 0, 7).foreach_("j", 0, 15);
  s2.assign(col(idx("j")), col(idx("j")) + w(idx("i"), idx("j")));
  const Program p = pb.build().value();

  const std::vector<ParallelRegion> regions = regions_of(p);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].step_count, 1u);
  EXPECT_EQ(regions[1].step_count, 1u);
}

TEST(FusedRegionPlan, ReductionConsumerSplitsIndependentReductionsFuse) {
  // t1 += a(i) is an exact (integer) reduction the emitter threads with
  // per-rank scratch combined after the join — so a step *consuming* t1
  // cannot live in the same region (the combine has not happened yet),
  // while a second, independent reduction can.
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{48}}});
  auto a = pb.global("a", DataType::kInt, {E(n)});
  auto b = pb.global("b", DataType::kInt, {E(n)});
  auto t1 = pb.global("t1", DataType::kInt);
  auto t2 = pb.global("t2", DataType::kInt);
  auto out = pb.global("out", DataType::kInt, {E(n)});
  {
    auto fb = pb.function("consumer");
    auto s1 = fb.step("sum");
    s1.foreach_("i", 0, E(n) - 1);
    s1.assign(t1(), E(t1) + a(idx("i")));
    auto s2 = fb.step("use");
    s2.foreach_("i", 0, E(n) - 1);
    s2.assign(out(idx("i")), a(idx("i")) + E(t1));
  }
  {
    auto fb = pb.function("independent");
    auto s1 = fb.step("sum_a");
    s1.foreach_("i", 0, E(n) - 1);
    s1.assign(t1(), E(t1) + a(idx("i")));
    auto s2 = fb.step("sum_b");
    s2.foreach_("i", 0, E(n) - 1);
    s2.assign(t2(), E(t2) + b(idx("i")));
  }
  const Program p = pb.build().value();

  const std::vector<ParallelRegion> regions = regions_of(p);
  std::vector<ParallelRegion> consumer;
  std::vector<ParallelRegion> independent;
  for (const ParallelRegion& r : regions) {
    (r.function == "consumer" ? consumer : independent).push_back(r);
  }
  ASSERT_EQ(consumer.size(), 2u) << "reduction consumer must split";
  EXPECT_EQ(consumer[0].step_count, 1u);
  EXPECT_EQ(consumer[1].step_count, 1u);
  ASSERT_EQ(independent.size(), 1u) << "independent reductions must fuse";
  EXPECT_EQ(independent[0].step_count, 2u);
}

TEST(FusedRegionPlan, SerialStepBreaksARun) {
  // fusable / carried-serial / fusable: the serial middle step is a
  // region boundary, so the two ranged steps stay singletons on either
  // side of it rather than fusing across.
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{16}}});
  auto x = pb.global("x", DataType::kDouble, {E(n)});
  auto y = pb.global("y", DataType::kDouble, {E(n)});
  auto z = pb.global("z", DataType::kDouble, {E(n)});
  auto fb = pb.function("f");
  auto s1 = fb.step("first");
  s1.foreach_("i", 0, E(n) - 1);
  s1.assign(x(idx("i")), 3.0);
  auto s2 = fb.step("prefix");
  s2.foreach_("i", 1, E(n) - 1);
  s2.assign(y(idx("i")), y(idx("i") - 1) + x(idx("i")));
  auto s3 = fb.step("last");
  s3.foreach_("i", 0, E(n) - 1);
  s3.assign(z(idx("i")), x(idx("i")) * 2.0);
  const Program p = pb.build().value();

  // Only the two parallelizable steps appear as dispatch regions, each
  // on its own (the carried-dependence step between them runs serial).
  const std::vector<ParallelRegion> regions = regions_of(p);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].first_step, 0u);
  EXPECT_EQ(regions[0].step_count, 1u);
  EXPECT_EQ(regions[1].first_step, 2u);
  EXPECT_EQ(regions[1].step_count, 1u);
}

// ---- differential bit-identity ----------------------------------------------

TEST(FusedRegionDifferential, SarbTable1BitIdenticalFusedUnfusedSerial) {
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
      Machine fused(sarb, parallel_native(policy, true));
      Machine unfused(sarb, parallel_native(policy, false));
      require_native(serial);
      require_native(fused);
      require_native(unfused);
      for (Machine* m : {&serial, &fused, &unfused}) {
        ASSERT_TRUE(fuliou::load_profile(*m, profile).is_ok()) << tag;
        ASSERT_TRUE(m->call(name).is_ok()) << tag;
      }
      EXPECT_EQ(fused.native_report().gated_serial_regions, 0u) << tag;
      compare_all_globals(serial, fused, cat(tag, " fused"));
      compare_all_globals(serial, unfused, cat(tag, " unfused"));
    }
  }
}

TEST(FusedRegionDifferential, Fun3dEdgejpBitIdenticalFusedUnfusedSerial) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("fun3d"));
  const fun3d::Mesh mesh = fun3d::make_mesh(60, 3);
  const Program p = fun3d::build_fun3d_full_program(mesh);
  for (const DirectivePolicy policy : kAllPolicies) {
    const std::string tag = cat("edgejp/", to_string(policy));
    Machine serial(p, serial_native());
    Machine fused(p, parallel_native(policy, true));
    Machine unfused(p, parallel_native(policy, false));
    require_native(serial);
    require_native(fused);
    require_native(unfused);
    for (Machine* m : {&serial, &fused, &unfused}) {
      ASSERT_TRUE(fun3d::load_mesh(*m, mesh).is_ok()) << tag;
      ASSERT_TRUE(m->call("edgejp").is_ok()) << tag;
    }
    compare_all_globals(serial, fused, cat(tag, " fused"));
    compare_all_globals(serial, unfused, cat(tag, " unfused"));
  }
}

TEST(FusedRegionDifferential, OneThreadEqualsEightThreadsFused) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("threads"));
  const Program sarb = fuliou::build_sarb_program();
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(11);
  Machine one(sarb, parallel_native(DirectivePolicy::kV0, true, 1));
  Machine eight(sarb, parallel_native(DirectivePolicy::kV0, true, 8));
  for (Machine* m : {&one, &eight}) {
    require_native(*m);
    ASSERT_TRUE(fuliou::load_profile(*m, profile).is_ok());
    ASSERT_TRUE(m->call("longwave_entropy_model").is_ok());
  }
  EXPECT_GT(eight.native_report().parallel_regions, 0u);
  compare_all_globals(one, eight, "fused 1-vs-8-threads");
}

TEST(FusedRegionDifferential, FusedKernelReportsRegionMetadata) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const ScopedEnv env("GLAF_KERNEL_CACHE", fresh_cache_dir("meta"));
  // The producer/consumer pair from the plan tests, end to end: the
  // report must show one fused region, and one dispatch per call.
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{32}}});
  auto a = pb.global("a", DataType::kDouble);
  auto x = pb.global("x", DataType::kDouble, {E(n)});
  auto y = pb.global("y", DataType::kDouble, {E(n)});
  auto z = pb.global("z", DataType::kDouble, {E(n)});
  auto fb = pb.function("f");
  auto s1 = fb.step("scale");
  s1.foreach_("i", 0, E(n) - 1);
  s1.assign(y(idx("i")), E(a) * x(idx("i")));
  auto s2 = fb.step("combine");
  s2.foreach_("i", 0, E(n) - 1);
  s2.assign(z(idx("i")), y(idx("i")) + x(idx("i")));
  const Program p = pb.build().value();

  std::vector<double> x_in(32);
  for (int i = 0; i < 32; ++i) x_in[static_cast<std::size_t>(i)] = 0.5 * i;

  Machine serial(p, serial_native());
  Machine fused(p, parallel_native(DirectivePolicy::kV0, true));
  Machine unfused(p, parallel_native(DirectivePolicy::kV0, false));
  require_native(serial);
  require_native(fused);
  require_native(unfused);
  for (Machine* m : {&serial, &fused, &unfused}) {
    ASSERT_TRUE(m->set_scalar("a", 1.5).is_ok());
    ASSERT_TRUE(m->set_array("x", x_in).is_ok());
    ASSERT_TRUE(m->call("f").is_ok());
  }
  EXPECT_EQ(fused.native_report().regions_total, 1u);
  EXPECT_EQ(fused.native_report().regions_fused, 1u);
  EXPECT_EQ(fused.native_report().parallel_regions, 1u)
      << "one fork/join for the fused pair";
  EXPECT_EQ(unfused.native_report().regions_total, 2u);
  EXPECT_EQ(unfused.native_report().regions_fused, 0u);
  EXPECT_EQ(unfused.native_report().parallel_regions, 2u);
  compare_all_globals(serial, fused, "fused");
  compare_all_globals(serial, unfused, "unfused");
}

}  // namespace
}  // namespace glaf
