#include "codegen/c.hpp"

#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "testing/programs.hpp"

namespace glaf {
namespace {

std::string gen(const Program& p, CodegenOptions opts = {}) {
  opts.language = Language::kC;
  return generate_c(p, analyze_program(p), opts).source;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(CGen, PreambleAndHelpers) {
  const std::string src = gen(testing::saxpy_program());
  EXPECT_TRUE(contains(src, "#include <math.h>"));
  EXPECT_TRUE(contains(src, "static double glaf_sum"));
}

TEST(CGen, VoidFunctionAndLoop) {
  const std::string src = gen(testing::saxpy_program());
  EXPECT_TRUE(contains(src, "void saxpy(void) {"));
  EXPECT_TRUE(contains(src, "for (i = 0; i <= (n - 1); ++i) {"));
}

TEST(CGen, OmpPragma) {
  const std::string src = gen(testing::saxpy_program());
  EXPECT_TRUE(contains(src, "#pragma omp parallel for"));
}

TEST(CGen, ReductionClause) {
  const std::string src = gen(testing::reduce_program());
  EXPECT_TRUE(contains(src, "reduction(+:total)"));
}

TEST(CGen, SerialLoopHasNoPragma) {
  const std::string src = gen(testing::prefix_program());
  EXPECT_FALSE(contains(src, "#pragma omp parallel"));
}

TEST(CGen, CommonBlockInteropStruct) {
  const std::string src = gen(testing::integration_program());
  EXPECT_TRUE(contains(src, "extern struct atmos_common"));
  EXPECT_TRUE(contains(src, "} atmos_;"));
  EXPECT_TRUE(contains(src, "atmos_.press["));
}

TEST(CGen, ExternForExistingModuleVariable) {
  const std::string src = gen(testing::integration_program());
  EXPECT_TRUE(contains(src, "extern double tsfc; /* from module fuliou_data */"));
}

TEST(CGen, TypeElementMemberAccess) {
  const std::string src = gen(testing::integration_program());
  EXPECT_TRUE(contains(src, "atom1.charge"));
  // The parent is declared like a COMMON block: an extern struct the
  // legacy module defines.
  EXPECT_TRUE(contains(src, "extern struct atom1_type {\n  double charge;\n"
                            "} atom1;"));
}

TEST(CGen, ModuleScopeStaticDefinition) {
  const std::string src = gen(testing::integration_program());
  EXPECT_TRUE(contains(src, "static double accum[4];"));
}

TEST(CGen, RowMajorFlattening) {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {4, 5});
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, 3).foreach_("j", 0, 4);
  s.assign(a(idx("i"), idx("j")), 1.0);
  const std::string src = gen(pb.build().value());
  EXPECT_TRUE(contains(src, "a[((i) * (5) + (j))]"));
}

TEST(CGen, CallocFreeForSymbolicLocals) {
  ProgramBuilder pb("m");
  auto fb = pb.function("f");
  auto n = fb.param("n", DataType::kInt);
  auto t = fb.local("t", DataType::kDouble, {E(n)});
  auto s = fb.step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(t(idx("i")), 0.0);
  const std::string src = gen(pb.build().value());
  // calloc, not malloc: interpreter instances start zero-filled, so the
  // generated code must match (caught by the differential fuzzer).
  EXPECT_TRUE(contains(src, "calloc"));
  EXPECT_FALSE(contains(src, "malloc"));
  EXPECT_TRUE(contains(src, "free(t);"));
}

TEST(CGen, ScalarAndFixedLocalsZeroInitialized) {
  ProgramBuilder pb("m");
  auto fb = pb.function("f");
  auto t = fb.local("t", DataType::kDouble);
  auto a = fb.local("a", DataType::kDouble, {E(4)});
  auto s = fb.step("s");
  s.assign(t(), E(a(liti(0))) + 1.0);
  const std::string src = gen(pb.build().value());
  EXPECT_TRUE(contains(src, "double t = 0;"));
  EXPECT_TRUE(contains(src, "double a[4] = {0};"));
}

TEST(CGen, SaveTemporariesUsesStaticGuard) {
  CodegenOptions opts;
  opts.save_temporaries = true;
  ProgramBuilder pb("m");
  auto fb = pb.function("f");
  auto n = fb.param("n", DataType::kInt);
  auto t = fb.local("t", DataType::kDouble, {E(n)});
  auto s = fb.step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(t(idx("i")), 0.0);
  const std::string src = gen(pb.build().value(), opts);
  EXPECT_TRUE(contains(src, "static double* t = 0;"));
  EXPECT_TRUE(contains(src, "if (!t) t ="));
  EXPECT_FALSE(contains(src, "free(t);"));
}

TEST(CGen, VariadicMinFoldsToNestedCalls) {
  ProgramBuilder pb("m");
  auto x = pb.global("x", DataType::kDouble);
  auto y = pb.global("y", DataType::kDouble);
  auto z = pb.global("z", DataType::kDouble);
  pb.function("f").step("s").assign(
      x(), call("MIN", {E(x), E(y), E(z)}));
  const std::string src = gen(pb.build().value());
  // Left-associative like the interpreter's fold, so NaN propagation
  // through the accumulator is identical in both backends.
  EXPECT_TRUE(contains(src, "glaf_min(glaf_min(x, y), z)"));
}

TEST(CGen, IntegerModVsFmod) {
  ProgramBuilder pb("m");
  auto i1 = pb.global("i1", DataType::kInt);
  auto i2 = pb.global("i2", DataType::kInt);
  auto d1 = pb.global("d1", DataType::kDouble);
  auto fb = pb.function("f");
  fb.step("s")
      .assign(i1(), mod(E(i1), E(i2)))
      .assign(d1(), mod(E(d1), 2.0));
  const std::string src = gen(pb.build().value());
  EXPECT_TRUE(contains(src, "(i1 % i2)"));
  EXPECT_TRUE(contains(src, "fmod(d1, 2.0)"));
}

TEST(CGen, ReturnStatement) {
  ProgramBuilder pb("m");
  auto fb = pb.function("twice", DataType::kDouble);
  auto x = fb.param("x", DataType::kDouble);
  fb.step("s").ret(E(x) * 2.0);
  const std::string src = gen(pb.build().value());
  EXPECT_TRUE(contains(src, "double twice(double x)"));
  EXPECT_TRUE(contains(src, "return (x * 2.0);"));
}

TEST(CGen, PrototypesBeforeDefinitions) {
  const std::string src = gen(testing::saxpy_program());
  const std::size_t proto = src.find("void saxpy(void);");
  const std::size_t defn = src.find("void saxpy(void) {");
  ASSERT_NE(proto, std::string::npos);
  ASSERT_NE(defn, std::string::npos);
  EXPECT_LT(proto, defn);
}

TEST(CGen, ScheduleClauseEmitted) {
  CodegenOptions opts;
  opts.schedule = OmpSchedule::kDynamic;
  opts.schedule_chunk = 8;
  const std::string src = gen(testing::saxpy_program(), opts);
  EXPECT_TRUE(contains(src, "schedule(dynamic, 8)"));
}

TEST(CGen, SumWholeGridLowersToHelper) {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {6});
  auto x = pb.global("x", DataType::kDouble);
  pb.function("f").step("s").assign(x(), call("SUM", {E(a)}));
  const std::string src = gen(pb.build().value());
  EXPECT_TRUE(contains(src, "glaf_sum(a, (6))"));
}

}  // namespace
}  // namespace glaf
