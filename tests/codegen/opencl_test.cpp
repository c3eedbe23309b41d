#include "codegen/opencl.hpp"

#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "testing/programs.hpp"

namespace glaf {
namespace {

OpenClCode gen(const Program& p, CodegenOptions opts = {}) {
  opts.language = Language::kOpenCL;
  return generate_opencl(p, analyze_program(p), opts);
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(OpenCl, KernelForParallelStep) {
  const OpenClCode code = gen(testing::saxpy_program());
  EXPECT_TRUE(contains(code.kernels, "__kernel void saxpy_step0("));
  EXPECT_TRUE(contains(code.kernels, "get_global_id(0)"));
  ASSERT_EQ(code.kernels_by_function.count("saxpy"), 1u);
  EXPECT_EQ(code.kernels_by_function.at("saxpy").size(), 1u);
}

TEST(OpenCl, Fp64ExtensionEnabled) {
  const OpenClCode code = gen(testing::saxpy_program());
  EXPECT_TRUE(contains(code.kernels, "cl_khr_fp64"));
}

TEST(OpenCl, SerialLoopGetsNoKernel) {
  const OpenClCode code = gen(testing::prefix_program());
  EXPECT_EQ(code.kernels_by_function.count("prefix"), 0u);
  EXPECT_FALSE(contains(code.kernels, "__kernel"));
}

TEST(OpenCl, GlobalPointersAndScalarsInSignature) {
  const OpenClCode code = gen(testing::saxpy_program());
  EXPECT_TRUE(contains(code.kernels, "__global double* x"));
  EXPECT_TRUE(contains(code.kernels, "__global double* y"));
  EXPECT_TRUE(contains(code.kernels, "const double a"));
}

TEST(OpenCl, BoundsGuardEmitted) {
  const OpenClCode code = gen(testing::saxpy_program());
  EXPECT_TRUE(contains(code.kernels, "if (i > ((n - 1))) return;"));
}

TEST(OpenCl, HostLauncherEmitted) {
  const OpenClCode code = gen(testing::saxpy_program());
  EXPECT_TRUE(contains(code.host, "launch_saxpy_step0"));
  EXPECT_TRUE(contains(code.host, "clEnqueueNDRangeKernel"));
}

TEST(OpenCl, TwoDimensionalNdrangeForCollapsedNest) {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {16, 16});
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, 15).foreach_("j", 0, 15);
  s.assign(a(idx("i"), idx("j")), 1.0);
  const OpenClCode code = gen(pb.build().value());
  EXPECT_TRUE(contains(code.kernels, "get_global_id(0)"));
  EXPECT_TRUE(contains(code.kernels, "get_global_id(1)"));
  EXPECT_TRUE(contains(code.host, "size_t gws[2]"));
}

TEST(OpenCl, AtMostThreeWorkDimensions) {
  // OpenCL allows three NDRange dimensions: the fourth loop of a fully
  // parallel nest stays sequential inside the work-item.
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {4, 4, 4, 4});
  auto s = pb.function("f").step("s");
  s.foreach_("i", 0, 3).foreach_("j", 0, 3).foreach_("k", 0, 3).foreach_(
      "l", 0, 3);
  s.assign(a(idx("i"), idx("j"), idx("k"), idx("l")), 1.0);
  const Program p = pb.build().value();
  ASSERT_EQ(analyze_program(p).verdict(p.functions[0].id, 0).collapse, 4);
  const OpenClCode code = gen(p);
  EXPECT_TRUE(contains(code.kernels, "get_global_id(2)"));
  EXPECT_FALSE(contains(code.kernels, "get_global_id(3)"));
  EXPECT_TRUE(contains(code.kernels, "for (long l = 0; l <= 3; ++l) {"));
  EXPECT_TRUE(contains(code.host, "size_t gws[3]"));
  EXPECT_TRUE(contains(code.host, "clEnqueueNDRangeKernel(q, k, 3,"));
}

}  // namespace
}  // namespace glaf
