// Execution-trace tests: the interpreter's step trace is the debugging /
// visualization facility the GPI provides in the original GLAF.

#include <gtest/gtest.h>

#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "interp/machine.hpp"
#include "testing/programs.hpp"

namespace glaf {
namespace {

TEST(Trace, OffByDefault) {
  Machine m(testing::saxpy_program());
  ASSERT_TRUE(m.call("saxpy").is_ok());
  EXPECT_TRUE(m.trace().empty());
}

TEST(Trace, RecordsStepWithIterations) {
  InterpOptions opts;
  opts.trace = true;
  Machine m(testing::saxpy_program(), opts);
  ASSERT_TRUE(m.call("saxpy").is_ok());
  ASSERT_EQ(m.trace().size(), 1u);
  const TraceEntry& e = m.trace()[0];
  EXPECT_EQ(e.function, "saxpy");
  EXPECT_EQ(e.step, "Step1");
  EXPECT_EQ(e.iterations, 8u);
}

TEST(Trace, SarbDriverTraceFollowsCallOrder) {
  InterpOptions opts;
  opts.trace = true;
  Machine m(fuliou::build_sarb_program(), opts);
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(1);
  ASSERT_TRUE(fuliou::run_glaf_sarb(m, profile).is_ok());

  // The trace interleaves callee steps inside the driver's: find the
  // first entry of each subroutine and check the §4.1 wrapper order.
  std::vector<std::string> first_seen;
  for (const TraceEntry& e : m.trace()) {
    if (std::find(first_seen.begin(), first_seen.end(), e.function) ==
        first_seen.end()) {
      first_seen.push_back(e.function);
    }
  }
  const std::vector<std::string> expected = {
      "entropy_interface",       "lw_spectral_integration",
      "longwave_entropy_model",  "sw_spectral_integration",
      "shortwave_entropy_model", "adjust2",
  };
  EXPECT_EQ(first_seen, expected);

  // The 2x60 complex loops report 120 iterations each.
  int found_120 = 0;
  for (const TraceEntry& e : m.trace()) {
    if (e.step == "le7" || e.step == "le8") {
      EXPECT_EQ(e.iterations, 120u);
      ++found_120;
    }
  }
  EXPECT_EQ(found_120, 2);
}

TEST(Trace, ClearResets) {
  InterpOptions opts;
  opts.trace = true;
  Machine m(testing::saxpy_program(), opts);
  ASSERT_TRUE(m.call("saxpy").is_ok());
  EXPECT_FALSE(m.trace().empty());
  m.clear_trace();
  EXPECT_TRUE(m.trace().empty());
  ASSERT_TRUE(m.call("saxpy").is_ok());
  EXPECT_EQ(m.trace().size(), 1u);
}

TEST(Trace, EarlyReturnStopsTraceMidFunction) {
  ProgramBuilder pb("m");
  auto g = pb.global("g", DataType::kDouble);
  auto fb = pb.function("f", DataType::kInt);
  auto s1 = fb.step("first");
  s1.ret(liti(7));
  auto s2 = fb.step("second");
  s2.assign(g(), 1.0);
  InterpOptions opts;
  opts.trace = true;
  Machine m(pb.build().value(), opts);
  ASSERT_TRUE(m.call("f").is_ok());
  ASSERT_EQ(m.trace().size(), 1u);
  EXPECT_EQ(m.trace()[0].step, "first");
}

}  // namespace
}  // namespace glaf
