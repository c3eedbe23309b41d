// Failure-injection tests for the interpreter: runtime errors must come
// back as Status (never crash or UB), and the machine must remain usable
// afterwards.

#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "interp/machine.hpp"
#include "testing/programs.hpp"

namespace glaf {
namespace {

TEST(InterpFailure, ZeroStrideLoopReported) {
  ProgramBuilder pb("m");
  auto stride = pb.global("stride", DataType::kInt);
  auto a = pb.global("a", DataType::kDouble, {8});
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, 7, E(stride));
  s.assign(a(idx("i")), 1.0);
  Machine m(pb.build().value());
  ASSERT_TRUE(m.set_scalar("stride", 0).is_ok());
  const auto r = m.call("f");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("stride"), std::string::npos);
  // Machine still usable with a fixed stride.
  ASSERT_TRUE(m.set_scalar("stride", 2).is_ok());
  EXPECT_TRUE(m.call("f").is_ok());
}

TEST(InterpFailure, NegativeSubscript) {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {4});
  auto k = pb.global("k", DataType::kInt);
  pb.function("f").step("s").assign(a(E(k)), 1.0);
  Machine m(pb.build().value());
  ASSERT_TRUE(m.set_scalar("k", -1).is_ok());
  const auto r = m.call("f");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
}

TEST(InterpFailure, NonPositiveRuntimeExtent) {
  // Extent depends on a parameter; a bad value must be a clean error.
  ProgramBuilder pb("m");
  auto fb = pb.function("f");
  auto n = fb.param("n", DataType::kInt);
  auto t = fb.local("t", DataType::kDouble, {E(n)});
  auto s = fb.step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(t(idx("i")), 0.0);
  Machine m(pb.build().value());
  const auto r = m.call("f", {0.0});
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("extent"), std::string::npos);
  EXPECT_TRUE(m.call("f", {4.0}).is_ok());
}

TEST(InterpFailure, IntegerDivisionByZero) {
  ProgramBuilder pb("m");
  auto num = pb.global("num", DataType::kInt);
  auto den = pb.global("den", DataType::kInt);
  auto out = pb.global("res", DataType::kInt);
  pb.function("f").step("s").assign(out(), E(num) / E(den));
  Machine m(pb.build().value());
  ASSERT_TRUE(m.set_scalar("num", 4).is_ok());
  const auto r = m.call("f");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("division by zero"),
            std::string::npos);
}

TEST(InterpFailure, WrongArgumentCount) {
  Machine m(testing::saxpy_program());
  const auto r = m.call("saxpy", {1.0});
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("expects 0 arguments"),
            std::string::npos);
}

TEST(InterpFailure, UnknownGlobalInCallArg) {
  ProgramBuilder pb("m");
  auto fb = pb.function("f");
  auto x = fb.param("x", DataType::kDouble);
  fb.step("s").assign(x(), 1.0);
  Machine m(pb.build().value());
  const auto r = m.call("f", {std::string("no_such_grid")});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(InterpFailure, ErrorsInsideScatterStepPropagate) {
  // An out-of-range access inside a parallelizable step (an atomic
  // scatter, which every in-process engine runs serially) must surface as
  // Status.
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{64}}});
  auto index = pb.global("index", DataType::kInt, {E(n)});
  auto out = pb.global("res", DataType::kDouble, {E(n)});
  auto w = pb.global("w", DataType::kDouble, {E(n)});
  auto fb = pb.function("scatter");
  auto s = fb.step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(out(index(idx("i"))), out(index(idx("i"))) + w(idx("i")));
  Machine m(pb.build().value());
  std::vector<double> bad_index(64, 9999.0);  // all out of range
  ASSERT_TRUE(m.set_array("index", bad_index).is_ok());
  const auto r = m.call("scatter");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
  // Machine survives and works with fixed indices.
  ASSERT_TRUE(m.set_array("index", std::vector<double>(64, 0.0)).is_ok());
  EXPECT_TRUE(m.call("scatter").is_ok());
}

// A by-value argument past the callee's parameters, in a CALL statement
// ("sub") and in an expression ("expr"); "ok" calls the same function
// correctly. The validator rejects the bad calls, so the program is built
// unchecked.
Program extra_argument_program() {
  ProgramBuilder pb("m");
  auto x = pb.global("x", DataType::kDouble);
  auto g = pb.function("g", DataType::kDouble);
  auto k = g.param("k", DataType::kDouble);
  g.step("s").ret(E(k) * 2.0);
  pb.function("sub").step("s").call_sub("g", {E(1.0), E(2.0)});
  pb.function("expr").step("s").assign(x(), call("g", {E(1.0), E(2.0)}));
  pb.function("ok").step("s").assign(x(), call("g", {E(3.0)}));
  return pb.build_unchecked();
}

/// Both engines reject `entry`'s call with the same message and stay
/// usable.
void expect_extra_argument_rejected(const std::string& entry) {
  for (const ExecEngine engine : {ExecEngine::kTreeWalk, ExecEngine::kPlan}) {
    InterpOptions opts;
    opts.engine = engine;
    Machine m(extra_argument_program(), opts);
    const auto r = m.call(entry);
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().message(),
              "call to 'g': expected 1 arguments, got 2");
    ASSERT_TRUE(m.call("ok").is_ok());
    EXPECT_DOUBLE_EQ(m.scalar("x").value(), 6.0);
  }
}

TEST(InterpFailure, ExtraValueArgumentInCallStatement) {
  expect_extra_argument_rejected("sub");
}

TEST(InterpFailure, ExtraValueArgumentInExpression) {
  expect_extra_argument_rejected("expr");
}

TEST(InterpFailure, StatusToString) {
  EXPECT_EQ(Status::ok().to_string(), "OK");
  EXPECT_EQ(not_found("x").to_string(), "NOT_FOUND: x");
  EXPECT_STREQ(to_string(StatusCode::kFailedPrecondition),
               "FAILED_PRECONDITION");
}

}  // namespace
}  // namespace glaf
