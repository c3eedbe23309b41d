#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/builder.hpp"
#include "interp/machine.hpp"
#include "testing/programs.hpp"

namespace glaf {
namespace {

InterpOptions parallel_opts(int threads = 4,
                            DirectivePolicy policy = DirectivePolicy::kV0) {
  InterpOptions o;
  o.parallel = true;
  o.num_threads = threads;
  o.policy = policy;
  return o;
}

TEST(ParallelInterp, SaxpyMatchesSerial) {
  const Program p = testing::saxpy_program();
  std::vector<double> x(8), y0(8);
  for (int i = 0; i < 8; ++i) {
    x[i] = 0.5 * i;
    y0[i] = 3.0 - i;
  }
  const auto run = [&](InterpOptions opts) {
    Machine m(p, opts);
    EXPECT_TRUE(m.set_scalar("a", 1.5).is_ok());
    EXPECT_TRUE(m.set_array("x", x).is_ok());
    EXPECT_TRUE(m.set_array("y", y0).is_ok());
    EXPECT_TRUE(m.call("saxpy").is_ok());
    return m.array("y").value();
  };
  const auto serial = run({});
  const auto parallel = run(parallel_opts());
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(serial[i], parallel[i]);
}

TEST(ParallelInterp, ParallelRegionCounted) {
  Machine m(testing::saxpy_program(), parallel_opts());
  ASSERT_TRUE(m.set_scalar("a", 1.0).is_ok());
  ASSERT_TRUE(m.call("saxpy").is_ok());
  EXPECT_EQ(m.stats().parallel_regions, 1u);
}

TEST(ParallelInterp, SerialLoopNotParallelized) {
  Machine m(testing::prefix_program(), parallel_opts());
  ASSERT_TRUE(m.set_array("arr", {1, 0, 0, 0, 0, 0, 0, 0}).is_ok());
  ASSERT_TRUE(m.call("prefix").is_ok());
  EXPECT_EQ(m.stats().parallel_regions, 0u);
  EXPECT_DOUBLE_EQ(m.array("arr").value()[7], 8.0);

  // A write subscript the analysis cannot see through, a(MOD(65*i, 64)),
  // also stays serial, on every call and in deterministic mode too, and
  // each call leaves exactly the bits a serial machine leaves.
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
  InterpOptions det = parallel_opts();
  det.deterministic_parallel = true;
  Machine ser(blocked, {});
  Machine par(blocked, det);
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
  EXPECT_EQ(par.stats().parallel_regions, 0u);
}

TEST(ParallelInterp, ReductionMatchesSerialWithinTolerance) {
  // Parallel float summation reassociates; the paper's FUN3D check uses an
  // RMS tolerance of 1e-7 for the same reason.
  const Program p = testing::reduce_program();
  std::vector<double> x(16);
  for (int i = 0; i < 16; ++i) x[i] = 1.0 / (1.0 + i);
  const auto run = [&](InterpOptions opts) {
    Machine m(p, opts);
    EXPECT_TRUE(m.set_array("x", x).is_ok());
    EXPECT_TRUE(m.call("reduce_sum").is_ok());
    return m.scalar("total").value();
  };
  EXPECT_NEAR(run({}), run(parallel_opts()), 1e-12);
}

TEST(ParallelInterp, PolicyControlsWhichLoopsParallelize) {
  // An init-to-zero loop keeps its directive only under v0.
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{64}}});
  auto a = pb.global("a", DataType::kDouble, {E(n)});
  auto fb = pb.function("init");
  auto s = fb.step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(a(idx("i")), 0.0);
  const Program p = pb.build().value();

  Machine v0(p, parallel_opts(4, DirectivePolicy::kV0));
  ASSERT_TRUE(v0.call("init").is_ok());
  EXPECT_EQ(v0.stats().parallel_regions, 1u);

  Machine v1(p, parallel_opts(4, DirectivePolicy::kV1));
  ASSERT_TRUE(v1.call("init").is_ok());
  EXPECT_EQ(v1.stats().parallel_regions, 0u);
}

TEST(ParallelInterp, PrivateGridsGivePerThreadStorage) {
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{512}}});
  auto a = pb.global("a", DataType::kDouble, {E(n)});
  auto fb = pb.function("f");
  auto t = fb.local("t", DataType::kDouble);
  auto s = fb.step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(t(), idx("i") * 2.0);
  s.assign(a(idx("i")), E(t));
  const Program p = pb.build().value();

  Machine m(p, parallel_opts(4));
  ASSERT_TRUE(m.call("f").is_ok());
  EXPECT_EQ(m.stats().parallel_regions, 1u);
  const auto out = m.array("a").value();
  for (int i = 0; i < 512; ++i) EXPECT_DOUBLE_EQ(out[i], 2.0 * i);
}

TEST(ParallelInterp, AtomicScatterMatchesSerial) {
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{256}}});
  auto index = pb.global("index", DataType::kInt, {E(n)});
  auto w = pb.global("w", DataType::kDouble, {E(n)});
  auto out = pb.global("out", DataType::kDouble, {8});
  auto fb = pb.function("scatter");
  auto s = fb.step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(out(index(idx("i"))), out(index(idx("i"))) + w(idx("i")));
  const Program p = pb.build().value();

  std::vector<double> idx_data(256), w_data(256);
  for (int i = 0; i < 256; ++i) {
    idx_data[i] = i % 8;
    w_data[i] = 0.25;
  }
  const auto run = [&](InterpOptions opts) {
    Machine m(p, opts);
    EXPECT_TRUE(m.set_array("index", idx_data).is_ok());
    EXPECT_TRUE(m.set_array("w", w_data).is_ok());
    EXPECT_TRUE(m.call("scatter").is_ok());
    return m.array("out").value();
  };
  const auto serial = run({});
  const auto parallel = run(parallel_opts(4));
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(serial[i], parallel[i], 1e-9);
}

TEST(ParallelInterp, CollapsedDoubleLoopMatchesSerial) {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {60, 60});
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, 59).foreach_("j", 0, 59);
  s.assign(a(idx("i"), idx("j")), idx("i") * 100 + idx("j"));
  const Program p = pb.build().value();
  const auto run = [&](InterpOptions opts) {
    Machine m(p, opts);
    EXPECT_TRUE(m.call("f").is_ok());
    return m.array("a").value();
  };
  EXPECT_EQ(run({}), run(parallel_opts(8)));
}

TEST(ParallelInterp, CollapseDistributesFullIterationSpace) {
  // A 2x60 nest (the paper's complex-loop shape): with COLLAPSE the
  // interpreter distributes all 120 points, not just the 2 outer ones.
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {2, 60});
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("h", 0, 1).foreach_("k", 0, 59);
  s.assign(a(idx("h"), idx("k")), idx("h") * 1000 + idx("k"));
  const Program p = pb.build().value();

  Machine serial(p);
  ASSERT_TRUE(serial.call("f").is_ok());
  Machine parallel(p, parallel_opts(8));
  ASSERT_TRUE(parallel.call("f").is_ok());
  EXPECT_EQ(serial.array("a").value(), parallel.array("a").value());
  EXPECT_EQ(parallel.stats().loop_iterations, 120u);
  EXPECT_EQ(parallel.stats().parallel_regions, 1u);
}

TEST(ParallelInterp, CollapseWithStridesMatchesSerial) {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {10, 10});
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, 9, 2).foreach_("j", 1, 9, 3);
  s.assign(a(idx("i"), idx("j")), idx("i") * 10 + idx("j"));
  const Program p = pb.build().value();
  Machine serial(p);
  ASSERT_TRUE(serial.call("f").is_ok());
  Machine parallel(p, parallel_opts(4));
  ASSERT_TRUE(parallel.call("f").is_ok());
  EXPECT_EQ(serial.array("a").value(), parallel.array("a").value());
}

TEST(ParallelInterp, ThreadCountsProduceSameResult) {
  const Program p = testing::reduce_program();
  std::vector<double> x(16, 0.125);
  double reference = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    Machine m(p, parallel_opts(threads));
    ASSERT_TRUE(m.set_array("x", x).is_ok());
    ASSERT_TRUE(m.call("reduce_sum").is_ok());
    const double total = m.scalar("total").value();
    if (threads == 1) {
      reference = total;
    } else {
      EXPECT_NEAR(total, reference, 1e-12) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace glaf
