// Plan-engine tests: (a) lowering unit tests against the compiled
// FunctionPlans (index-slot resolution, affine/dynamic subscript
// classification, constant folding of loop bounds), and (b) differential
// tests asserting the plan VM is bit-identical to the tree-walk reference
// on the semantics most likely to drift: integer DIV/MOD truncation, NaN
// propagation through MIN/MAX, INTEGER-store truncation, stats and trace,
// and local-instance materialisation (extents, SAVE caches, private
// copies).

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "analysis/parallelize.hpp"
#include "core/builder.hpp"
#include "interp/machine.hpp"
#include "interp/plan.hpp"
#include "testing/programs.hpp"

namespace glaf {
namespace {

interp::ProgramPlan plans_of(const Program& p) {
  return interp::compile_plans(p, analyze_program(p), {});
}

FunctionId fn_id(const Program& p, const std::string& name) {
  const Function* fn = p.find_function(name);
  EXPECT_NE(fn, nullptr) << name;
  return fn == nullptr ? FunctionId{} : fn->id;
}

// ---- lowering --------------------------------------------------------------

TEST(PlanLowering, SaxpyResolvesIndexSlotsAndAffineDims) {
  const Program p = testing::saxpy_program();
  const interp::ProgramPlan plans = plans_of(p);
  const interp::FunctionPlan& fp = plans.functions[fn_id(p, "saxpy")];
  ASSERT_EQ(fp.steps.size(), 1u);
  const interp::StepPlan& sp = fp.steps[0];
  ASSERT_EQ(sp.loops.size(), 1u);
  EXPECT_EQ(sp.loops[0].idx_slot, 0);
  EXPECT_EQ(fp.num_idx, 1);
  // The constant lower bound folds: no instructions to execute.
  EXPECT_TRUE(sp.loops[0].begin.is_const);
  EXPECT_DOUBLE_EQ(sp.loops[0].begin.const_value, 0.0);
  // The upper bound reads the scalar n: not a constant program.
  EXPECT_FALSE(sp.loops[0].end.is_const);
  // Every access in the body (x[i], y[i] read, y[i] write) is a pure
  // affine function of the loop slot: one multiply-add at run time.
  ASSERT_FALSE(fp.accesses.empty());
  for (const interp::AccessPlan& ap : fp.accesses) {
    if (ap.dims.empty()) continue;  // scalar access (a)
    ASSERT_EQ(ap.dims.size(), 1u);
    EXPECT_EQ(ap.dims[0].kind, interp::DimPlan::Kind::kAffine);
    EXPECT_EQ(ap.dims[0].slot, 0);
    EXPECT_EQ(ap.dims[0].coeff, 1);
    EXPECT_EQ(ap.dims[0].constant, 0);
  }
}

TEST(PlanLowering, StridedAndDynamicSubscriptsClassify) {
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{8}}});
  auto a = pb.global("a", DataType::kDouble, {E(n), E(n)});
  auto look = pb.global("look", DataType::kInt, {E(n)});
  auto out = pb.global("out", DataType::kDouble, {E(n)});
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, 2).foreach_("j", 0, 7);
  // a(2*i + 1, j): affine with coefficient 2, addend 1.
  s.assign(a(2 * idx("i") + 1, idx("j")), idx("j"));
  // out(look(j)): a dynamic (gather) subscript.
  s.assign(out(look(idx("j"))), idx("j"));
  const Program p = pb.build().value();
  const interp::ProgramPlan plans = plans_of(p);
  const interp::FunctionPlan& fp = plans.functions[fn_id(p, "f")];
  EXPECT_EQ(fp.num_idx, 2);

  bool saw_strided = false;
  bool saw_dynamic = false;
  for (const interp::AccessPlan& ap : fp.accesses) {
    if (ap.dims.size() == 2) {
      saw_strided = true;
      EXPECT_EQ(ap.dims[0].kind, interp::DimPlan::Kind::kAffine);
      EXPECT_EQ(ap.dims[0].coeff, 2);
      EXPECT_EQ(ap.dims[0].constant, 1);
      EXPECT_EQ(ap.dims[0].slot, 0);
      EXPECT_EQ(ap.dims[1].kind, interp::DimPlan::Kind::kAffine);
      EXPECT_EQ(ap.dims[1].slot, 1);
    }
    if (ap.dims.size() == 1 &&
        ap.dims[0].kind == interp::DimPlan::Kind::kDyn) {
      saw_dynamic = true;
    }
  }
  EXPECT_TRUE(saw_strided);
  EXPECT_TRUE(saw_dynamic);
}

TEST(PlanLowering, LiteralArithmeticBoundsFold) {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {E(8)});
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", E(2.0) + 3.0, E(14.0) / 2.0);
  s.assign(a(idx("i")), 1.0);
  const Program p = pb.build().value();
  const interp::ProgramPlan plans = plans_of(p);
  const interp::StepPlan& sp = plans.functions[fn_id(p, "f")].steps[0];
  ASSERT_TRUE(sp.loops[0].begin.is_const);
  EXPECT_DOUBLE_EQ(sp.loops[0].begin.const_value, 5.0);
  ASSERT_TRUE(sp.loops[0].end.is_const);
  EXPECT_DOUBLE_EQ(sp.loops[0].end.const_value, 7.0);
}

// ---- bit-identical semantics ----------------------------------------------

InterpOptions with_engine(ExecEngine e) {
  InterpOptions o;
  o.engine = e;
  return o;
}

void expect_bit_equal(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": treewalk " << a << " vs plan " << b;
}

TEST(PlanVsTreeWalk, IntegerDivisionTruncates) {
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
    Machine tw(p, with_engine(ExecEngine::kTreeWalk));
    Machine pl(p, with_engine(ExecEngine::kPlan));
    for (Machine* m : {&tw, &pl}) {
      ASSERT_TRUE(m->set_scalar("ia", c[0]).is_ok());
      ASSERT_TRUE(m->set_scalar("ib", c[1]).is_ok());
      ASSERT_TRUE(m->call("f").is_ok());
    }
    EXPECT_DOUBLE_EQ(tw.scalar("q").value(), c[2]);
    expect_bit_equal(tw.scalar("q").value(), pl.scalar("q").value(), "q");
  }
}

TEST(PlanVsTreeWalk, IntegerDivisionByZeroFailsIdentically) {
  ProgramBuilder pb("m");
  auto ia = pb.global("ia", DataType::kInt, {}, {.init = {std::int64_t{1}}});
  auto ib = pb.global("ib", DataType::kInt);
  auto q = pb.global("q", DataType::kInt);
  auto fb = pb.function("f");
  fb.step("s").assign(q(), E(ia) / E(ib));
  const Program p = pb.build().value();

  Machine tw(p, with_engine(ExecEngine::kTreeWalk));
  Machine pl(p, with_engine(ExecEngine::kPlan));
  const auto r_tw = tw.call("f");
  const auto r_pl = pl.call("f");
  ASSERT_FALSE(r_tw.is_ok());
  ASSERT_FALSE(r_pl.is_ok());
  EXPECT_EQ(r_tw.status().message(), r_pl.status().message());
  EXPECT_NE(r_pl.status().message().find("integer division by zero"),
            std::string::npos);
}

TEST(PlanVsTreeWalk, ModIsFmodOnNegatives) {
  ProgramBuilder pb("m");
  auto x = pb.global("x", DataType::kDouble);
  auto y = pb.global("y", DataType::kDouble);
  auto r = pb.global("r", DataType::kDouble);
  auto fb = pb.function("f");
  fb.step("s").assign(r(), call("MOD", {E(x), E(y)}));
  const Program p = pb.build().value();

  const double cases[][2] = {{-7, 3}, {7, -3}, {-7.5, 2.5}, {8.25, 3.5}};
  for (const auto& c : cases) {
    Machine tw(p, with_engine(ExecEngine::kTreeWalk));
    Machine pl(p, with_engine(ExecEngine::kPlan));
    for (Machine* m : {&tw, &pl}) {
      ASSERT_TRUE(m->set_scalar("x", c[0]).is_ok());
      ASSERT_TRUE(m->set_scalar("y", c[1]).is_ok());
      ASSERT_TRUE(m->call("f").is_ok());
    }
    EXPECT_DOUBLE_EQ(tw.scalar("r").value(), std::fmod(c[0], c[1]));
    expect_bit_equal(tw.scalar("r").value(), pl.scalar("r").value(), "r");
  }
}

TEST(PlanVsTreeWalk, NanThroughMinMaxIsBitIdentical) {
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
  Machine tw(p, with_engine(ExecEngine::kTreeWalk));
  Machine pl(p, with_engine(ExecEngine::kPlan));
  for (Machine* m : {&tw, &pl}) {
    ASSERT_TRUE(m->set_scalar("x", nan).is_ok());
    ASSERT_TRUE(m->call("f").is_ok());
  }
  // Whatever the library's NaN policy is, both engines must share it bit
  // for bit (the plan pre-binds the same evaluator pointer).
  expect_bit_equal(tw.scalar("lo").value(), pl.scalar("lo").value(), "lo");
  expect_bit_equal(tw.scalar("hi").value(), pl.scalar("hi").value(), "hi");
}

TEST(PlanVsTreeWalk, IntegerStoreTruncates) {
  ProgramBuilder pb("m");
  auto x = pb.global("x", DataType::kDouble);
  auto k = pb.global("k", DataType::kInt);
  auto fb = pb.function("f");
  fb.step("s").assign(k(), E(x) * 1.0);
  const Program p = pb.build().value();

  for (const double v : {2.75, -2.75, 0.5, -0.5}) {
    Machine tw(p, with_engine(ExecEngine::kTreeWalk));
    Machine pl(p, with_engine(ExecEngine::kPlan));
    for (Machine* m : {&tw, &pl}) {
      ASSERT_TRUE(m->set_scalar("x", v).is_ok());
      ASSERT_TRUE(m->call("f").is_ok());
    }
    EXPECT_DOUBLE_EQ(tw.scalar("k").value(), std::trunc(v));
    expect_bit_equal(tw.scalar("k").value(), pl.scalar("k").value(), "k");
  }
}

TEST(PlanVsTreeWalk, StatsAndTraceIdentical) {
  const Program p = testing::saxpy_program();
  InterpOptions tw_opts = with_engine(ExecEngine::kTreeWalk);
  InterpOptions pl_opts = with_engine(ExecEngine::kPlan);
  tw_opts.trace = pl_opts.trace = true;
  Machine tw(p, tw_opts);
  Machine pl(p, pl_opts);
  for (Machine* m : {&tw, &pl}) {
    ASSERT_TRUE(m->set_scalar("a", 2.0).is_ok());
    ASSERT_TRUE(m->call("saxpy").is_ok());
  }
  EXPECT_EQ(tw.stats().steps_executed, pl.stats().steps_executed);
  EXPECT_EQ(tw.stats().loop_iterations, pl.stats().loop_iterations);
  EXPECT_EQ(tw.stats().local_allocations, pl.stats().local_allocations);
  EXPECT_EQ(tw.stats().function_calls, pl.stats().function_calls);
  ASSERT_EQ(tw.trace().size(), pl.trace().size());
  for (std::size_t i = 0; i < tw.trace().size(); ++i) {
    EXPECT_EQ(tw.trace()[i].function, pl.trace()[i].function);
    EXPECT_EQ(tw.trace()[i].step, pl.trace()[i].step);
    EXPECT_EQ(tw.trace()[i].iterations, pl.trace()[i].iterations);
  }
}

Program collapse_band_program() {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {E(12), E(10)});
  auto fb = pb.function("f");
  auto s = fb.step("s");
  s.foreach_("i", 0, 11).foreach_("j", 0, 9);
  s.assign(a(idx("i"), idx("j")),
           idx("i") * 100.0 + idx("j") + call("SQRT", {idx("i") + 1.0}));
  return pb.build().value();
}

TEST(PlanVsTreeWalk, SerialEnginesIgnoreParallel) {
  // Neither interpreter engine has a parallel path: a machine built with
  // `parallel` set runs serially, bit for bit like a serial tree-walk,
  // with the same stats.
  const Program p = collapse_band_program();
  Machine serial(p, with_engine(ExecEngine::kTreeWalk));
  ASSERT_TRUE(serial.call("f").is_ok());
  for (const ExecEngine engine : {ExecEngine::kTreeWalk, ExecEngine::kPlan}) {
    InterpOptions par_opts = with_engine(engine);
    par_opts.parallel = true;
    par_opts.num_threads = 3;
    Machine par(p, par_opts);
    ASSERT_TRUE(par.call("f").is_ok());
    EXPECT_EQ(par.stats().steps_executed, serial.stats().steps_executed);
    EXPECT_EQ(par.stats().loop_iterations, serial.stats().loop_iterations);
    const auto va = serial.array("a").value();
    const auto vb = par.array("a").value();
    ASSERT_EQ(va.size(), vb.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
      expect_bit_equal(va[i], vb[i], "a[" + std::to_string(i) + "]");
    }
  }
}

TEST(PlanVsTreeWalk, GatherScatterBitIdentical) {
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{8}}});
  auto look = pb.global("look", DataType::kInt, {E(n)});
  auto w = pb.global("w", DataType::kDouble, {E(n)});
  auto out = pb.global("out", DataType::kDouble, {E(n)});
  auto fb = pb.function("scatter");
  auto s = fb.step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.assign(out(look(idx("i"))), out(look(idx("i"))) + w(idx("i")));
  const Program p = pb.build().value();

  Machine tw(p, with_engine(ExecEngine::kTreeWalk));
  Machine pl(p, with_engine(ExecEngine::kPlan));
  for (Machine* m : {&tw, &pl}) {
    ASSERT_TRUE(m->set_array("look", {3, 1, 4, 1, 5, 2, 6, 0}).is_ok());
    ASSERT_TRUE(m->set_array("w", {.5, .25, 1, 2, 4, 8, 16, 32}).is_ok());
    ASSERT_TRUE(m->call("scatter").is_ok());
  }
  const auto va = tw.array("out").value();
  const auto vb = pl.array("out").value();
  for (std::size_t i = 0; i < va.size(); ++i) {
    expect_bit_equal(va[i], vb[i], "out[" + std::to_string(i) + "]");
  }
}

// ---- local instances -------------------------------------------------------

void expect_stats_equal(const InterpStats& a, const InterpStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.steps_executed, b.steps_executed) << what;
  EXPECT_EQ(a.loop_iterations, b.loop_iterations) << what;
  EXPECT_EQ(a.local_allocations, b.local_allocations) << what;
  EXPECT_EQ(a.function_calls, b.function_calls) << what;
}

void expect_arrays_bit_equal(const Machine& a, const Machine& b,
                             const std::string& grid, const std::string& what) {
  const auto va = a.array(grid).value();
  const auto vb = b.array(grid).value();
  ASSERT_EQ(va.size(), vb.size()) << what;
  for (std::size_t i = 0; i < va.size(); ++i) {
    expect_bit_equal(va[i], vb[i], what + " " + grid + "[" +
                                       std::to_string(i) + "]");
  }
}

/// One function whose locals take every materialisation path: extents
/// from a user function, MAX(n, 1) and a parameter, and a SAVE'd local
/// that accumulates across calls.
Program local_instances_program() {
  ProgramBuilder pb("m");
  auto out = pb.global("out", DataType::kDouble, {E(8)});
  auto width = pb.function("width", DataType::kInt);
  auto k = width.param("k", DataType::kInt);
  width.step("s").ret(E(k) + liti(1));
  auto fb = pb.function("f");
  auto n = fb.param("n", DataType::kInt);
  auto by_call =
      fb.local("by_call", DataType::kDouble, {call("width", {E(n)})});
  auto by_max =
      fb.local("by_max", DataType::kDouble, {call("MAX", {E(n), liti(1)})});
  auto by_param = fb.local("by_param", DataType::kDouble, {E(n)});
  auto saved = fb.local("saved", DataType::kDouble, {E(4)}, {.save = true});
  auto fill = fb.step("fill");
  fill.foreach_("i", 0, E(n) - 1);
  fill.assign(by_param(idx("i")), idx("i") * 0.5);
  fill.assign(by_max(idx("i")), by_param(idx("i")) + 1.0);
  fill.assign(by_call(idx("i")), by_max(idx("i")) * 3.0);
  fb.step("count").assign(saved(liti(0)), saved(liti(0)) + 1.0);
  auto emit = fb.step("emit");
  emit.foreach_("i", 0, E(n) - 1);
  emit.assign(out(idx("i")), by_call(idx("i")) + saved(liti(0)));
  return pb.build().value();
}

/// A parallelizable step whose private local is sized by a parameter.
Program private_local_program() {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {E(64)});
  auto fb = pb.function("g");
  auto m = fb.param("m", DataType::kInt);
  auto t = fb.local("t", DataType::kDouble, {E(m)});
  auto s = fb.step("s");
  s.foreach_("i", 0, 63);
  s.assign(t(liti(0)), a(idx("i")) * 2.0 + idx("i"));
  s.assign(t(E(m) - liti(1)), t(liti(0)) * 0.5);
  s.assign(a(idx("i")), t(liti(0)) + t(E(m) - liti(1)));
  return pb.build().value();
}

TEST(PlanVsTreeWalk, LocalInstancesIdentical) {
  const Program p = local_instances_program();
  for (const bool save_all : {false, true}) {
    const std::string mode = save_all ? "save_temporaries" : "per-call";
    InterpOptions tw_opts = with_engine(ExecEngine::kTreeWalk);
    InterpOptions pl_opts = with_engine(ExecEngine::kPlan);
    tw_opts.save_temporaries = pl_opts.save_temporaries = save_all;
    Machine tw(p, tw_opts);
    Machine pl(p, pl_opts);
    // Decreasing sizes after the first call: under save_temporaries every
    // local keeps its first-call extents.
    for (const double n : {8.0, 3.0, 5.0}) {
      const std::string what = mode + " n=" + std::to_string(n);
      ASSERT_TRUE(tw.call("f", {n}).is_ok()) << what;
      ASSERT_TRUE(pl.call("f", {n}).is_ok()) << what;
      expect_arrays_bit_equal(tw, pl, "out", what);
      expect_stats_equal(tw.stats(), pl.stats(), what);
    }
    EXPECT_EQ(pl.stats().local_allocations, save_all ? 4u : 10u) << mode;
  }

  // A non-positive extent fails identically, whether it comes from a
  // parameter (after the user-function extent before it ran) or from the
  // user function itself, and leaves both machines usable.
  Machine tw(p, with_engine(ExecEngine::kTreeWalk));
  Machine pl(p, with_engine(ExecEngine::kPlan));
  const std::pair<double, std::string> bad[] = {
      {0.0, "non-positive extent 0 for grid 'by_param'"},
      {-2.0, "non-positive extent -1 for grid 'by_call'"}};
  for (const auto& [n, message] : bad) {
    const auto r_tw = tw.call("f", {n});
    const auto r_pl = pl.call("f", {n});
    ASSERT_FALSE(r_tw.is_ok());
    ASSERT_FALSE(r_pl.is_ok());
    EXPECT_EQ(r_tw.status().message(), r_pl.status().message());
    EXPECT_NE(r_pl.status().message().find(message), std::string::npos)
        << r_pl.status().message();
  }
  ASSERT_TRUE(tw.call("f", {4.0}).is_ok());
  ASSERT_TRUE(pl.call("f", {4.0}).is_ok());
  expect_arrays_bit_equal(tw, pl, "out", "after failure");
  expect_stats_equal(tw.stats(), pl.stats(), "after failure");

  // A step with a symbolic-extent private local, rebuilt per call.
  const Program q = private_local_program();
  const ProgramAnalysis qa = analyze_program(q);
  const StepVerdict& v = qa.verdict(q.find_function("g")->id, 0);
  ASSERT_EQ(v.private_grids.size(), 1u);
  EXPECT_EQ(q.grid(v.private_grids[0]).name, "t");
  Machine q_tw(q, with_engine(ExecEngine::kTreeWalk));
  Machine q_pl(q, with_engine(ExecEngine::kPlan));
  for (const double m : {2.0, 7.0}) {
    ASSERT_TRUE(q_tw.call("g", {m}).is_ok());
    ASSERT_TRUE(q_pl.call("g", {m}).is_ok());
  }
  expect_arrays_bit_equal(q_tw, q_pl, "a", "private local");
  expect_stats_equal(q_tw.stats(), q_pl.stats(), "private local");
}

}  // namespace
}  // namespace glaf
