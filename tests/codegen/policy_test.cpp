#include "codegen/directive_policy.hpp"

#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "support/strings.hpp"

namespace glaf {
namespace {

StepVerdict verdict_of(LoopClass c, bool parallel = true) {
  StepVerdict v;
  v.has_loop = c != LoopClass::kStraightLine;
  v.parallelizable = parallel;
  v.loop_class = c;
  return v;
}

// Table 2: which loop classes keep directives under each policy.
struct Case {
  DirectivePolicy policy;
  LoopClass cls;
  bool kept;
};

class PolicyTable : public ::testing::TestWithParam<Case> {};

TEST_P(PolicyTable, MatchesTable2) {
  const Case c = GetParam();
  EXPECT_EQ(keep_directive(c.policy, verdict_of(c.cls)), c.kept);
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, PolicyTable,
    ::testing::Values(
        // v0 keeps every parallelizable loop.
        Case{DirectivePolicy::kV0, LoopClass::kInitZero, true},
        Case{DirectivePolicy::kV0, LoopClass::kBroadcast, true},
        Case{DirectivePolicy::kV0, LoopClass::kSimpleSingle, true},
        Case{DirectivePolicy::kV0, LoopClass::kSimpleDouble, true},
        Case{DirectivePolicy::kV0, LoopClass::kComplex, true},
        // v1 drops init/broadcast.
        Case{DirectivePolicy::kV1, LoopClass::kInitZero, false},
        Case{DirectivePolicy::kV1, LoopClass::kBroadcast, false},
        Case{DirectivePolicy::kV1, LoopClass::kSimpleSingle, true},
        Case{DirectivePolicy::kV1, LoopClass::kSimpleDouble, true},
        Case{DirectivePolicy::kV1, LoopClass::kComplex, true},
        // v2 additionally drops simple single loops.
        Case{DirectivePolicy::kV2, LoopClass::kSimpleSingle, false},
        Case{DirectivePolicy::kV2, LoopClass::kSimpleDouble, true},
        Case{DirectivePolicy::kV2, LoopClass::kComplex, true},
        // v3 additionally drops simple double loops; complex only.
        Case{DirectivePolicy::kV3, LoopClass::kInitZero, false},
        Case{DirectivePolicy::kV3, LoopClass::kBroadcast, false},
        Case{DirectivePolicy::kV3, LoopClass::kSimpleSingle, false},
        Case{DirectivePolicy::kV3, LoopClass::kSimpleDouble, false},
        Case{DirectivePolicy::kV3, LoopClass::kComplex, true}));

TEST(Policy, NonParallelizableNeverKept) {
  for (const DirectivePolicy p :
       {DirectivePolicy::kV0, DirectivePolicy::kV1, DirectivePolicy::kV2,
        DirectivePolicy::kV3}) {
    EXPECT_FALSE(keep_directive(p, verdict_of(LoopClass::kComplex, false)));
  }
}

TEST(Policy, StraightLineNeverKept) {
  EXPECT_FALSE(keep_directive(DirectivePolicy::kV0,
                              verdict_of(LoopClass::kStraightLine)));
}

TEST(DirectivePlan, CollapsesTwoLoopsAndPrivatizesTheRest) {
  ProgramBuilder pb("m");
  auto a = pb.global("a", DataType::kDouble, {4, 4, 4});
  auto s = pb.function("f").step("s");
  s.foreach_("i", 0, 3).foreach_("j", 0, 3).foreach_("k", 0, 3);
  s.assign(a(idx("i"), idx("j"), idx("k")), 1.0);
  const Program p = pb.build().value();
  const ProgramAnalysis pa = analyze_program(p);
  CodegenOptions opts;
  const DirectivePlan plan = plan_directives(p, pa, opts);
  const StepDirective* d = plan.step(p.functions[0].id, 0);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->band, 3u);
  EXPECT_EQ(d->collapse, kMaxCollapse);
  EXPECT_EQ(d->private_indices, std::vector<std::string>{"k"});
  EXPECT_EQ(plan.step(p.functions[0].id, 1), nullptr);
  // Both spellings of one plan.
  EXPECT_EQ(clause_text(p, *d, opts, to_lower), " collapse(2) private(k)");
  EXPECT_EQ(clause_text(p, *d, opts, to_upper), " COLLAPSE(2) PRIVATE(k)");

  opts.emit_collapse = false;
  const DirectivePlan flat = plan_directives(p, pa, opts);
  d = flat.step(p.functions[0].id, 0);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->collapse, 1);
  EXPECT_EQ(d->private_indices, (std::vector<std::string>{"j", "k"}));
}

TEST(DirectivePlan, RegionCalleeGetsOrphanedAtomicAndThreadprivateSave) {
  ProgramBuilder pb("m");
  auto acc = pb.global("acc", DataType::kDouble, {2});
  auto bump = pb.function("bump");
  auto k = bump.param("k", DataType::kInt);
  auto t = bump.local("t", DataType::kDouble);
  auto body = bump.step("s");
  body.assign(t(), E(k));
  body.assign(acc(liti(0)), acc(liti(0)) + E(t));
  body.assign(acc(liti(1)), E(t));
  auto loop = pb.function("f").step("loop");
  loop.foreach_("i", 0, 63);
  loop.call_sub("bump", {idx("i")});
  const Program p = pb.build().value();
  TweaksByFunction tweaks;
  tweaks["f"].force_atomic.insert(p.find_grid("acc")->id);
  CodegenOptions opts;
  opts.save_temporaries = true;
  const DirectivePlan plan =
      plan_directives(p, analyze_program(p, tweaks), opts);
  EXPECT_EQ(plan.region_callees, std::set<std::string>{"bump"});
  EXPECT_EQ(plan.threadprivate_saves, std::set<GridId>{t.id()});
  const std::vector<Stmt>& stores = p.find_function("bump")->steps[0].body;
  EXPECT_EQ(plan.atomic(nullptr, stores[0]), nullptr);
  EXPECT_STREQ(plan.atomic(nullptr, stores[1]), "atomic");
  EXPECT_STREQ(plan.atomic(nullptr, stores[2]), "atomic write");
}

TEST(Policy, Names) {
  EXPECT_STREQ(to_string(DirectivePolicy::kV0), "v0");
  EXPECT_STREQ(to_string(DirectivePolicy::kV3), "v3");
  EXPECT_STREQ(to_string(Language::kFortran), "FORTRAN");
}

}  // namespace
}  // namespace glaf
