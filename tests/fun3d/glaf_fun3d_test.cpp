// The FUN3D patterns through the GLAF framework itself: indirect atomic
// scatter, the early-return search with the CRITICAL manual tweak, and
// SAVE'd temporaries — executed by the interpreter serially, by the
// generated OpenMP C in parallel, and generated as FORTRAN.

#include "fun3d/glaf_fun3d.hpp"

#include <gtest/gtest.h>

#include "codegen/c_run.hpp"
#include "codegen/fortran.hpp"
#include "fun3d/mesh.hpp"
#include "interp/machine.hpp"
#include "support/rng.hpp"

namespace glaf::fun3d {
namespace {

/// Bind a small synthetic edge set into the machine's globals.
void load_edges(Machine& m, SplitMix64& rng) {
  std::vector<double> ea(kGlafEdges);
  std::vector<double> eb(kGlafEdges);
  std::vector<double> w(kGlafEdges);
  std::vector<double> q(kGlafNodes);
  for (int e = 0; e < kGlafEdges; ++e) {
    const auto a = static_cast<std::int64_t>(rng.next_below(kGlafNodes));
    std::int64_t b = static_cast<std::int64_t>(rng.next_below(kGlafNodes));
    if (b == a) b = (b + 1) % kGlafNodes;
    ea[e] = static_cast<double>(a);
    eb[e] = static_cast<double>(b);
    w[e] = rng.uniform(0.1, 1.0);
  }
  for (int n = 0; n < kGlafNodes; ++n) q[n] = rng.uniform(-1.0, 1.0);
  ASSERT_TRUE(m.set_array("edge_a", ea).is_ok());
  ASSERT_TRUE(m.set_array("edge_b", eb).is_ok());
  ASSERT_TRUE(m.set_array("w", w).is_ok());
  ASSERT_TRUE(m.set_array("q", q).is_ok());
}

void load_csr(Machine& m, SplitMix64& rng) {
  // Simple CSR: each node adjacent to the next 4 node ids.
  std::vector<double> row_ptr(kGlafNodes + 1);
  std::vector<double> col_idx(static_cast<std::size_t>(kGlafEdges) * 2, 0.0);
  int cursor = 0;
  for (int n = 0; n <= kGlafNodes; ++n) row_ptr[n] = n * 4;
  for (int n = 0; n < kGlafNodes; ++n) {
    for (int j = 0; j < 4; ++j) {
      col_idx[cursor++] = (n + j + 1) % kGlafNodes;
    }
  }
  (void)rng;
  ASSERT_TRUE(m.set_array("row_ptr", row_ptr).is_ok());
  ASSERT_TRUE(m.set_array("col_idx", col_idx).is_ok());
}

TEST(GlafFun3d, ProgramValidates) {
  const Program p = build_fun3d_glaf_program();
  EXPECT_NE(p.find_function("edge_scatter"), nullptr);
  EXPECT_NE(p.find_function("find_offset"), nullptr);
  EXPECT_NE(p.find_function("smooth_q"), nullptr);
}

TEST(GlafFun3d, ScatterStepGetsAtomicVerdict) {
  const Program p = build_fun3d_glaf_program();
  const ProgramAnalysis pa = analyze_program(p);
  const Function* fn = p.find_function("edge_scatter");
  const StepVerdict& scatter = pa.verdict(fn->id, 1);
  EXPECT_TRUE(scatter.parallelizable);
  ASSERT_EQ(scatter.atomic_grids.size(), 1u);
  EXPECT_EQ(p.grid(scatter.atomic_grids[0]).name, "jac");
}

TEST(GlafFun3d, FindOffsetNeedsCriticalTweak) {
  const Program p = build_fun3d_glaf_program();
  const Function* fn = p.find_function("find_offset");

  const ProgramAnalysis no_tweak = analyze_program(p);
  EXPECT_FALSE(no_tweak.verdict(fn->id, 0).parallelizable);
  EXPECT_TRUE(no_tweak.verdict(fn->id, 0).needs_critical);

  const ProgramAnalysis tweaked = analyze_program(p, fun3d_manual_tweaks(p));
  EXPECT_TRUE(tweaked.verdict(fn->id, 0).parallelizable);
  EXPECT_TRUE(tweaked.verdict(fn->id, 0).needs_critical);
}

TEST(GlafFun3d, ParallelScatterMatchesSerial) {
  if (!openmp_available("cc")) GTEST_SKIP() << "cc -fopenmp does not link";
  const Program p = build_fun3d_glaf_program();
  SplitMix64 rng(77);
  Machine serial(p);
  load_edges(serial, rng);
  // The inputs, as the harness of the generated C sets them.
  GlobalValues inputs;
  for (const GridId id : p.global_grids) {
    inputs[id] = serial.array(p.grid(id).name).value();
  }
  ASSERT_TRUE(serial.call("edge_scatter").is_ok());
  const auto expected = serial.array("jac").value();

  // The OpenMP build's atomic scatter, at four threads.
  const StatusOr<GlobalValues> out = run_generated_c(
      p, analyze_program(p), CodegenOptions{}, "edge_scatter", inputs, 4);
  ASSERT_TRUE(out.is_ok()) << out.status().message();
  const auto& got = out.value().at(p.find_grid("jac")->id);
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected[i], got[i], 1e-9) << i;
  }
}

TEST(GlafFun3d, FindOffsetReturnsCorrectOffsets) {
  const Program p = build_fun3d_glaf_program();
  Machine m(p);
  SplitMix64 rng(5);
  load_csr(m, rng);
  // Node 10's adjacency is {11, 12, 13, 14}: offset of 13 is 2.
  const auto r = m.call("find_offset", {10.0, 13.0});
  ASSERT_TRUE(r.is_ok()) << r.status().message();
  EXPECT_DOUBLE_EQ(r.value(), 2.0);
  // Absent target -> -1.
  const auto miss = m.call("find_offset", {10.0, 40.0});
  ASSERT_TRUE(miss.is_ok());
  EXPECT_DOUBLE_EQ(miss.value(), -1.0);
}

TEST(GlafFun3d, SaveScratchPersistsAcrossCalls) {
  const Program p = build_fun3d_glaf_program();
  Machine m(p);
  SplitMix64 rng(9);
  load_edges(m, rng);
  ASSERT_TRUE(m.call("edge_scatter").is_ok());
  m.reset_stats();
  ASSERT_TRUE(m.call("smooth_q").is_ok());
  const std::uint64_t first = m.stats().local_allocations;
  EXPECT_EQ(first, 1u);  // scratch materialized once
  ASSERT_TRUE(m.call("smooth_q").is_ok());
  EXPECT_EQ(m.stats().local_allocations, first);  // reused, not reallocated
}

TEST(GlafFun3d, FortranShowsAtomicAndSavePatterns) {
  const Program p = build_fun3d_glaf_program();
  const GeneratedCode code = generate_fortran(p, analyze_program(p));
  EXPECT_NE(code.source.find("!$OMP ATOMIC"), std::string::npos);
  // n_nodes folds to a constant, so the SAVE'd scratch array is emitted
  // with fixed extents (the guarded-ALLOCATE form only appears for truly
  // symbolic extents, covered in the codegen tests).
  EXPECT_NE(code.source.find(", SAVE :: scratch(0:63)"), std::string::npos);
  EXPECT_NE(code.source.find("USE fun3d_grid"), std::string::npos);

  // With the critical tweak, find_offset's early-return section is
  // wrapped in OMP CRITICAL.
  const GeneratedCode tweaked =
      generate_fortran(p, analyze_program(p, fun3d_manual_tweaks(p)));
  EXPECT_NE(tweaked.source.find("!$OMP CRITICAL"), std::string::npos);
  EXPECT_NE(tweaked.source.find("!$OMP END CRITICAL"), std::string::npos);
}

}  // namespace
}  // namespace glaf::fun3d
