// The complete §4.2 check: the five-sub-function FUN3D decomposition in
// GLAF IR reproduces the native mini-app's Jacobian bit for bit when
// interpreted serially, and within the paper's 1e-7 RMS tolerance when
// parallelized with the §4.2.1 manual tweaks (the generated OpenMP C).

#include "fun3d/glaf_full.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "codegen/c_run.hpp"
#include "codegen/fortran.hpp"
#include "fun3d/recon.hpp"

namespace glaf::fun3d {
namespace {

constexpr std::int64_t kCells = 120;
constexpr std::uint64_t kSeed = 9;

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) return 1e300;
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

TEST(GlafFull, ProgramBuildsForAnyMesh) {
  const Mesh mesh = make_mesh(kCells, kSeed);
  const Program p = build_fun3d_full_program(mesh);
  for (const char* fn : {"edgejp", "cell_loop", "edge_loop", "angle_check",
                         "ioff_search", "face_weight"}) {
    EXPECT_NE(p.find_function(fn), nullptr) << fn;
  }
}

TEST(GlafFull, SerialInterpretationMatchesNativeExactly) {
  const Mesh mesh = make_mesh(kCells, kSeed);
  const ReconResult native = reconstruct_original(mesh);

  Machine m(build_fun3d_full_program(mesh));
  ASSERT_TRUE(load_mesh(m, mesh).is_ok());
  const auto r = m.call("edgejp");
  ASSERT_TRUE(r.is_ok()) << r.status().message();
  const auto jac = extract_jacobian(m);
  ASSERT_TRUE(jac.is_ok());
  EXPECT_EQ(max_abs_diff(native.jac, jac.value()), 0.0);
}

TEST(GlafFull, SeveralMeshesAgree) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Mesh mesh = make_mesh(80, seed);
    const ReconResult native = reconstruct_original(mesh);
    Machine m(build_fun3d_full_program(mesh));
    ASSERT_TRUE(load_mesh(m, mesh).is_ok());
    ASSERT_TRUE(m.call("edgejp").is_ok());
    EXPECT_EQ(max_abs_diff(native.jac, extract_jacobian(m).value()), 0.0)
        << "seed " << seed;
  }
}

TEST(GlafFull, OuterLoopBlockedWithoutTweaks) {
  // The outer cell loop writes shared module-scope state through its
  // callees: the analysis must refuse to parallelize it until the §4.2.1
  // manual tweaks mark those grids private/atomic.
  const Mesh mesh = make_mesh(kCells, kSeed);
  const Program p = build_fun3d_full_program(mesh);
  const ProgramAnalysis pa = analyze_program(p);
  const Function* edgejp = p.find_function("edgejp");
  EXPECT_FALSE(pa.verdict(edgejp->id, 1).parallelizable);
}

TweaksByFunction full_tweaks(const Program& p) {
  // The paper's tweak list: module-scope intermediates thread-private,
  // the shared output atomic.
  TweaksByFunction tweaks;
  ManualTweaks& t = tweaks["edgejp"];
  for (const char* name : {"cell_avg", "dq", "contrib", "wgt_total"}) {
    t.force_private.insert(p.find_grid(name)->id);
  }
  t.force_atomic.insert(p.find_grid("jac")->id);
  return tweaks;
}

TEST(GlafFull, TweaksUnblockOuterLoop) {
  const Mesh mesh = make_mesh(kCells, kSeed);
  const Program p = build_fun3d_full_program(mesh);
  const ProgramAnalysis pa = analyze_program(p, full_tweaks(p));
  const Function* edgejp = p.find_function("edgejp");
  const StepVerdict& v = pa.verdict(edgejp->id, 1);
  EXPECT_TRUE(v.parallelizable);
  EXPECT_EQ(v.private_grids.size(), 4u);
  ASSERT_EQ(v.atomic_grids.size(), 1u);
  EXPECT_EQ(p.grid(v.atomic_grids[0]).name, "jac");
}

TEST(GlafFull, ParallelWithTweaksMatchesWithinPaperTolerance) {
  if (!openmp_available("cc")) GTEST_SKIP() << "cc -fopenmp does not link";
  const Mesh mesh = make_mesh(kCells, kSeed);
  const ReconResult native = reconstruct_original(mesh);
  const Program p = build_fun3d_full_program(mesh);
  const ProgramAnalysis pa = analyze_program(p, full_tweaks(p));
  ASSERT_TRUE(pa.verdict(p.find_function("edgejp")->id, 1).parallelizable);

  // The mesh, as the harness of the generated C sets it.
  Machine m(p);
  ASSERT_TRUE(load_mesh(m, mesh).is_ok());
  GlobalValues inputs;
  for (const GridId id : p.global_grids) {
    inputs[id] = m.array(p.grid(id).name).value();
  }
  const StatusOr<GlobalValues> out =
      run_generated_c(p, pa, CodegenOptions{}, "edgejp", inputs, 4);
  ASSERT_TRUE(out.is_ok()) << out.status().message();
  // RMS at 1e-7 absolute — the paper's criterion (§4.2.1).
  const std::vector<double>& jac = out.value().at(p.find_grid("jac")->id);
  EXPECT_NEAR(rms_of(jac), rms_of(native.jac), 1e-7);
  EXPECT_LT(max_abs_diff(native.jac, jac), 1e-7);
}

TEST(GlafFull, SaveTempsAllocateOncePerThread) {
  const Mesh mesh = make_mesh(kCells, kSeed);
  Machine m(build_fun3d_full_program(mesh));
  ASSERT_TRUE(load_mesh(m, mesh).is_ok());
  ASSERT_TRUE(m.call("edgejp").is_ok());
  // temps is SAVE'd: one materialization across all edge_loop calls.
  // Every other local is scalar (not counted as array allocations).
  EXPECT_EQ(m.stats().local_allocations, 1u);
  const std::uint64_t first = m.stats().local_allocations;
  ASSERT_TRUE(m.call("edgejp").is_ok());
  EXPECT_EQ(m.stats().local_allocations, first);
}

TEST(GlafFull, FortranWithTweaksDeclaresThreadprivateAndOrphanedAtomics) {
  // The §4.2.1 tweaks work only together: the callees name the
  // privatized module variables, so they are THREADPRIVATE rather than
  // PRIVATE, edge_loop's SAVE'd temporaries are per thread, and a
  // callee's store to a grid the loop updates atomically is atomic too.
  // The FORTRAN is not compiled here (no FORTRAN compiler in CI).
  const Mesh mesh = make_mesh(kCells, kSeed);
  const Program p = build_fun3d_full_program(mesh);
  const GeneratedCode code =
      generate_fortran(p, analyze_program(p, full_tweaks(p)));
  const std::string& f = code.source;
  const std::size_t module_tp =
      f.find("\n!$OMP THREADPRIVATE(cell_avg, dq, contrib, wgt_total)\n");
  ASSERT_NE(module_tp, std::string::npos) << f;
  EXPECT_LT(module_tp, f.find("\nCONTAINS\n"));
  EXPECT_NE(f.find("SAVE :: temps(0:49, 0:4)\n!$OMP THREADPRIVATE(temps)\n"),
            std::string::npos);
  EXPECT_NE(f.find("!$OMP ATOMIC WRITE\n  wgt_total = 0.0d0\n"),
            std::string::npos);
  // OpenMP forbids a threadprivate variable in PRIVATE: edgejp's
  // directives name none of the four.
  const std::string& edgejp = code.per_function.at("edgejp");
  int directives = 0;
  for (std::size_t at = edgejp.find("!$OMP PARALLEL DO");
       at != std::string::npos; at = edgejp.find("!$OMP PARALLEL DO", at + 1)) {
    const std::string line = edgejp.substr(at, edgejp.find('\n', at) - at);
    ++directives;
    for (const char* name : {"cell_avg", "dq", "contrib", "wgt_total"}) {
      EXPECT_EQ(line.find(name), std::string::npos) << line;
    }
  }
  EXPECT_EQ(directives, 2);
}

TEST(GlafFull, FortranShowsDecompositionStructure) {
  const Mesh mesh = make_mesh(kCells, kSeed);
  const Program p = build_fun3d_full_program(mesh);
  const GeneratedCode code = generate_fortran(p, analyze_program(p));
  EXPECT_NE(code.source.find("SUBROUTINE edgejp()"), std::string::npos);
  EXPECT_NE(code.source.find("CALL cell_loop(c)"), std::string::npos);
  EXPECT_NE(code.source.find("CALL edge_loop(e)"), std::string::npos);
  EXPECT_NE(code.source.find("INTEGER FUNCTION ioff_search(row, target)"),
            std::string::npos);
  EXPECT_NE(code.source.find(", SAVE :: temps"), std::string::npos);
  EXPECT_NE(code.source.find("USE fun3d_grid"), std::string::npos);
}

}  // namespace
}  // namespace glaf::fun3d
