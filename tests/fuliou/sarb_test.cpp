// Side-by-side functional-correctness tests for the SARB case study —
// the reproduction of the paper's §4.1.1 methodology: unit testing of each
// subroutine plus a code-wide comparison of GLAF-generated execution
// against the original serial implementation. The parallel versions are
// compared through the generated OpenMP C (sweep_test.cpp).

#include <gtest/gtest.h>

#include "codegen/fortran.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/reference.hpp"
#include "support/sloc.hpp"

namespace glaf::fuliou {
namespace {

TEST(SarbProgram, BuildsAndValidates) {
  const Program p = build_sarb_program();
  EXPECT_EQ(p.module_name, "sarb_kernels");
  for (const std::string& name : table1_subroutines()) {
    EXPECT_NE(p.find_function(name), nullptr) << name;
  }
}

TEST(SarbProgram, ExercisesEveryIntegrationFeature) {
  const Program p = build_sarb_program();
  // §3.1 existing module, §3.5 TYPE element.
  const Grid* tsfc = p.find_grid("tsfc");
  ASSERT_NE(tsfc, nullptr);
  EXPECT_EQ(tsfc->external, ExternalKind::kModule);
  EXPECT_EQ(tsfc->type_parent, "fo");
  // §3.2 COMMON block.
  const Grid* albedo = p.find_grid("albedo");
  ASSERT_NE(albedo, nullptr);
  EXPECT_EQ(albedo->common_block, "sw_in");
  // §3.3 module scope.
  EXPECT_TRUE(p.find_grid("od")->module_scope);
  // §3.4 all six are subroutines.
  for (const std::string& name : table1_subroutines()) {
    EXPECT_EQ(p.find_function(name)->return_type, DataType::kVoid) << name;
  }
}

TEST(SarbCorrectness, SerialMatchesReferenceExactly) {
  const Program p = build_sarb_program();
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const AtmosphereProfile profile = make_profile(seed);
    const SarbOutputs reference = run_reference(profile);
    Machine m(p);
    const auto glaf_out = run_glaf_sarb(m, profile);
    ASSERT_TRUE(glaf_out.is_ok()) << glaf_out.status().message();
    // Identical operation order: bit-for-bit agreement expected.
    EXPECT_EQ(max_abs_diff(reference, glaf_out.value()), 0.0)
        << "seed " << seed;
  }
}

TEST(SarbCorrectness, PerSubroutineUnitComparison) {
  // Step-by-step unit testing: run each subroutine individually on both
  // sides and compare the arrays it owns.
  const Program p = build_sarb_program();
  const AtmosphereProfile profile = make_profile(11);

  Workspace ws;
  Machine m(p);
  ASSERT_TRUE(load_profile(m, profile).is_ok());

  lw_spectral_integration(profile, ws);
  ASSERT_TRUE(m.call("lw_spectral_integration").is_ok());
  EXPECT_EQ(m.array("planck").value(), ws.out.planck);
  EXPECT_EQ(m.array("lw_flux").value(), ws.out.lw_flux);

  longwave_entropy_model(profile, ws);
  ASSERT_TRUE(m.call("longwave_entropy_model").is_ok());
  EXPECT_EQ(m.array("lw_entropy").value(), ws.out.lw_entropy);
  EXPECT_EQ(m.array("lw_flux").value(), ws.out.lw_flux);

  sw_spectral_integration(profile, ws);
  ASSERT_TRUE(m.call("sw_spectral_integration").is_ok());
  EXPECT_EQ(m.array("sw_flux").value(), ws.out.sw_flux);

  shortwave_entropy_model(profile, ws);
  ASSERT_TRUE(m.call("shortwave_entropy_model").is_ok());
  EXPECT_EQ(m.array("sw_entropy").value(), ws.out.sw_entropy);

  adjust2(profile, ws);
  ASSERT_TRUE(m.call("adjust2").is_ok());
  EXPECT_EQ(m.array("adjusted_flux").value(), ws.out.adjusted_flux);
  EXPECT_EQ(m.array("baseline").value(), ws.out.baseline);
}

TEST(SarbAnalysis, BigLoopsAreComplexAndCollapsed) {
  const Program p = build_sarb_program();
  const ProgramAnalysis pa = analyze_program(p);
  const std::vector<LoopInfo> loops = sarb_loop_inventory(p, pa);

  int complex_parallel = 0;
  for (const LoopInfo& info : loops) {
    if (info.function == "longwave_entropy_model" &&
        (info.step == "le7" || info.step == "le8")) {
      EXPECT_EQ(info.verdict.loop_class, LoopClass::kComplex) << info.step;
      EXPECT_TRUE(info.verdict.parallelizable) << info.step;
      EXPECT_EQ(info.verdict.collapse, 2) << info.step;
      // 2 x 60 = 120 iterations, as the paper reports for COLLAPSE(2).
      EXPECT_EQ(info.verdict.trip_count, 120) << info.step;
      ++complex_parallel;
    }
  }
  EXPECT_EQ(complex_parallel, 2);
}

TEST(SarbAnalysis, LoopClassInventoryCoversTable2Categories) {
  const Program p = build_sarb_program();
  const ProgramAnalysis pa = analyze_program(p);
  int init_zero = 0;
  int broadcast = 0;
  int simple_single = 0;
  int simple_double = 0;
  int complex_loops = 0;
  for (const LoopInfo& info : sarb_loop_inventory(p, pa)) {
    if (!info.verdict.has_loop) continue;
    switch (info.verdict.loop_class) {
      case LoopClass::kInitZero: ++init_zero; break;
      case LoopClass::kBroadcast: ++broadcast; break;
      case LoopClass::kSimpleSingle: ++simple_single; break;
      case LoopClass::kSimpleDouble: ++simple_double; break;
      case LoopClass::kComplex: ++complex_loops; break;
      default: break;
    }
  }
  // Every Table 2 removal category is populated.
  EXPECT_GE(init_zero, 2);
  EXPECT_GE(broadcast, 2);
  EXPECT_GE(simple_single, 4);
  EXPECT_GE(simple_double, 4);
  EXPECT_GE(complex_loops, 2);
}

TEST(SarbAnalysis, ReductionsRecognized) {
  const Program p = build_sarb_program();
  const ProgramAnalysis pa = analyze_program(p);
  bool od_total_reduction = false;
  bool entropy_total_reduction = false;
  for (const LoopInfo& info : sarb_loop_inventory(p, pa)) {
    for (const ReductionClause& r : info.verdict.reductions) {
      if (p.grid(r.grid).name == "od_total") od_total_reduction = true;
      if (p.grid(r.grid).name == "entropy_total") {
        entropy_total_reduction = true;
      }
    }
  }
  EXPECT_TRUE(od_total_reduction);
  EXPECT_TRUE(entropy_total_reduction);
}

TEST(SarbCodegen, FortranHasIntegrationConstructs) {
  const Program p = build_sarb_program();
  const GeneratedCode code = generate_fortran(p, analyze_program(p));
  EXPECT_NE(code.source.find("USE fuliou_input"), std::string::npos);
  EXPECT_NE(code.source.find("COMMON /sw_in/ albedo, cosz"),
            std::string::npos);
  EXPECT_NE(code.source.find("fo%tsfc"), std::string::npos);
  EXPECT_NE(code.source.find("SUBROUTINE entropy_interface()"),
            std::string::npos);
  EXPECT_NE(code.source.find("CALL adjust2()"), std::string::npos);
  EXPECT_NE(code.source.find("COLLAPSE(2)"), std::string::npos);
}

TEST(SarbCodegen, Table1SlocShapeHolds) {
  // We do not match the paper's absolute SLOC (the real fuliou physics is
  // far bigger) but the *ordering* must hold: longwave_entropy_model is by
  // far the largest; shortwave_entropy_model the smallest.
  const Program p = build_sarb_program();
  const GeneratedCode code = generate_fortran(p, analyze_program(p));
  std::map<std::string, int> sloc;
  for (const std::string& name : table1_subroutines()) {
    ASSERT_EQ(code.per_function.count(name), 1u) << name;
    sloc[name] = count_sloc(code.per_function.at(name), SlocLanguage::kFortran);
    EXPECT_GT(sloc[name], 0) << name;
  }
  EXPECT_GT(sloc["longwave_entropy_model"], sloc["lw_spectral_integration"]);
  EXPECT_GT(sloc["longwave_entropy_model"], sloc["sw_spectral_integration"]);
  EXPECT_GT(sloc["longwave_entropy_model"], sloc["entropy_interface"]);
  EXPECT_LT(sloc["shortwave_entropy_model"], sloc["sw_spectral_integration"]);
}

TEST(SarbProfile, DeterministicAndPlausible) {
  const AtmosphereProfile a = make_profile(3);
  const AtmosphereProfile b = make_profile(3);
  EXPECT_EQ(a.temperature, b.temperature);
  EXPECT_NE(a.temperature, make_profile(4).temperature);
  for (int k = 0; k < kNumLevels; ++k) {
    EXPECT_GT(a.temperature[k], 150.0);
    EXPECT_LT(a.temperature[k], 330.0);
    EXPECT_GE(a.cloud_frac[k], 0.0);
    EXPECT_LE(a.cloud_frac[k], 1.0);
    EXPECT_GT(a.tau[k], 0.0);
  }
}

TEST(SarbOutputsStruct, MaxAbsDiffDetectsChanges) {
  SarbOutputs a;
  SarbOutputs b;
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
  b.sw_flux[10] = 0.25;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.25);
  b = a;
  b.entropy_total = 2.0;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 2.0);
}

TEST(SarbTable1, PaperSlocLookup) {
  EXPECT_EQ(paper_sloc("longwave_entropy_model"), 422);
  EXPECT_EQ(paper_sloc("adjust2"), 38);
  EXPECT_EQ(paper_sloc("unknown"), -1);
}

}  // namespace
}  // namespace glaf::fuliou
