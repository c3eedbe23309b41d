// Parameterized correctness sweeps for the SARB case study: every
// (policy, thread-count) combination of the generated OpenMP C must
// reproduce the original serial implementation — the full cross product
// of the paper's §4.1.1 side-by-side methodology, on the code GLAF
// ships. The OpenMP build runs every kept directive (private copies,
// reductions, atomics); each cell feeds it a different zone.

#include <gtest/gtest.h>

#include "codegen/c_run.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/reference.hpp"

namespace glaf::fuliou {
namespace {

struct SweepCase {
  DirectivePolicy policy;
  int threads;
};

class SarbOpenMpSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SarbOpenMpSweep, MatchesOriginal) {
  if (!openmp_available("cc")) GTEST_SKIP() << "cc -fopenmp does not link";
  static const Program p = build_sarb_program();
  const SweepCase sc = GetParam();
  const std::uint64_t seed =
      11 + 10 * static_cast<std::uint64_t>(sc.policy) + sc.threads;
  const AtmosphereProfile profile = make_profile(seed);
  CodegenOptions copts;
  copts.policy = sc.policy;
  const StatusOr<GlobalValues> out =
      run_generated_c(p, analyze_program(p), copts, "entropy_interface",
                      profile_values(p, profile), sc.threads);
  ASSERT_TRUE(out.is_ok()) << out.status().message();
  // Parallel reductions reassociate; the paper's criterion for this kind
  // of check is an absolute tolerance of 1e-7 (§4.2.1).
  EXPECT_LT(max_abs_diff(run_reference(profile), outputs_from(p, out.value())),
            1e-7)
      << "seed " << seed;
}

std::vector<SweepCase> all_cases() {
  std::vector<SweepCase> cases;
  for (const DirectivePolicy policy :
       {DirectivePolicy::kV0, DirectivePolicy::kV1, DirectivePolicy::kV2,
        DirectivePolicy::kV3}) {
    for (const int threads : {1, 2, 4, 8}) cases.push_back({policy, threads});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicyThreadCombos, SarbOpenMpSweep, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return std::string(to_string(info.param.policy)) + "_" +
             std::to_string(info.param.threads) + "T";
    });

class SarbSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SarbSeedSweep, SerialBitExactForSeed) {
  static const Program p = build_sarb_program();
  const AtmosphereProfile profile = make_profile(GetParam());
  const SarbOutputs reference = run_reference(profile);
  Machine m(p);
  const auto out = run_glaf_sarb(m, profile);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(max_abs_diff(reference, out.value()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, SarbSeedSweep,
                         ::testing::Range<std::uint64_t>(100, 120));

}  // namespace
}  // namespace glaf::fuliou
