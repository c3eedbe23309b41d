// CLI-level checks for the glafc driver's --strict-engine contract:
// with --engine=native it must exit non-zero whenever the native
// engine falls back — whole-engine unavailability or per-call plan
// routing — and print the reason; without fallback it must exit 0.
// Also covers the run-mode --emit tier switch (interp|opt) and its
// interaction with --engine/--strict-engine, and the machine-readable
// --json run report (whose native_report object shares its schema with
// the glaf_serve stats endpoint), and the run-mode usage errors for
// unknown policies, a parallel tree-walk and the codegen-only
// --schedule/--schedule-chunk flags.
// Runs the real binary (path injected by CMake) through the shell.

#include <gtest/gtest.h>

#include <string>

#include "support/subprocess.hpp"

namespace glaf {
namespace {

std::string glafc() { return std::string(GLAF_GLAFC_PATH); }

bool have_cc() { return cc_available(default_cc()); }

TEST(GlafcStrictEngine, SucceedsWhenTheNativeEngineHandlesEveryCall) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const RunResult r = run_command(
      glafc() +
      " --builtin=sarb --run --engine=native --parallel --threads 2"
      " --strict-engine 2>&1");
  ASSERT_TRUE(r.started);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("native kernel"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0 fallback call(s)"), std::string::npos)
      << r.output;
}

TEST(GlafcStrictEngine, FailsWithReasonWhenTheEngineIsUnavailable) {
  const RunResult r = run_command(
      "GLAF_CC=/nonexistent/compiler " + glafc() +
      " --builtin=sarb --run --engine=native --strict-engine 2>&1");
  ASSERT_TRUE(r.started);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("native engine unavailable"), std::string::npos)
      << r.output;
}

TEST(GlafcStrictEngine, WithoutStrictTheSameFallbackOnlyWarns) {
  const RunResult r = run_command(
      "GLAF_CC=/nonexistent/compiler " + glafc() +
      " --builtin=sarb --run --engine=native 2>&1");
  ASSERT_TRUE(r.started);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("native engine unavailable"), std::string::npos)
      << r.output;
}

TEST(GlafcStrictEngine, RejectsNonNativeEngines) {
  const RunResult r = run_command(
      glafc() + " --builtin=sarb --run --engine=plan --strict-engine 2>&1");
  ASSERT_TRUE(r.started);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("requires --engine=native"), std::string::npos)
      << r.output;
}

TEST(GlafcEmitTier, OptTierRunsNativelyUnderStrictEngine) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  // Opt kernels dispatch serially, so every call must still be native:
  // --strict-engine holds the tier to zero fallbacks.
  const RunResult r = run_command(
      glafc() +
      " --builtin=sarb --run --engine=native --emit=opt"
      " --strict-engine 2>&1");
  ASSERT_TRUE(r.started);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("model=opt"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0 fallback call(s)"), std::string::npos)
      << r.output;
}

TEST(GlafcEmitTier, DefaultTierIsInterp) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const RunResult r = run_command(
      glafc() + " --builtin=sarb --run --engine=native 2>&1");
  ASSERT_TRUE(r.started);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("model=interp"), std::string::npos) << r.output;
}

TEST(GlafcEmitTier, PortableOptTierRuns) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  // --portable drops -march=native; the kernel must still build and run.
  const RunResult r = run_command(
      glafc() +
      " --builtin=sarb --run --engine=native --emit=opt --portable"
      " --strict-engine 2>&1");
  ASSERT_TRUE(r.started);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("model=opt"), std::string::npos) << r.output;
}

TEST(GlafcEmitTier, OptRequiresTheNativeEngine) {
  const RunResult r = run_command(
      glafc() + " --builtin=sarb --run --engine=plan --emit=opt 2>&1");
  ASSERT_TRUE(r.started);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("requires --engine=native"), std::string::npos)
      << r.output;
}

TEST(GlafcEmitTier, RejectsUnknownRunModeTier) {
  const RunResult r = run_command(
      glafc() + " --builtin=sarb --run --engine=native --emit=fast 2>&1");
  ASSERT_TRUE(r.started);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("interp|opt"), std::string::npos) << r.output;
}

TEST(GlafcJson, PrintsTheRunReportOnStdout) {
  // stdout only (stderr dropped): the report must be one JSON object
  // with the shared native_report schema the serve stats endpoint uses.
  // run_command merges stderr itself, so drop it inside a subshell.
  const RunResult r = run_command(
      "( " + glafc() + " --builtin=sarb --run --engine=plan --json"
      " 2>/dev/null )");
  ASSERT_TRUE(r.started);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.rfind("{\"entry\":", 0), 0u) << r.output;
  EXPECT_NE(r.output.find("\"engine\":\"plan\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"result\":"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"stats\":{"), std::string::npos) << r.output;
  // Non-native engines render native_report as null, not absent.
  EXPECT_NE(r.output.find("\"native_report\":null"), std::string::npos)
      << r.output;
}

TEST(GlafcJson, NativeRunEmbedsTheSharedNativeReportSchema) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const RunResult r = run_command(
      "( " + glafc() +
      " --builtin=sarb --run --engine=native --json 2>/dev/null )");
  ASSERT_TRUE(r.started);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // The schema fields the serve stats endpoint greps for too.
  for (const char* field :
       {"\"native_report\":{", "\"available\":true", "\"model\":\"interp\"",
        "\"native_calls\":", "\"cache_hit\":", "\"object_path\":",
        "\"compiler\":", "\"compile_flags\":"}) {
    EXPECT_NE(r.output.find(field), std::string::npos)
        << "missing " << field << " in: " << r.output;
  }
}

TEST(GlafcJson, WithoutTheFlagStdoutStaysEmpty) {
  const RunResult r = run_command(
      "( " + glafc() + " --builtin=sarb --run --engine=plan 2>/dev/null )");
  ASSERT_TRUE(r.started);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "") << "run mode must not pollute stdout";
}

TEST(GlafcPolicies, RejectsUnknownPolicyNames) {
  // --policies is the documented alias for --policy; both must reject
  // names outside v0..v3 with the full range in the message.
  for (const char* flag : {"--policies=v9", "--policy=v9"}) {
    const RunResult r = run_command(glafc() + " --builtin=sarb --run"
                                              " --engine=plan " +
                                    flag + " 2>&1");
    ASSERT_TRUE(r.started);
    EXPECT_NE(r.exit_code, 0) << flag << ": " << r.output;
    EXPECT_NE(r.output.find("unknown policy 'v9' (v0..v3)"),
              std::string::npos)
        << flag << ": " << r.output;
  }
}

TEST(GlafcPolicies, RejectsV4) {
  // The directive policies are the paper's Table 2, v0..v3; there is no
  // speculative v4.
  const RunResult r = run_command(
      glafc() + " --builtin=sarb --run --engine=native --policy=v4"
                " --parallel --threads 2 2>&1");
  ASSERT_TRUE(r.started);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("unknown policy 'v4' (v0..v3)"), std::string::npos)
      << r.output;
}

TEST(GlafcEngine, SerialEnginesRejectParallel) {
  // The tree-walk and the plan VM are serial engines: asking either for a
  // parallel run is a usage error, not a silent serial run.
  for (const std::string engine : {"treewalk", "plan"}) {
    const RunResult r = run_command(glafc() + " --builtin=sarb --run --engine=" +
                                    engine + " --parallel 2>&1");
    ASSERT_TRUE(r.started);
    EXPECT_NE(r.exit_code, 0) << engine << ": " << r.output;
    EXPECT_NE(r.output.find("--parallel requires --engine=native (" + engine +
                            " is a serial engine)"),
              std::string::npos)
        << r.output;
  }
}

TEST(GlafcEngine, RunModeRejectsScheduleFlags) {
  // --schedule/--schedule-chunk set the emitted OpenMP SCHEDULE clause;
  // run mode partitions statically and must say so, not ignore them.
  for (const char* flag :
       {"--schedule=bogus", "--schedule=dynamic", "--schedule-chunk=4"}) {
    const RunResult r = run_command(glafc() +
                                    " --builtin=sarb --run --engine=native"
                                    " --parallel --threads 2 " +
                                    flag + " 2>&1");
    ASSERT_TRUE(r.started);
    EXPECT_NE(r.exit_code, 0) << flag << ": " << r.output;
    EXPECT_NE(r.output.find("emitted OpenMP SCHEDULE clause"),
              std::string::npos)
        << flag << ": " << r.output;
  }
}

TEST(GlafcEmitTier, CodegenModeKeepsTheScheduleClause) {
  const RunResult r = run_command(
      glafc() + " --builtin=sarb --emit=c --schedule=dynamic"
                " --schedule-chunk=4 2>&1");
  ASSERT_TRUE(r.started);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("schedule(dynamic, 4)"), std::string::npos);
}

TEST(GlafcEmitTier, CodegenModeEmitStillSelectsLanguages) {
  // Outside run mode --emit keeps its original meaning (target language).
  const RunResult r = run_command(
      glafc() + " --builtin=sarb --emit=c --serial 2>&1 | head -5");
  ASSERT_TRUE(r.started);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
}  // namespace glaf
