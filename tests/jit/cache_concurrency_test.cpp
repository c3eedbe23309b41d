// Multi-process kernel-cache stress: two processes race a cold compile
// of the SAME program into the SAME cache directory. The cache's
// tmp-then-rename publication means both must succeed — each compiles
// into a private temp file and the rename is atomic, so the losers'
// object simply replaces (or is replaced by) an identical winner.
// A corrupted or partially-written entry must never be observable.
//
// fork() is safe here because the test performs the racing work in
// freshly forked children that only call compile_object (which forks
// the system compiler itself) and _exit — no gtest machinery, no
// threads in the child.

#include <sys/wait.h>
#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

#include "analysis/parallelize.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "interp/machine.hpp"
#include "jit/engine.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"

namespace glaf {
namespace {

bool have_cc() { return cc_available("cc"); }

std::string fresh_cache_dir(const std::string& tag) {
  std::string tmpl =
      cat(::testing::TempDir(), "glaf_ccache_", tag, "_XXXXXX");
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : tmpl;
}

jit::NativeEngine::Options cache_options(const std::string& cache_dir) {
  jit::NativeEngine::Options options;
  options.cache_dir = cache_dir;
  options.parallel = false;
  return options;
}

/// Compile the SARB program into `cache_dir` inside a forked child;
/// exit code 0 on success, 1 on failure.
pid_t spawn_compiler(const std::string& cache_dir) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: cold-compile and report via the exit code only.
  const Program program = fuliou::build_sarb_program();
  const ProgramAnalysis analysis = analyze_program(program);
  const auto compiled = jit::NativeEngine::compile_object(
      program, analysis, cache_options(cache_dir));
  _exit(compiled.is_ok() ? 0 : 1);
}

TEST(CacheConcurrency, TwoProcessColdCompileRaceBothSucceed) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const std::string cache_dir = fresh_cache_dir("race2");

  const pid_t a = spawn_compiler(cache_dir);
  ASSERT_GT(a, 0);
  const pid_t b = spawn_compiler(cache_dir);
  ASSERT_GT(b, 0);

  int status_a = 0;
  int status_b = 0;
  ASSERT_EQ(waitpid(a, &status_a, 0), a);
  ASSERT_EQ(waitpid(b, &status_b, 0), b);
  EXPECT_TRUE(WIFEXITED(status_a) && WEXITSTATUS(status_a) == 0)
      << "child A failed";
  EXPECT_TRUE(WIFEXITED(status_b) && WEXITSTATUS(status_b) == 0)
      << "child B failed";

  // The published entry is valid: this process loads it as a cache hit
  // and the engine runs.
  const Program program = fuliou::build_sarb_program();
  const ProgramAnalysis analysis = analyze_program(program);
  const auto compiled = jit::NativeEngine::compile_object(
      program, analysis, cache_options(cache_dir));
  ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
  EXPECT_TRUE(compiled.value().cache_hit)
      << "both children compiled yet the parent saw a cold cache";
  const auto engine = jit::NativeEngine::load_compiled(
      compiled.value(), cache_options(cache_dir));
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
}

TEST(CacheConcurrency, ManyProcessStressLeavesOneValidEntry) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const std::string cache_dir = fresh_cache_dir("raceN");

  constexpr int kProcs = 6;
  pid_t pids[kProcs];
  for (int i = 0; i < kProcs; ++i) {
    pids[i] = spawn_compiler(cache_dir);
    ASSERT_GT(pids[i], 0);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  // End state: a Machine over the same cache serves natively.
  InterpOptions iopts;
  iopts.engine = ExecEngine::kNative;
  iopts.native_cache_dir = cache_dir;
  Machine machine(fuliou::build_sarb_program(), iopts);
  ASSERT_TRUE(machine.native_report().available)
      << machine.native_report().fallback_reason;
  EXPECT_TRUE(machine.native_report().cache_hit);
  const auto result = machine.call("entropy_interface");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
}

}  // namespace
}  // namespace glaf
