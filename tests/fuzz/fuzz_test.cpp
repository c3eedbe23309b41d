// End-to-end differential-oracle properties (the slower, `fuzz`-labeled
// suite): a bounded deterministic seed sweep must agree across every
// backend, and an injected semantics bug in the C output must be caught
// and shrunk to a small witness.

#include <gtest/gtest.h>

#include "core/rewrite.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"

namespace glaf::fuzz {
namespace {

TEST(FuzzOracle, BoundedSeedSweepAgrees) {
  OracleOptions opts;
  opts.run_compiled_c = cc_available(opts.cc);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    auto generated = generate_program(seed);
    ASSERT_TRUE(generated.is_ok()) << "seed " << seed;
    const OracleReport report =
        run_oracle(generated.value().program, generated.value().entry, opts);
    EXPECT_TRUE(report.agreed()) << "seed " << seed << ": "
        << (report.errors.empty()
                ? (report.divergences.empty()
                       ? "?"
                       : report.divergences[0].backend + " diverged on " +
                             report.divergences[0].grid)
                : report.errors[0]);
  }
}

TEST(FuzzOracle, OptTierLegAgreesUnderUlpBudget) {
  if (!cc_available("cc")) GTEST_SKIP() << "no C compiler available";

  // The opt-tier leg (typed storage, -O3, contraction on) under its ulp
  // comparator, alongside the bitwise serial-native leg: the comparator
  // fork must hold both contracts in one oracle run.
  OracleOptions opts;
  opts.run_plan = false;
  opts.run_compiled_c = false;
  opts.run_native = true;
  opts.run_native_opt = true;
  opts.opt_max_ulp = 64;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto generated = generate_program(seed);
    ASSERT_TRUE(generated.is_ok()) << "seed " << seed;
    const OracleReport report =
        run_oracle(generated.value().program, generated.value().entry, opts);
    EXPECT_TRUE(report.opt_backend_ran) << "seed " << seed;
    EXPECT_TRUE(report.agreed()) << "seed " << seed << ": "
        << (report.errors.empty()
                ? (report.divergences.empty()
                       ? "?"
                       : report.divergences[0].backend + " diverged on " +
                             report.divergences[0].grid)
                : report.errors[0]);
  }
}

TEST(FuzzOracle, InjectedCBugIsCaughtAndShrunk) {
  if (!cc_available("cc")) GTEST_SKIP() << "no C compiler available";

  // Flip one operation in the emitted C: every sin() becomes cos().
  // Interpreter backends are untouched, so any program whose observable
  // output passes through SIN must diverge.
  OracleOptions opts;
  opts.run_native = false;  // the bug is injected into the C leg only;
                            // skip one kernel build per shrink candidate
  opts.c_source_transform = [](const std::string& src) {
    std::string out = src;
    std::size_t pos = 0;
    while ((pos = out.find("sin(", pos)) != std::string::npos) {
      out.replace(pos, 4, "cos(");
      pos += 4;
    }
    return out;
  };

  Program failing;
  std::string entry;
  bool found = false;
  for (std::uint64_t seed = 0; seed < 40 && !found; ++seed) {
    auto generated = generate_program(seed);
    ASSERT_TRUE(generated.is_ok()) << "seed " << seed;
    const OracleReport report =
        run_oracle(generated.value().program, generated.value().entry, opts);
    ASSERT_TRUE(report.errors.empty())
        << "seed " << seed << ": " << report.errors[0];
    if (!report.divergences.empty()) {
      failing = generated.value().program;
      entry = generated.value().entry;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in 0:40 exposed the injected sin->cos bug";

  ShrinkOptions sopts;
  sopts.protected_function = entry;
  sopts.max_candidates = 500;
  ShrinkStats stats;
  const Program shrunk = shrink_program(
      failing,
      [&](const Program& candidate) {
        return !run_oracle(candidate, entry, opts).divergences.empty();
      },
      sopts, &stats);

  EXPECT_FALSE(run_oracle(shrunk, entry, opts).divergences.empty());
  EXPECT_LE(count_statements(shrunk), 10);
  EXPECT_GT(stats.candidates_accepted, 0);
}

}  // namespace
}  // namespace glaf::fuzz
