// Regression corpus replay: every tests/fuzz/corpus/*.glaf file is a
// previously-diverging (now fixed) or structurally interesting case.
// Each file is registered as its own parameterized test case, must
// load, validate, and agree across all available backends — including,
// under every directive policy, the parallel native JIT legs held to
// bitwise equality and the OpenMP C builds.

#include <gtest/gtest.h>

#include <cctype>

#include "core/validate.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/repro.hpp"

namespace glaf::fuzz {
namespace {

std::vector<std::string> corpus_paths() {
  return list_corpus(GLAF_SOURCE_DIR "/tests/fuzz/corpus");
}

std::string corpus_case_name(
    const testing::TestParamInfo<std::string>& info) {
  std::string stem = info.param;
  const std::size_t slash = stem.find_last_of('/');
  if (slash != std::string::npos) stem = stem.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos) stem = stem.substr(0, dot);
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

TEST(FuzzCorpus, CorpusIsNotEmpty) {
  EXPECT_GE(corpus_paths().size(), 6u);
}

class CorpusReplay : public testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, LoadsAndValidates) {
  auto loaded = load_repro(GetParam());
  ASSERT_TRUE(loaded.is_ok())
      << GetParam() << ": " << loaded.status().message();
  EXPECT_TRUE(find_entry(loaded.value()).is_ok()) << GetParam();
}

TEST_P(CorpusReplay, AgreesAcrossBackends) {
  OracleOptions opts;
  opts.run_compiled_c = cc_available(opts.cc);
  // Replay each repro through the parallel legs too: every directive
  // policy, the fused kernels that ship held bitwise to serial native,
  // and the OpenMP C build run at four threads.
  opts.run_native_parallel = opts.run_compiled_c;
  const bool openmp = opts.run_compiled_c && openmp_available(opts.cc);
  auto loaded = load_repro(GetParam());
  ASSERT_TRUE(loaded.is_ok()) << GetParam();
  auto entry = find_entry(loaded.value());
  ASSERT_TRUE(entry.is_ok()) << GetParam();
  const OracleReport report =
      run_oracle(loaded.value(), entry.value(), opts);
  EXPECT_TRUE(report.agreed()) << GetParam() << ": "
      << (report.errors.empty()
              ? (report.divergences.empty()
                     ? "?"
                     : report.divergences[0].backend + " diverged on " +
                           report.divergences[0].grid)
              : report.errors[0]);
  // The serial plan leg; with a system compiler (the other legs gate on
  // the same cc probe) add the native-JIT and compiled-C backends and the
  // 4 parallel-native legs: 7; with OpenMP, 4 parallel-C legs: 11.
  EXPECT_EQ(report.backends_compared,
            1 + (opts.run_compiled_c ? 6 : 0) + (openmp ? 4 : 0));
  EXPECT_EQ(report.native_backend_ran, opts.run_compiled_c) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusReplay,
                         testing::ValuesIn(corpus_paths()),
                         corpus_case_name);

}  // namespace
}  // namespace glaf::fuzz
