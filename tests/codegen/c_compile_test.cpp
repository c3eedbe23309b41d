// End-to-end validation of the C back-end: the generated translation
// units are COMPILED with the system C compiler (with -fopenmp, so the
// emitted pragmas must be syntactically valid OpenMP) and EXECUTED, and
// their outputs compared with the interpreter's results for the same
// programs. This is the strongest possible check that generated code is
// real code, not plausible-looking text.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "codegen/c.hpp"
#include "core/builder.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "interp/machine.hpp"
#include "testing/programs.hpp"

namespace glaf {
namespace {

bool have_cc() { return std::system("cc --version > /dev/null 2>&1") == 0; }

/// Compile `source` + run the binary; return its stdout (or nullopt).
std::optional<std::string> compile_and_run(const std::string& source,
                                           const std::string& tag) {
  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/glaf_gen_" + tag + ".c";
  const std::string bin_path = dir + "/glaf_gen_" + tag;
  {
    std::ofstream out(c_path);
    out << source;
  }
  const std::string compile =
      "cc -O1 -fopenmp -o " + bin_path + " " + c_path +
      " -lm > /dev/null 2>&1";
  if (std::system(compile.c_str()) != 0) return std::nullopt;
  FILE* pipe = ::popen((bin_path + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::string output;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int rc = ::pclose(pipe);
  if (rc != 0) return std::nullopt;
  return output;
}

std::vector<double> parse_numbers(const std::string& text) {
  std::vector<double> out;
  std::istringstream in(text);
  double v = 0.0;
  while (in >> v) out.push_back(v);
  return out;
}

TEST(CCompile, SaxpyMatchesInterpreter) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  const Program p = testing::saxpy_program();
  const ProgramAnalysis analysis = analyze_program(p);
  CodegenOptions opts;
  opts.language = Language::kC;
  std::string source = generate_c(p, analysis, opts).source;
  // Harness main: set inputs, run, print results (globals are static in
  // the generated TU, so the driver lives in the same file).
  source +=
      "\n#include <stdio.h>\n"
      "int main(void) {\n"
      "  a = 2.0;\n"
      "  for (int i = 0; i < 8; ++i) { x[i] = i + 1; y[i] = 1.0; }\n"
      "  saxpy();\n"
      "  for (int i = 0; i < 8; ++i) printf(\"%.17g\\n\", y[i]);\n"
      "  return 0;\n"
      "}\n";
  const auto output = compile_and_run(source, "saxpy");
  ASSERT_TRUE(output.has_value()) << "compilation or execution failed";
  const std::vector<double> got = parse_numbers(*output);
  ASSERT_EQ(got.size(), 8u);

  Machine m(p);
  ASSERT_TRUE(m.set_scalar("a", 2.0).is_ok());
  std::vector<double> x(8);
  std::vector<double> y(8, 1.0);
  for (int i = 0; i < 8; ++i) x[i] = i + 1;
  ASSERT_TRUE(m.set_array("x", x).is_ok());
  ASSERT_TRUE(m.set_array("y", y).is_ok());
  ASSERT_TRUE(m.call("saxpy").is_ok());
  const std::vector<double> expect = m.array("y").value();
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(got[i], expect[i]) << i;
}

TEST(CCompile, ReductionMatchesInterpreter) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  const Program p = testing::reduce_program();
  std::string source = generate_c(p, analyze_program(p)).source;
  source +=
      "\n#include <stdio.h>\n"
      "int main(void) {\n"
      "  for (int i = 0; i < 16; ++i) x[i] = 1.0 / (1.0 + i);\n"
      "  reduce_sum();\n"
      "  printf(\"%.17g\\n\", total);\n"
      "  return 0;\n"
      "}\n";
  const auto output = compile_and_run(source, "reduce");
  ASSERT_TRUE(output.has_value());
  const std::vector<double> got = parse_numbers(*output);
  ASSERT_EQ(got.size(), 1u);

  Machine m(p);
  std::vector<double> x(16);
  for (int i = 0; i < 16; ++i) x[i] = 1.0 / (1.0 + i);
  ASSERT_TRUE(m.set_array("x", x).is_ok());
  ASSERT_TRUE(m.call("reduce_sum").is_ok());
  EXPECT_NEAR(got[0], m.scalar("total").value(), 1e-12);
}

TEST(CCompile, ControlFlowAndIntrinsics) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  // Conditionals, MIN/MAX/ABS/ALOG and a function with a return value.
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{10}}});
  auto v = pb.global("v", DataType::kDouble, {E(n)});
  auto out = pb.global("res", DataType::kDouble, {E(n)});
  auto fb = pb.function("transform");
  auto s = fb.step("s");
  s.foreach_("i", 0, E(n) - 1);
  s.if_(
      v(idx("i")) > 0.5,
      [&](BodyBuilder& b) {
        b.assign(out(idx("i")),
                 call("ALOG", {1.0 + call("ABS", {v(idx("i"))})}));
      },
      [&](BodyBuilder& b) {
        b.assign(out(idx("i")),
                 call("MAX", {v(idx("i")) * 2.0, lit(-1.0)}));
      });
  const Program p = pb.build().value();
  std::string source = generate_c(p, analyze_program(p)).source;
  source +=
      "\n#include <stdio.h>\n"
      "int main(void) {\n"
      "  for (int i = 0; i < 10; ++i) v[i] = (i - 5) * 0.3;\n"
      "  transform();\n"
      "  for (int i = 0; i < 10; ++i) printf(\"%.17g\\n\", res[i]);\n"
      "  return 0;\n"
      "}\n";
  const auto output = compile_and_run(source, "ctrl");
  ASSERT_TRUE(output.has_value());
  const std::vector<double> got = parse_numbers(*output);
  ASSERT_EQ(got.size(), 10u);

  Machine m(p);
  std::vector<double> vin(10);
  for (int i = 0; i < 10; ++i) vin[i] = (i - 5) * 0.3;
  ASSERT_TRUE(m.set_array("v", vin).is_ok());
  ASSERT_TRUE(m.call("transform").is_ok());
  const std::vector<double> expect = m.array("res").value();
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(got[i], expect[i]) << i;
}

TEST(CCompile, CommonBlockDefinitionLinks) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  // A COMMON-block grid: the generated TU declares the interop struct
  // extern; the legacy side (our driver) defines it.
  ProgramBuilder pb("m");
  auto scale = pb.global("scale", DataType::kDouble, {},
                         {.common_block = "cfg"});
  auto out = pb.global("res", DataType::kDouble, {4});
  auto fb = pb.function("apply");
  auto s = fb.step("s");
  s.foreach_("i", 0, 3);
  s.assign(out(idx("i")), E(scale) * idx("i"));
  const Program p = pb.build().value();
  std::string source = generate_c(p, analyze_program(p)).source;
  source +=
      "\n#include <stdio.h>\n"
      "struct cfg_common cfg_;  /* the legacy code's COMMON storage */\n"
      "int main(void) {\n"
      "  cfg_.scale = 2.5;\n"
      "  apply();\n"
      "  for (int i = 0; i < 4; ++i) printf(\"%.17g\\n\", res[i]);\n"
      "  return 0;\n"
      "}\n";
  const auto output = compile_and_run(source, "common");
  ASSERT_TRUE(output.has_value());
  const std::vector<double> got = parse_numbers(*output);
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(got[i], 2.5 * i) << i;
}

TEST(CCompile, SubroutineCallsAndLocals) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  // Nested subprogram calls with whole-grid arguments and a local with
  // symbolic extent (malloc/free path).
  ProgramBuilder pb("m");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{6}}});
  auto data = pb.global("data", DataType::kDouble, {E(n)});
  auto fill = pb.function("fill");
  {
    auto v = fill.param("v", DataType::kDouble, {E(n)});
    auto count = fill.param("count", DataType::kInt);
    auto tmp = fill.local("tmp", DataType::kDouble, {E(count)});
    auto s = fill.step("s");
    s.foreach_("i", 0, E(count) - 1);
    s.assign(tmp(idx("i")), idx("i") * 3.0);
    s.assign(v(idx("i")), tmp(idx("i")) + 1.0);
  }
  auto driver = pb.function("driver");
  driver.step("s").call_sub("fill", {E(data), E(n)});
  const Program p = pb.build().value();
  std::string source = generate_c(p, analyze_program(p)).source;
  source +=
      "\n#include <stdio.h>\n"
      "int main(void) {\n"
      "  driver();\n"
      "  for (int i = 0; i < 6; ++i) printf(\"%.17g\\n\", data[i]);\n"
      "  return 0;\n"
      "}\n";
  const auto output = compile_and_run(source, "subr");
  ASSERT_TRUE(output.has_value());
  const std::vector<double> got = parse_numbers(*output);
  ASSERT_EQ(got.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(got[i], i * 3.0 + 1.0) << i;
}

TEST(CCompile, SarbTranslationUnitCompilesWithOpenMp) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  // Every §3 integration feature at once, TYPE element included: the TU
  // must compile as the paper ships it, with its OpenMP pragmas on.
  const Program p = fuliou::build_sarb_program();
  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/glaf_sarb.c";
  const std::string obj_path = dir + "/glaf_sarb.o";
  {
    std::ofstream out(c_path);
    out << generate_c(p, analyze_program(p)).source;
  }
  EXPECT_EQ(std::system(("cc -fopenmp -c -o " + obj_path + " " + c_path +
                         " > /dev/null 2>&1")
                            .c_str()),
            0);
}

}  // namespace
}  // namespace glaf
