// Capstone integration check: the C generated for the COMPLETE five-
// sub-function FUN3D decomposition (EdgeJP -> cell_loop -> edge_loop /
// angle_check / ioff_search / face_weight) is compiled with the system
// compiler, linked against a driver providing the legacy mesh storage,
// executed, and compared against the native C++ mini-app — generated
// code end-to-end against an independent implementation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "codegen/c.hpp"
#include "fun3d/glaf_full.hpp"
#include "fun3d/recon.hpp"
#include "support/strings.hpp"
#include "support/ulp.hpp"

namespace glaf::fun3d {
namespace {

std::string array_literal(const char* type, const char* name,
                          const std::vector<double>& values, bool integral) {
  std::string out = cat(type, " ", name, "[", values.size(), "] = {");
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += integral ? std::to_string(static_cast<long long>(values[i]))
                    : format_double(values[i]);
  }
  out += "};\n";
  return out;
}

std::vector<double> widen32(const std::vector<std::int32_t>& v) {
  return {v.begin(), v.end()};
}

TEST(Fun3dFullCCompile, GeneratedDecompositionMatchesNativeMiniApp) {
  if (std::system("cc --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no system C compiler";
  }
  const Mesh mesh = make_mesh(64, 123);
  const ReconResult native = reconstruct_original(mesh);
  const Program p = build_fun3d_full_program(mesh);

  std::string source = generate_c(p, analyze_program(p)).source;
  std::string driver =
      "\n#include <stdio.h>\n"
      "/* the legacy FUN3D mesh storage (existing fun3d_grid module) */\n";
  driver += array_literal("long", "cell_nodes", widen32(mesh.cell_nodes),
                          true);
  driver += array_literal("double", "coords", mesh.coords, false);
  driver += array_literal("double", "q", mesh.q, false);
  driver += array_literal("long", "cell_edge_ptr",
                          widen32(mesh.cell_edge_ptr), true);
  driver += array_literal("long", "edge_a", widen32(mesh.edge_a), true);
  driver += array_literal("long", "edge_b", widen32(mesh.edge_b), true);
  driver += array_literal("long", "row_ptr", widen32(mesh.row_ptr), true);
  driver += array_literal("long", "col_idx", widen32(mesh.col_idx), true);
  driver += cat("int main(void) {\n  edgejp();\n  for (long i = 0; i < ",
                mesh.n_nodes * kNumEq,
                "; ++i) printf(\"%.17g\\n\", jac[i]);\n  return 0;\n}\n");
  source += driver;

  const std::string dir = ::testing::TempDir();
  const std::string c_path = dir + "/glaf_fun3d_full.c";
  const std::string bin = dir + "/glaf_fun3d_full";
  {
    std::ofstream f(c_path);
    f << source;
  }
  ASSERT_EQ(std::system(("cc -O1 -fopenmp -o " + bin + " " + c_path +
                         " -lm > /dev/null 2>&1")
                            .c_str()),
            0)
      << "generated decomposition failed to compile";
  // The generated C parallelises short loops with OpenMP reductions and
  // atomics, whose summation order follows the thread count. One thread
  // keeps the mini-app's operation order, so that leg is exact.
  const auto run = [&](int threads) {
    std::vector<double> jac;
    FILE* pipe =
        ::popen(cat("OMP_NUM_THREADS=", threads, " ", bin).c_str(), "r");
    if (pipe == nullptr) return jac;
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      jac.push_back(std::strtod(buf, nullptr));
    }
    ::pclose(pipe);
    return jac;
  };
  const std::vector<double> serial = run(1);
  ASSERT_EQ(serial.size(), native.jac.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    worst = std::max(worst, std::fabs(serial[i] - native.jac[i]));
  }
  // Identical operation order; printf round-trips via %.17g: exact.
  EXPECT_EQ(worst, 0.0);

  // At four threads the reassociated sums stay within an ulp budget:
  // 46 runs on a 4-vCPU host measured a worst of 6 to 18 ulp per run;
  // the budget leaves about 3.5x headroom over the largest.
  constexpr std::uint64_t kThreadedUlpBudget = 64;
  const std::vector<double> threaded = run(4);
  ASSERT_EQ(threaded.size(), native.jac.size());
  for (std::size_t i = 0; i < threaded.size(); ++i) {
    EXPECT_TRUE(ulp_close(threaded[i], native.jac[i], kThreadedUlpBudget))
        << "jac[" << i << "]: " << threaded[i] << " vs " << native.jac[i]
        << " (" << ulp_distance(threaded[i], native.jac[i]) << " ulp)";
  }
}

}  // namespace
}  // namespace glaf::fun3d
