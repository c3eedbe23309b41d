// Opt-tier differentials: the NumericModel::kOpt kernel (typed native
// storage, restrict pointers, -O3 with contraction on, serial dispatch)
// run against the plan engine on the checked-in example kernels — SARB
// Table 1 and the FUN3D pair — with every global held to a per-kernel
// ulp budget. The interp tier's wall stays bitwise (native_test.cpp);
// this file is the tolerance fork of that wall, plus checks that the
// tier's provenance (model, flags, host key) is reported and that the
// two tiers cache independently.
//
// Every test that needs the system compiler GTEST_SKIPs without one.

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/profile.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "interp/machine.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"
#include "testing/cross_entry.hpp"

namespace glaf {
namespace {

bool have_cc() { return cc_available("cc"); }

InterpOptions plan_opts() {
  InterpOptions o;
  o.engine = ExecEngine::kPlan;
  return o;
}

InterpOptions opt_opts() {
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  o.native_model = NumericModel::kOpt;
  return o;
}

void require_native(const Machine& m) {
  ASSERT_TRUE(m.native_report().available)
      << "native engine unavailable: " << m.native_report().fallback_reason;
}

/// Per-kernel budgets for the SARB Table-1 subroutines. The wide-band
/// spectral integrations chain hundreds of multiply-adds per element, so
/// contraction drift accumulates; the simple per-level loops sit at a
/// handful of ulps. A kernel absent from the map gets the default.
constexpr std::uint64_t kDefaultBudget = testing::kDefaultUlpBudget;

std::uint64_t sarb_budget(const std::string& name) {
  static const std::map<std::string, std::uint64_t> budgets = {
      {"lw_spectral_integration", 512},
      {"sw_spectral_integration", 512},
      {"shortwave_entropy_model", 256},
  };
  const auto it = budgets.find(name);
  return it == budgets.end() ? kDefaultBudget : it->second;
}

TEST(OptTier, SarbTable1SubroutinesWithinUlpBudgets) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program sarb = fuliou::build_sarb_program();
  const fuliou::AtmosphereProfile profile = fuliou::make_profile(1);
  for (const std::string& name : fuliou::table1_subroutines()) {
    const Function* fn = sarb.find_function(name);
    if (fn == nullptr || !fn->params.empty()) continue;
    Machine pl(sarb, plan_opts());
    Machine opt(sarb, opt_opts());
    require_native(opt);
    EXPECT_EQ(opt.native_report().model, NumericModel::kOpt);
    for (Machine* m : {&pl, &opt}) {
      ASSERT_TRUE(fuliou::load_profile(*m, profile).is_ok());
      ASSERT_TRUE(m->call(name).is_ok()) << name;
    }
    EXPECT_GT(opt.native_report().native_calls, 0u) << name;
    testing::expect_globals_ulp(pl, opt, sarb_budget(name), name);
  }
}

TEST(OptTier, Fun3dKernelsWithinUlpBudgets) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program p = fun3d::build_fun3d_glaf_program();
  const auto load = [](Machine& m) {
    std::vector<double> ea(fun3d::kGlafEdges), eb(fun3d::kGlafEdges);
    std::vector<double> w(fun3d::kGlafEdges), q(fun3d::kGlafNodes);
    for (int e = 0; e < fun3d::kGlafEdges; ++e) {
      ea[static_cast<std::size_t>(e)] = e % fun3d::kGlafNodes;
      eb[static_cast<std::size_t>(e)] = (e * 7 + 3) % fun3d::kGlafNodes;
      w[static_cast<std::size_t>(e)] = 0.25 + 0.5 * (e % 3);
    }
    for (int k = 0; k < fun3d::kGlafNodes; ++k) {
      q[static_cast<std::size_t>(k)] = 1.0 + 0.01 * k;
    }
    ASSERT_TRUE(m.set_array("edge_a", ea).is_ok());
    ASSERT_TRUE(m.set_array("edge_b", eb).is_ok());
    ASSERT_TRUE(m.set_array("w", w).is_ok());
    ASSERT_TRUE(m.set_array("q", q).is_ok());
  };
  // The edge scatter accumulates per node; smoothing averages over
  // neighbors — both short chains, so the default budget holds.
  for (const std::string& name :
       {std::string("edge_scatter"), std::string("smooth_q")}) {
    Machine pl(p, plan_opts());
    Machine opt(p, opt_opts());
    require_native(opt);
    for (Machine* m : {&pl, &opt}) {
      load(*m);
      ASSERT_TRUE(m->call(name).is_ok()) << name;
    }
    EXPECT_GT(opt.native_report().native_calls, 0u) << name;
    testing::expect_globals_ulp(pl, opt, kDefaultBudget, name);
  }
}

TEST(OptTier, ReportsCompileProvenance) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program sarb = fuliou::build_sarb_program();
  Machine opt(sarb, opt_opts());
  require_native(opt);
  const NativeReport& nr = opt.native_report();
  EXPECT_EQ(nr.model, NumericModel::kOpt);
  EXPECT_FALSE(nr.compiler.empty());
  EXPECT_FALSE(nr.compiler_version.empty());
  EXPECT_NE(nr.compile_flags.find("-O3"), std::string::npos)
      << nr.compile_flags;
  EXPECT_NE(nr.compile_flags.find("-ffp-contract=fast"), std::string::npos)
      << nr.compile_flags;
  // Non-portable opt kernels are keyed to this host's fingerprint.
  if (nr.compile_flags.find("-march=native") != std::string::npos) {
    EXPECT_EQ(nr.host_key, host_arch_fingerprint());
  } else {
    EXPECT_TRUE(nr.host_key.empty()) << nr.host_key;
  }
}

TEST(OptTier, PortableModeDropsMarchNative) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program sarb = fuliou::build_sarb_program();
  InterpOptions o = opt_opts();
  o.native_portable = true;
  Machine opt(sarb, o);
  require_native(opt);
  const NativeReport& nr = opt.native_report();
  EXPECT_EQ(nr.compile_flags.find("-march=native"), std::string::npos)
      << nr.compile_flags;
  EXPECT_TRUE(nr.host_key.empty()) << nr.host_key;
}

TEST(OptTier, InterpTierProvenanceIsUnchanged) {
  if (!have_cc()) GTEST_SKIP() << "no system compiler";
  const Program sarb = fuliou::build_sarb_program();
  InterpOptions o;
  o.engine = ExecEngine::kNative;
  Machine nat(sarb, o);
  require_native(nat);
  const NativeReport& nr = nat.native_report();
  EXPECT_EQ(nr.model, NumericModel::kInterp);
  EXPECT_NE(nr.compile_flags.find("-ffp-contract=off"), std::string::npos)
      << nr.compile_flags;
  EXPECT_TRUE(nr.host_key.empty()) << nr.host_key;
}

}  // namespace
}  // namespace glaf
