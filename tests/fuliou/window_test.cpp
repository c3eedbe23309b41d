// Window-channel extension kernel (paper 2.2 names longwave, shortwave
// AND window channel flux profiles as SARB's outputs; the Table 1 kernels
// cover the first two, this extension adds the third).

#include <gtest/gtest.h>

#include "codegen/c_run.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fuliou/harness.hpp"
#include "fuliou/reference.hpp"

namespace glaf::fuliou {
namespace {

TEST(WindowChannel, GlafMatchesReferenceExactly) {
  const Program p = build_sarb_program();
  for (const std::uint64_t seed : {2ull, 21ull}) {
    const AtmosphereProfile profile = make_profile(seed);
    Workspace ws;
    entropy_interface(profile, ws);
    window_channel_model(profile, ws);

    Machine m(p);
    ASSERT_TRUE(load_profile(m, profile).is_ok());
    ASSERT_TRUE(m.call("entropy_interface").is_ok());
    ASSERT_TRUE(m.call("window_channel_model").is_ok());
    EXPECT_EQ(m.array("wc_flux").value(), ws.out.wc_flux) << "seed " << seed;
  }
}

TEST(WindowChannel, CloudMaskingReducesFlux) {
  // Property: a fully cloudy column has strictly less window flux than a
  // clear one with otherwise identical state.
  AtmosphereProfile clear = make_profile(4);
  AtmosphereProfile cloudy = clear;
  for (int k = 0; k < kNumLevels; ++k) {
    clear.cloud_frac[k] = 0.0;
    cloudy.cloud_frac[k] = 1.0;
  }
  Workspace ws_clear;
  entropy_interface(clear, ws_clear);
  window_channel_model(clear, ws_clear);
  Workspace ws_cloudy;
  entropy_interface(cloudy, ws_cloudy);
  window_channel_model(cloudy, ws_cloudy);
  for (int k = 0; k < kNumLevels; ++k) {
    EXPECT_LT(ws_cloudy.out.wc_flux[k], ws_clear.out.wc_flux[k]) << k;
    EXPECT_GT(ws_clear.out.wc_flux[k], 0.0) << k;
  }
}

TEST(WindowChannel, OpenMpCWithinTolerance) {
  if (!openmp_available("cc")) GTEST_SKIP() << "cc -fopenmp does not link";
  const Program p = build_sarb_program();
  const AtmosphereProfile profile = make_profile(33);
  Workspace ws;
  entropy_interface(profile, ws);
  window_channel_model(profile, ws);

  // The generated OpenMP C runs the window channel at four threads from
  // the state entropy_interface leaves (computed by the interpreter).
  Machine m(p);
  ASSERT_TRUE(load_profile(m, profile).is_ok());
  ASSERT_TRUE(m.call("entropy_interface").is_ok());
  GlobalValues state;
  for (const GridId id : p.global_grids) {
    state[id] = m.array(p.grid(id).name).value();
  }
  const StatusOr<GlobalValues> out = run_generated_c(
      p, analyze_program(p), CodegenOptions{}, "window_channel_model", state,
      4);
  ASSERT_TRUE(out.is_ok()) << out.status().message();
  const std::vector<double>& got = out.value().at(p.find_grid("wc_flux")->id);
  for (int k = 0; k < kNumLevels; ++k) {
    EXPECT_NEAR(got[k], ws.out.wc_flux[k], 1e-7) << k;
  }
}

}  // namespace
}  // namespace glaf::fuliou
