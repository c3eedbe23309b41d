#pragma once
// Cross-entry boundary wall shared by the serial and parallel native
// suites. A native entry wrapper copies in only the globals its function
// touches and copies out only the ones it writes, so the kernel's private
// storage keeps stale values for every other slot. These helpers drive a
// kernel Machine through a sequence of entry points next to a plan-VM
// reference; before each call they overwrite every floating global on the
// host, and after every call they compare every global bitwise. Stale
// kernel storage must never reach the host.

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "fuliou/glaf_kernels.hpp"
#include "fun3d/glaf_fun3d.hpp"
#include "interp/machine.hpp"
#include "support/strings.hpp"

namespace glaf::testing {

/// Every non-struct global of `reference` and `other`, compared as bits.
inline void expect_globals_bitwise(const Machine& reference,
                                   const Machine& other,
                                   const std::string& tag) {
  for (const GridId id : reference.program().global_grids) {
    const Grid& g = reference.program().grid(id);
    if (g.is_struct()) continue;
    const std::vector<double> a = reference.array(g.name).value();
    const std::vector<double> b = other.array(g.name).value();
    ASSERT_EQ(a.size(), b.size()) << tag << ": " << g.name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                std::bit_cast<std::uint64_t>(b[i]))
          << tag << ": " << g.name << "[" << i << "] reference " << a[i]
          << " vs " << b[i];
    }
  }
}

/// Overwrite, identically on both machines, every floating global. The
/// choice does not consult the analysis, so a read the effect summaries
/// miss leaves a stale kernel copy that differs from the host's value. The
/// new values are positive (no NaN from LOG/SQRT downstream) and differ
/// from the old ones. Integer globals are left alone: they hold sizes and
/// indices. Returns the grids rewritten.
inline int overwrite_floating_globals(Machine& reference, Machine& native,
                                      int round) {
  const Program& p = reference.program();
  int rewritten = 0;
  for (const GridId id : p.global_grids) {
    const Grid& g = p.grid(id);
    if (g.is_struct() ||
        (g.elem_type != DataType::kDouble && g.elem_type != DataType::kReal)) {
      continue;
    }
    std::vector<double> data = reference.array(g.name).value();
    for (double& v : data) v = std::fabs(v) * 0.75 + 0.0625 * (round % 7 + 1);
    EXPECT_TRUE(reference.set_array(g.name, data).is_ok()) << g.name;
    EXPECT_TRUE(native.set_array(g.name, data).is_ok()) << g.name;
    ++rewritten;
  }
  return rewritten;
}

/// Run `sequence` on one kernel Machine built with `native_options` and on
/// a plan-VM reference, overwriting every floating global before each call
/// and comparing results and every global bitwise after each call.
inline void run_cross_entry_wall(const Program& p,
                                 const InterpOptions& native_options,
                                 const std::function<void(Machine&)>& load,
                                 const std::vector<std::string>& sequence,
                                 const std::string& tag) {
  InterpOptions plan;
  plan.engine = ExecEngine::kPlan;
  Machine reference(p, plan);
  Machine native(p, native_options);
  ASSERT_TRUE(native.native_report().available)
      << tag << ": " << native.native_report().fallback_reason;
  load(reference);
  load(native);
  int rewritten = 0;
  for (std::size_t k = 0; k < sequence.size(); ++k) {
    const std::string& fn = sequence[k];
    const std::string step = cat(tag, " call ", k, " (", fn, ")");
    rewritten +=
        overwrite_floating_globals(reference, native, static_cast<int>(k));
    const StatusOr<double> want = reference.call(fn);
    const StatusOr<double> got = native.call(fn);
    ASSERT_TRUE(want.is_ok()) << step;
    ASSERT_TRUE(got.is_ok()) << step;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want.value()),
              std::bit_cast<std::uint64_t>(got.value()))
        << step << ": return value";
    expect_globals_bitwise(reference, native, step);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(native.native_report().native_calls, sequence.size()) << tag;
  EXPECT_GT(rewritten, 0) << tag << ": no floating global to rewrite";
}

/// Globals an entry reads only through grid extents. `n` sizes the local
/// `tmp` of local_min, whose MINVAL runs over the whole local; `m` is the
/// second extent of fill2's rank-2 parameter, so it sets the row stride of
/// every store through it. Neither entry reads `n` or `m` anywhere else.
/// set_n is never called: it only keeps `n` and `m` from folding to their
/// initial values, so the generated code reads them at run time.
inline Program extent_reads_program() {
  ProgramBuilder pb("extent_reads");
  auto n = pb.global("n", DataType::kInt, {}, {.init = {std::int64_t{3}}});
  auto m = pb.global("m", DataType::kInt, {}, {.init = {std::int64_t{2}}});
  auto out = pb.global("out", DataType::kDouble, {E(4)});
  auto buf = pb.global("buf", DataType::kDouble, {E(2), E(8)});
  {
    auto fb = pb.function("set_n");
    auto st = fb.step("st");
    st.assign(n, liti(3));
    st.assign(m, liti(2));
  }
  {
    auto fb = pb.function("local_min");
    auto tmp = fb.local("tmp", DataType::kDouble, {E(n)});
    auto fill = fb.step("fill");
    fill.foreach_("k", 0, 2);
    fill.assign(tmp(idx("k")), idx("k") + 1.5);
    auto reduce = fb.step("reduce");
    reduce.assign(out(liti(0)), call("MINVAL", {E(tmp)}));
  }
  {
    auto fb = pb.function("fill2");
    auto a = fb.param("a", DataType::kDouble, {E(2), E(m)});
    auto st = fb.step("st");
    st.foreach_("i", 0, 1);
    st.foreach_("k", 0, 3);
    st.assign(a(idx("i"), idx("k")), idx("i") * 10.0 + idx("k"));
  }
  {
    auto fb = pb.function("scatter2");
    auto st = fb.step("st");
    st.call_sub("fill2", {E(buf)});
  }
  return pb.build().value();
}

/// Set `n` and `m` on the host past their initial values (a kernel that
/// kept its initial copies would reduce over 3 elements of `tmp` and store
/// with row stride 2), then run both extent_reads_program entries and
/// compare every global bitwise with the plan VM.
inline void run_extent_reads_check(const InterpOptions& native_options,
                                   const std::string& tag) {
  const Program p = extent_reads_program();
  InterpOptions plan;
  plan.engine = ExecEngine::kPlan;
  Machine reference(p, plan);
  Machine native(p, native_options);
  ASSERT_TRUE(native.native_report().available)
      << tag << ": " << native.native_report().fallback_reason;
  for (const std::int64_t size : {8, 5}) {
    for (Machine* mach : {&reference, &native}) {
      ASSERT_TRUE(mach->set_scalar("n", static_cast<double>(size)).is_ok());
      ASSERT_TRUE(mach->set_scalar("m", 8.0).is_ok());
      ASSERT_TRUE(mach->call("local_min").is_ok()) << tag;
      ASSERT_TRUE(mach->call("scatter2").is_ok()) << tag;
    }
    expect_globals_bitwise(reference, native, cat(tag, " n=", size));
  }
  // local_min's MINVAL saw the zeroed tail of `tmp`; row 1 of `buf` starts
  // at element 8.
  EXPECT_EQ(native.array("out").value()[0], 0.0) << tag;
  EXPECT_EQ(native.array("buf").value()[8], 10.0) << tag;
  EXPECT_EQ(native.native_report().native_calls, 4u) << tag;
}

/// The FUN3D mini-app's edge lists, weights and node state (the inputs
/// edge_scatter and smooth_q read).
inline void load_fun3d_glaf(Machine& m) {
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
}

/// The SARB Table-1 subroutines that take no arguments, forward and then
/// in reverse.
inline std::vector<std::string> sarb_wall_sequence(const Program& sarb) {
  std::vector<std::string> names;
  for (const std::string& name : fuliou::table1_subroutines()) {
    const Function* fn = sarb.find_function(name);
    if (fn != nullptr && fn->params.empty()) names.push_back(name);
  }
  std::vector<std::string> sequence = names;
  sequence.insert(sequence.end(), names.rbegin(), names.rend());
  return sequence;
}

/// The FUN3D edge_scatter / smooth_q pair, in both orders.
inline const std::vector<std::string> kFun3dWallSequence = {
    "edge_scatter", "smooth_q", "smooth_q", "edge_scatter"};

}  // namespace glaf::testing
