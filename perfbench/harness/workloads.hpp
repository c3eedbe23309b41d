#pragma once
// The three phases every workload runs. Each takes the run context (with
// the phase's share of the run's seconds) and fills a Result; set-up
// (timed several times for setup_s) happens inside.

#include "common.hpp"

namespace perfbench {

Result run_compile(const RunContext& ctx);
Result run_kernels(const RunContext& ctx);
Result run_serve(const RunContext& ctx);

}  // namespace perfbench
