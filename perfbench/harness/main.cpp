// glaf_perfbench — the GLAF++ benchmark program (normally started through
// perfbench/run.py, which builds it first).
//
//   glaf_perfbench --workload paper|large --seed N --seconds S
//                  --trace 0|1 [--smoke] [--work-dir DIR] [--report FILE]
//                  [--trace-out FILE]
//
// Runs one workload for about S seconds of measurement, split between
// its three phases (compile, kernels, serve; see kPhases), and prints, as
// its last stdout line, one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. --report writes a side report with
// provenance (nproc, compiler identity, host key), the fixed workload
// constants, every metric and the first failures; --trace-out writes the
// traced run's spans as Chrome trace-event JSON. Exits 1 when any
// operation failed (mismatch, native fallback, typed error, shed
// request), 2 on bad usage.

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/subprocess.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace glaf;
using namespace perfbench;

namespace {

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// The phases of every run, in order, with their share of the run's
/// measurement seconds. The kernels phase gets the most: its figures
/// spread the most from run to run. One repetition of the compile phase's
/// items takes a few seconds.
struct Phase {
  const char* name;
  double share;
  Result (*run)(const RunContext&);
};
constexpr Phase kPhases[] = {
    {"compile", 0.3, run_compile},
    {"kernels", 0.45, run_kernels},
    {"serve", 0.25, run_serve},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_metrics(JsonWriter& w, const std::map<std::string, Metric>& m) {
  w.begin_object();
  for (const auto& [name, metric] : m) {
    w.key(name);
    w.begin_object();
    w.key("value");
    w.value(metric.value);
    w.key("unit");
    w.value(metric.unit);
    w.end_object();
  }
  w.end_object();
}

bool write_report(const std::string& path, const RunContext& ctx,
                  const Result& res) {
  const std::string cc = default_cc();
  JsonWriter w;
  w.begin_object();
  w.key("workload");
  w.value(ctx.workload.name);
  w.key("seed");
  w.value(ctx.seed);
  w.key("seconds");
  w.value(ctx.seconds);
  w.key("trace");
  w.value(ctx.trace);
  w.key("smoke");
  w.value(ctx.smoke);
  w.key("nproc");
  w.value(ctx.nproc);
  w.key("threads");
  w.value(ctx.threads);
  w.key("compiler");
  w.value(cc);
  w.key("compiler_version");
  w.value(compiler_identity(cc));
  w.key("host_key");
  w.value(host_arch_fingerprint());
  w.key("config");
  w.begin_object();
  w.key("sarb_levels");
  w.value(kSarbLevels);
  w.key("kernel_sarb_levels");
  w.value(ctx.workload.sarb_levels);
  w.key("fun3d_cells");
  w.value(static_cast<std::int64_t>(ctx.workload.fun3d_cells));
  w.key("serve_mix");
  w.value(ctx.workload.heavy_mix ? "heavy" : "cheap");
  w.key("open_loop_rate");
  w.value(kOpenLoopRate);
  w.key("latency_limit_ms");
  w.value(kLatencyLimitMs);
  w.key("batch_size");
  w.value(static_cast<std::int64_t>(kBatchSize));
  w.key("setup_repeats");
  w.value(ctx.setup_repeats());
  w.end_object();
  w.key("attempted");
  w.value(res.attempted);
  w.key("failed");
  w.value(res.failed);
  w.key("failures");
  w.begin_array();
  for (const std::string& f : res.failures) w.value(f);
  w.end_array();
  w.key("end_to_end");
  write_metrics(w, res.end_to_end);
  w.key("per_layer");
  write_metrics(w, res.per_layer);
  w.key("notes");
  w.begin_object();
  for (const auto& [name, v] : res.notes) {
    w.key(name);
    w.value(v);
  }
  w.end_object();
  w.end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", w.str().c_str());
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  RunContext ctx;
  const Workload* workload = find_workload(args.get("workload", ""));
  ctx.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  ctx.seconds = args.get_double("seconds", 0.0);
  ctx.trace = args.get_int("trace", 0) != 0;
  ctx.smoke = args.get_bool("smoke", false);
  ctx.nproc = host_nproc();
  ctx.threads = std::max(1, ctx.nproc / 2);
  const std::string work_dir = args.get("work-dir", ".");
  const std::string report_path = args.get("report", "");
  const std::string trace_path = args.get("trace-out", "");
  if (ctx.seconds <= 0.0 || workload == nullptr) {
    std::fprintf(stderr,
                 "usage: glaf_perfbench --workload paper|large"
                 " --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  ctx.workload = *workload;
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  // The serve socket path is relative to the work directory (Unix socket
  // paths are limited to ~108 bytes; checkouts can be deep).
  if (ec || ::chdir(work_dir.c_str()) != 0) {
    std::fprintf(stderr, "glaf_perfbench: cannot enter %s\n",
                 work_dir.c_str());
    return 2;
  }
  ctx.work_dir = std::filesystem::current_path().string();
  if (!cc_available(default_cc())) {
    std::fprintf(stderr, "glaf_perfbench: no C compiler (%s)\n",
                 default_cc().c_str());
    return 2;
  }

  std::fprintf(stderr, "glaf_perfbench: %s seed %llu, nproc %d, %s, %s\n",
               ctx.workload.name,
               static_cast<unsigned long long>(ctx.seed), ctx.nproc,
               compiler_identity(default_cc()).c_str(),
               host_arch_fingerprint().c_str());
  Result res;
  for (const Phase& phase : kPhases) {
    RunContext phase_ctx = ctx;
    phase_ctx.seconds = ctx.seconds * phase.share;
    res.merge(phase.name, phase.run(phase_ctx));
  }

  if (ctx.trace) {
    for (const auto& [layer, ms] : Tracer::get().self_ms_by_layer()) {
      res.layer(cat("trace.self_ms.", layer), ms, "ms");
    }
    res.notes["trace.spans"] = static_cast<double>(Tracer::get().recorded());
    res.notes["trace.dropped"] = static_cast<double>(Tracer::get().dropped());
    if (!trace_path.empty() &&
        !Tracer::get().write_chrome(trace_path, 200000)) {
      std::fprintf(stderr, "glaf_perfbench: cannot write %s\n",
                   trace_path.c_str());
    }
  }
  const std::map<std::string, Metric>& shown =
      ctx.trace ? res.per_layer : res.end_to_end;
  for (const auto& [name, m] : shown) {
    if (!std::isfinite(m.value)) res.check(false, "non-finite metric " + name);
  }
  if (!report_path.empty() && !write_report(report_path, ctx, res)) {
    std::fprintf(stderr, "glaf_perfbench: cannot write %s\n",
                 report_path.c_str());
  }
  for (const std::string& f : res.failures) {
    std::fprintf(stderr, "glaf_perfbench: FAILED %s\n", f.c_str());
  }

  std::string line = cat("{\"correct\": ", res.failed == 0 ? "true" : "false",
                         ", \"attempted\": ", res.attempted,
                         ", \"failed\": ", res.failed, ", \"metrics\": {");
  bool first = true;
  for (const auto& [name, m] : shown) {
    const double v = std::isfinite(m.value) ? m.value : 1e300;
    line += cat(first ? "" : ", ", "\"", name, "\": {\"value\": ", number(v),
                ", \"unit\": \"", m.unit, "\"}");
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return res.failed == 0 ? 0 : 1;
}
