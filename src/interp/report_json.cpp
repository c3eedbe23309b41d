#include "interp/report_json.hpp"

#include "support/json.hpp"

namespace glaf {

std::string native_report_json(const NativeReport& report) {
  JsonWriter w;
  w.begin_object();
  w.key("available");
  w.value(report.available);
  w.key("fallback_reason");
  w.value(report.fallback_reason);
  w.key("model");
  w.value(to_string(report.model));
  w.key("native_calls");
  w.value(report.native_calls);
  w.key("fallback_calls");
  w.value(report.fallback_calls);
  w.key("parallel_calls");
  w.value(report.parallel_calls);
  w.key("parallel_regions");
  w.value(report.parallel_regions);
  w.key("gated_serial_regions");
  w.value(report.gated_serial_regions);
  w.key("gate_probes");
  w.value(report.gate_probes);
  w.key("regions_total");
  w.value(report.regions_total);
  w.key("regions_fused");
  w.value(report.regions_fused);
  w.key("gate");
  w.value(report.gate_mode);
  w.key("num_threads");
  w.value(report.num_threads);
  w.key("cache_hit");
  w.value(report.cache_hit);
  w.key("object_path");
  w.value(report.object_path);
  w.key("compiler");
  w.value(report.compiler);
  w.key("compiler_version");
  w.value(report.compiler_version);
  w.key("compile_flags");
  w.value(report.compile_flags);
  w.key("host_key");
  w.value(report.host_key);
  w.end_object();
  return std::move(w).str();
}

std::string interp_stats_json(const InterpStats& stats) {
  JsonWriter w;
  w.begin_object();
  w.key("steps_executed");
  w.value(stats.steps_executed);
  w.key("loop_iterations");
  w.value(stats.loop_iterations);
  w.key("local_allocations");
  w.value(stats.local_allocations);
  w.key("parallel_regions");
  w.value(stats.parallel_regions);
  w.key("function_calls");
  w.value(stats.function_calls);
  w.end_object();
  return std::move(w).str();
}

}  // namespace glaf
