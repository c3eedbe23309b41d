#include "fuliou/harness.hpp"

namespace glaf::fuliou {

namespace {

/// The profile's fields, by the name of the global that holds each.
std::vector<std::pair<std::string, std::vector<double>>> profile_fields(
    const AtmosphereProfile& profile) {
  return {{"pressure", profile.pressure},
          {"temperature", profile.temperature},
          {"humidity", profile.humidity},
          {"o3", profile.o3},
          {"cloud_frac", profile.cloud_frac},
          {"tau", profile.tau},
          {"tsfc", {profile.tsfc}},
          {"albedo", {profile.albedo}},
          {"cosz", {profile.cosz}}};
}

/// Every output array, by the name of the global that holds it.
std::vector<std::pair<std::string, std::vector<double>*>> output_fields(
    SarbOutputs& out) {
  return {{"planck", &out.planck},
          {"lw_flux", &out.lw_flux},
          {"lw_entropy", &out.lw_entropy},
          {"sw_flux", &out.sw_flux},
          {"sw_entropy", &out.sw_entropy},
          {"adjusted_flux", &out.adjusted_flux},
          {"baseline", &out.baseline},
          {"wc_flux", &out.wc_flux}};
}

}  // namespace

Status load_profile(Machine& machine, const AtmosphereProfile& profile) {
  for (const auto& [name, values] : profile_fields(profile)) {
    if (Status s = machine.set_array(name, values); !s) return s;
  }
  return Status::ok();
}

SarbOutputs extract_outputs(const Machine& machine) {
  SarbOutputs out;
  for (const auto& [name, dst] : output_fields(out)) {
    const auto v = machine.array(name);
    if (v.is_ok()) *dst = v.value();
  }
  const auto et = machine.scalar("entropy_total");
  out.entropy_total = et.is_ok() ? et.value() : 0.0;
  return out;
}

GlobalValues profile_values(const Program& program,
                            const AtmosphereProfile& profile) {
  GlobalValues values;
  for (auto& [name, data] : profile_fields(profile)) {
    if (const Grid* g = program.find_grid(name)) {
      values[g->id] = std::move(data);
    }
  }
  return values;
}

SarbOutputs outputs_from(const Program& program, const GlobalValues& values) {
  SarbOutputs out;
  const auto find = [&](const std::string& name) -> const std::vector<double>* {
    const Grid* g = program.find_grid(name);
    if (g == nullptr) return nullptr;
    const auto it = values.find(g->id);
    return it != values.end() ? &it->second : nullptr;
  };
  for (const auto& [name, dst] : output_fields(out)) {
    if (const auto* v = find(name)) *dst = *v;
  }
  if (const auto* v = find("entropy_total"); v != nullptr && !v->empty()) {
    out.entropy_total = (*v)[0];
  }
  return out;
}

StatusOr<SarbOutputs> run_glaf_sarb(Machine& machine,
                                    const AtmosphereProfile& profile) {
  if (Status s = load_profile(machine, profile); !s) return s;
  const auto r = machine.call("entropy_interface");
  if (!r.is_ok()) return r.status();
  return extract_outputs(machine);
}

int count_statements(const Step& step) {
  int count = 0;
  visit_stmts(step.body, [&](const Stmt&) { ++count; });
  return count;
}

std::vector<LoopInfo> sarb_loop_inventory(const Program& program,
                                          const ProgramAnalysis& analysis) {
  std::vector<LoopInfo> out;
  for (const Function& fn : program.functions) {
    const auto it = analysis.verdicts.find(fn.id);
    if (it == analysis.verdicts.end()) continue;
    for (std::size_t s = 0; s < fn.steps.size(); ++s) {
      LoopInfo info;
      info.function = fn.name;
      info.step = fn.steps[s].name;
      info.verdict = it->second.at(s);
      info.stmt_count = count_statements(fn.steps[s]);
      out.push_back(std::move(info));
    }
  }
  return out;
}

}  // namespace glaf::fuliou
