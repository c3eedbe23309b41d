#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "fun3d/glaf_fun3d.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/ulp.hpp"

namespace perfbench {

using namespace glaf;

std::string RunContext::fresh_cache_dir() const {
  static std::atomic<int> counter{0};
  const std::string dir =
      cat(work_dir, "/cache/ns", counter.fetch_add(1, std::memory_order_relaxed));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void Result::merge(const std::string& phase, const Result& r) {
  attempted += r.attempted;
  failed += r.failed;
  for (const std::string& f : r.failures) {
    if (failures.size() < 20) failures.push_back(cat(phase, ": ", f));
  }
  for (const auto& [name, m] : r.end_to_end) {
    const auto it = end_to_end.find(name);
    if (name == "setup_s") notes[cat(phase, ".setup_s")] = m.value;
    if (name == "setup_s" && it != end_to_end.end()) {
      it->second.value += m.value;
    } else {
      end_to_end[name] = m;
    }
  }
  for (const auto& [name, m] : r.per_layer) per_layer[name] = m;
  for (const auto& [name, v] : r.notes) notes[cat(phase, ".", name)] = v;
}

CpuRotation::CpuRotation(Scope scope) : scope_(scope) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) set(saved_);
}

void CpuRotation::pin(int round) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[static_cast<std::size_t>(round) % cpus_.size()], &one);
  set(one);
}

void CpuRotation::set(const cpu_set_t& cpus) const {
  if (scope_ == Scope::kCallingThread) {
    (void)sched_setaffinity(0, sizeof(cpus), &cpus);
    return;
  }
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const auto tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    (void)sched_setaffinity(tid, sizeof(cpus), &cpus);
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double iq_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  int n = 0;
  for (const double x : v) {
    if (x > 0.0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

Fun3dSmallInputs make_fun3d_small_inputs(std::uint64_t seed) {
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  Fun3dSmallInputs in;
  const auto edges = static_cast<std::size_t>(fun3d::kGlafEdges);
  const auto nodes = static_cast<std::uint64_t>(fun3d::kGlafNodes);
  in.edge_a.resize(edges);
  in.edge_b.resize(edges);
  in.w.resize(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    in.edge_a[e] = static_cast<double>(rng.next_below(nodes));
    in.edge_b[e] = static_cast<double>(rng.next_below(nodes));
    in.w[e] = rng.uniform(0.25, 1.25);
  }
  in.q.resize(static_cast<std::size_t>(nodes));
  for (double& q : in.q) q = rng.uniform(0.5, 1.5);
  return in;
}

Status load_fun3d_small(Machine& m, const Fun3dSmallInputs& in) {
  for (const auto& [name, data] :
       {std::pair<const char*, const std::vector<double>*>{"edge_a", &in.edge_a},
        {"edge_b", &in.edge_b},
        {"w", &in.w},
        {"q", &in.q}}) {
    const Status s = m.set_array(name, *data);
    if (!s.is_ok()) return s;
  }
  return Status::ok();
}

bool globals_match(const Machine& reference, const Machine& other,
                   const Tolerance& tol, std::uint64_t* worst,
                   std::string* where) {
  bool ok = true;
  for (const GridId id : reference.program().global_grids) {
    const Grid& g = reference.program().grid(id);
    if (g.is_struct()) continue;
    const StatusOr<std::vector<double>> a = reference.array(g.name);
    const StatusOr<std::vector<double>> b = other.array(g.name);
    if (!a.is_ok() || !b.is_ok() || a.value().size() != b.value().size()) {
      if (ok) *where = g.name + ": unreadable or size mismatch";
      ok = false;
      continue;
    }
    for (std::size_t i = 0; i < a.value().size(); ++i) {
      const double x = a.value()[i];
      const double y = b.value()[i];
      const std::uint64_t d = ulp_distance(x, y);
      if (d != kUlpIncomparable && d > *worst) *worst = d;
      if (!ulp_close(x, y, tol.max_ulp, tol.rtol, tol.atol)) {
        if (ok) {
          *where = cat(g.name, "[", i, "]: ", x, " vs ", y, " (", d,
                       " ulps, relative ", std::fabs(x - y) /
                                               std::max(std::fabs(x),
                                                        std::fabs(y)),
                       ")");
        }
        ok = false;
      }
    }
  }
  return ok;
}

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kPlan:
      return "plan";
    case Engine::kNative:
      return "native";
    case Engine::kOpt:
      return "opt";
    case Engine::kParallel:
      return "parallel";
  }
  return "?";
}

InterpOptions engine_options(Engine e, int threads,
                             const std::string& cache_dir) {
  InterpOptions o;
  o.engine = e == Engine::kPlan ? ExecEngine::kPlan : ExecEngine::kNative;
  o.parallel = e == Engine::kParallel;
  o.num_threads = e == Engine::kParallel ? threads : 1;
  o.native_model = e == Engine::kOpt ? NumericModel::kOpt
                                     : NumericModel::kInterp;
  o.native_cache_dir = cache_dir;
  return o;
}

bool native_ok(const Machine& m, std::string* why) {
  const NativeReport& r = m.native_report();
  if (!r.available) {
    *why = "native unavailable: " + r.fallback_reason;
    return false;
  }
  if (r.fallback_calls > 0) {
    *why = cat(r.fallback_calls, " call(s) fell back to the plan VM");
    return false;
  }
  return true;
}

}  // namespace perfbench
