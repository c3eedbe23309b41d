#include "jit/gate.hpp"

#include <algorithm>
#include <cmath>

namespace glaf::jit {
namespace {

double median(std::array<double, kGateProbeRuns> v) {
  std::sort(v.begin(), v.end());
  return 0.5 * (v[(kGateProbeRuns - 1) / 2] + v[kGateProbeRuns / 2]);
}

}  // namespace

const char* gate_mode_name(GateMode mode) {
  switch (mode) {
    case GateMode::kMeasured:
      return "measured";
    case GateMode::kDispatch:
      return "dispatch";
    case GateMode::kSerial:
      return "serial";
  }
  return "?";
}

GateMode resolve_gate(bool always_dispatch, int pool_threads,
                      unsigned hardware_threads) {
  if (always_dispatch) return GateMode::kDispatch;
  if (pool_threads <= 1 || hardware_threads <= 1) return GateMode::kSerial;
  return GateMode::kMeasured;
}

GateSite::GateSite(int nranks) : nranks_(std::max(nranks, 1)) {}

bool GateSite::open(long n, std::int64_t now_ns) {
  if (runs_ < 2 * kGateProbeRuns) {
    open_dispatch_ = runs_ >= kGateProbeRuns;
  } else if (revisit_) {
    open_dispatch_ = !revisit_dispatch_;
  } else {
    open_dispatch_ = n < nmin_;  // the branch the fit does not choose
  }
  open_n_ = n;
  open_ns_ = now_ns;
  return open_dispatch_;
}

void GateSite::close(std::int64_t now_ns) {
  const double n = static_cast<double>(open_n_);
  const double ns = static_cast<double>(now_ns - open_ns_);
  Samples& s = open_dispatch_ ? parallel_ : serial_;
  s.n[s.count % kGateProbeRuns] = n;
  s.ns[s.count % kGateProbeRuns] = ns;
  ++s.count;
  left_ = 0;
  if (++runs_ < 2 * kGateProbeRuns) return;
  if (runs_ > 2 * kGateProbeRuns && !revisit_) {
    revisit_ = true;
    revisit_dispatch_ = open_dispatch_;
    revisit_won_ = ns < predict(!open_dispatch_, n);
    return;
  }
  const bool before = open_n_ >= nmin_;
  fit();
  if (runs_ == 2 * kGateProbeRuns || revisit_won_ ||
      (open_n_ >= nmin_) != before) {
    period_ = kGateRevisitFirst;
  } else {
    period_ = std::min(2 * period_, kGateRevisitMax);
  }
  left_ = revisit_won_ ? 0 : period_;
  revisit_ = false;
  revisit_won_ = false;
}

double GateSite::predict(bool dispatch, double n) const {
  return dispatch ? f_ + a_ * n / nranks_ : a_ * n;
}

void GateSite::fit() {
  std::array<double, kGateProbeRuns> r{};
  for (int i = 0; i < kGateProbeRuns; ++i) r[i] = serial_.ns[i] / serial_.n[i];
  a_ = median(r);
  for (int i = 0; i < kGateProbeRuns; ++i) {
    r[i] = parallel_.ns[i] - a_ * parallel_.n[i] / nranks_;
  }
  f_ = median(r);
  // Dispatch when a * n * gain > f, i.e. n > f / (a * gain).
  const double gain = 1.0 - 1.0 / nranks_;
  const double x = f_ / (a_ * gain);
  if (!(a_ > 0.0) || !(gain > 0.0) || std::isnan(x) ||
      x >= static_cast<double>(kNeverDispatch / 2)) {
    nmin_ = kNeverDispatch;
  } else {
    nmin_ = x < 0.0 ? 0 : static_cast<long>(std::floor(x)) + 1;
  }
}

bool GateLedger::open(GateSlot* slot, long n, std::int64_t now_ns) {
  settle(now_ns);
  if (slot->left > 0) {
    --slot->left;
    return n >= slot->nmin;
  }
  auto* site = static_cast<GateSite*>(slot->state);
  if (site == nullptr) {
    site = sites_.emplace_back(std::make_unique<GateSite>(nranks_)).get();
    slot->state = site;
  }
  slot->timing = 1;
  return site->open(n, now_ns);
}

bool GateLedger::close(GateSlot* slot, std::int64_t now_ns) {
  settle(now_ns);
  slot->timing = 0;
  slot->left = 0;
  pending_ = slot;
  return static_cast<GateSite*>(slot->state)->dispatching();
}

void GateLedger::settle(std::int64_t now_ns) {
  if (pending_ == nullptr) return;
  auto* site = static_cast<GateSite*>(pending_->state);
  site->close(now_ns);
  pending_->nmin = site->nmin();
  pending_->left = site->left();
  pending_ = nullptr;
}

}  // namespace glaf::jit
