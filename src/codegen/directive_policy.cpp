#include "codegen/directive_policy.hpp"

namespace glaf {

const char* to_string(Language lang) {
  switch (lang) {
    case Language::kFortran: return "FORTRAN";
    case Language::kC: return "C";
    case Language::kOpenCL: return "OpenCL";
  }
  return "?";
}

const char* to_string(OmpSchedule schedule) {
  switch (schedule) {
    case OmpSchedule::kDefault: return "default";
    case OmpSchedule::kStatic: return "static";
    case OmpSchedule::kDynamic: return "dynamic";
  }
  return "?";
}

const char* to_string(NumericModel model) {
  switch (model) {
    case NumericModel::kTyped: return "typed";
    case NumericModel::kInterp: return "interp";
    case NumericModel::kOpt: return "opt";
  }
  return "?";
}

const char* to_string(DirectivePolicy policy) {
  switch (policy) {
    case DirectivePolicy::kV0: return "v0";
    case DirectivePolicy::kV1: return "v1";
    case DirectivePolicy::kV2: return "v2";
    case DirectivePolicy::kV3: return "v3";
  }
  return "?";
}

bool keep_directive(DirectivePolicy policy, const StepVerdict& verdict) {
  if (!verdict.has_loop || !verdict.parallelizable) return false;
  switch (verdict.loop_class) {
    case LoopClass::kStraightLine:
      return false;
    case LoopClass::kInitZero:
    case LoopClass::kBroadcast:
      // Removed from v1 on: the compiler beats threads here (memset, SIMD
      // loads), paper §4.1.2.
      return policy == DirectivePolicy::kV0;
    case LoopClass::kSimpleSingle:
      // Removed from v2 on: SIMD or unrolling wins.
      return policy == DirectivePolicy::kV0 ||
             policy == DirectivePolicy::kV1;
    case LoopClass::kSimpleDouble:
      // Removed in v3: the compiler auto-parallelizes/vectorizes these.
      return policy != DirectivePolicy::kV3;
    case LoopClass::kComplex:
      // Directives always kept: the compiler fails to parallelize these
      // (the two large longwave_entropy_model loops).
      return true;
  }
  return false;
}

}  // namespace glaf
