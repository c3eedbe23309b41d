#pragma once
// Error unwinding shared by the two execution engines (the tree-walk
// Executor in machine.cpp and the plan VM in vm.cpp), which must agree
// exactly on how a runtime error reaches Machine::call.

#include <stdexcept>
#include <string>

namespace glaf::interp {

/// Internal unwinding for runtime errors; converted to Status at the API
/// boundary (Machine::call).
struct InterpError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] inline void fail(const std::string& msg) {
  throw InterpError(msg);
}

}  // namespace glaf::interp
