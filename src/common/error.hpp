// Common error type for the cs31 kit.
//
// All public APIs in the kit signal caller mistakes (bad widths, malformed
// input, out-of-range addresses, API-protocol violations) by throwing
// cs31::Error. Internal invariants use assert().
#pragma once

#include <stdexcept>
#include <string>

namespace cs31 {

/// Exception thrown by every cs31 module on invalid arguments or misuse.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throw cs31::Error with `msg` when `cond` does not hold.
///
/// The rule for every check in the kit: it builds its message only on
/// the throwing path. A check runs on every call that succeeds, so
/// `require` takes a literal and nothing else; a message that needs
/// runtime values is written `if (!cond) throw Error("..." + ...)`,
/// which formats it only when the check fails. One place does not
/// follow the rule yet: Machine::step, the teaching interpreter, still
/// formats its fetch and decode faults on every step (its comment says
/// why); decode() and every other check are lazy.
inline void require(bool cond, const char* msg) {
  if (!cond) throw Error(msg);
}

}  // namespace cs31
