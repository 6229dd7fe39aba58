// Error types of the data-flow (CnC) runtime.
#pragma once

#include <stdexcept>
#include <string>

namespace rdp::cnc {

/// Dynamic single assignment violation: an item collection key was put twice.
/// Mirrors the run-time check the Intel CnC C++ implementation performs
/// (§II of the paper): items, once written, may not be overwritten.
class dsa_violation : public std::logic_error {
public:
  explicit dsa_violation(const std::string& what_arg)
      : std::logic_error(what_arg) {}
};

/// Raised by context::wait() when the graph quiesced with steps still
/// suspended on items nobody will ever produce (a deadlocked specification).
/// CnC's determinism makes such deadlocks reproducible and easy to report.
class unsatisfied_dependency : public std::runtime_error {
public:
  explicit unsatisfied_dependency(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// A key outside the key space of a dense item collection (dense_slots):
/// the program named an item its collection was not sized for. Raised by
/// the operation that names the key — from a step, wait() rethrows it.
class key_out_of_range : public std::out_of_range {
public:
  explicit key_out_of_range(const std::string& what_arg)
      : std::out_of_range(what_arg) {}
};

namespace detail {

/// Control-flow signal thrown by item_collection::get(), the throwing
/// wrapper for hand-written steps, when its item is not yet available. The
/// park itself needs no exception: get_or_park() parks the step and returns
/// false, and the step returns; the data-flow executor takes that path.
/// Deliberately NOT derived from std::exception so user catch blocks for
/// ordinary errors do not swallow it. The scheduler wrapper is the only
/// catcher: it aborts the step instance, which the failed get has already
/// parked on the item's waiter list.
struct unmet_dependency_signal {};

}  // namespace detail
}  // namespace rdp::cnc
