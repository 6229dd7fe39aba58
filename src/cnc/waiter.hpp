// Waiter interface: anything parked on an item-collection slot until the
// item is produced. The waiter list that holds a waiter owns it. Two
// implementations exist:
//   * a suspended step instance (Native-CnC blocking-get protocol) — resumed
//     and re-executed from the top when the item arrives;
//   * a countdown embedded in a prescheduled step instance (the tuner) — the
//     step is dispatched only once ALL declared dependencies are present.
#pragma once

#include <string>

namespace rdp::cnc {

class waiter {
public:
  virtual ~waiter() = default;
  /// Called exactly once per registered dependency when the item becomes
  /// available. May be invoked from the producing thread.
  virtual void item_ready() = 0;
  /// Called instead of item_ready() when the item collection is destroyed
  /// with this waiter still registered (a deadlocked or abandoned graph):
  /// the waiter releases what it owns, so the graph is still reclaimed.
  virtual void abandon() noexcept = 0;
  /// One-line identification of the parked step for stall dumps
  /// ("<collection>(tag)"). Called under the item's stripe lock, so the
  /// waiter cannot be resumed meanwhile.
  virtual std::string describe() const = 0;
};

}  // namespace rdp::cnc
