// Waiter interface: anything parked on an item-collection slot until the
// item is produced. The waiter list that holds a waiter owns it. Two
// implementations exist:
//   * a suspended step instance (Native-CnC blocking-get protocol) — resumed
//     and re-executed from the top when the item arrives;
//   * one registration of a prescheduled step instance's countdown (the
//     tuner) — the step is dispatched only once ALL declared dependencies
//     are present.
//
// The list is intrusive: a waiter carries its own link, so parking on a slot
// allocates nothing. A waiter is on at most one list at a time — a step
// instance parks on one item per attempt, and a countdown registers a
// separate registration object per absent item.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

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
  /// ("<collection>(tag)"). Called under the item's slot lock, so the
  /// waiter cannot be resumed meanwhile.
  virtual std::string describe() const = 0;

private:
  friend class waiter_list;
  waiter* next_ = nullptr;
};

/// FIFO list of the waiters parked on one item, linked through the waiters
/// themselves. Guarded by the lock of the slot that holds it.
class waiter_list {
public:
  void push(waiter* w) noexcept {
    w->next_ = nullptr;
    if (tail_ == nullptr)
      head_ = w;
    else
      tail_->next_ = w;
    tail_ = w;
  }

  /// Move every waiter of `other` to the end of this list.
  void splice(waiter_list& other) noexcept {
    if (other.head_ == nullptr) return;
    if (tail_ == nullptr)
      head_ = other.head_;
    else
      tail_->next_ = other.head_;
    tail_ = other.tail_;
    other.head_ = other.tail_ = nullptr;
  }

  /// Detach the whole list (under the slot lock); hand the result to
  /// wake() or abandon() after releasing it.
  waiter* take() noexcept {
    tail_ = nullptr;
    return std::exchange(head_, nullptr);
  }

  template <class F>
  void for_each(F&& f) const {
    for (const waiter* w = head_; w != nullptr; w = w->next_) f(*w);
  }

  static std::size_t count(const waiter* first) noexcept {
    std::size_t n = 0;
    for (; first != nullptr; first = first->next_) ++n;
    return n;
  }

  /// item_ready() on every waiter of a detached list, in park order. The
  /// link is read first: a woken waiter may run, park elsewhere or be
  /// freed before the call returns.
  static void wake(waiter* first) {
    while (first != nullptr) {
      waiter* const next = first->next_;
      first->item_ready();
      first = next;
    }
  }

  /// abandon() on every waiter of a detached list.
  static void abandon(waiter* first) noexcept {
    while (first != nullptr) {
      waiter* const next = first->next_;
      first->abandon();
      first = next;
    }
  }

private:
  waiter* head_ = nullptr;
  waiter* tail_ = nullptr;
};

}  // namespace rdp::cnc
