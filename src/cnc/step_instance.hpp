// Dynamic step instances: the unit of execution of the data-flow runtime.
//
// A step instance is created when a tag is put into a prescribed tag
// collection. Its lifecycle:
//
//   prescribed ──schedule──▶ active ──run──▶ done (deleted)
//                    ▲                 │ unmet get_or_park
//                    │                 ▼
//                 resumed ◀──put── suspended (owned by item waiter list)
//                                      │ collection destroyed first
//                                      ▼
//                                  abandoned (deleted)
//
// A suspended instance belongs to the waiter list it is parked on; nothing
// else points at it. The put that produces the item resumes it, and an item
// collection destroyed with it still parked deletes it (waiter::abandon),
// which is how a deadlocked or abandoned graph is reclaimed. A prescheduled
// instance is suspended from prescription on, owned jointly by the
// registrations its embedded countdown holds on the waiter lists of its
// absent items: the last registration to be released dispatches it, or
// frees it if the countdown was killed.
//
// Instances and countdown registrations are allocated from the fork-join
// task arena (forkjoin/task_arena.hpp) through class-level operator
// new/delete: a spawn is a freelist pop on the spawning worker and a
// completion a freelist push (or a lock-free return to the spawning
// worker's arena), never a global heap round-trip.
//
// An unmet get parks the instance and returns false; the step returns at
// once and execute_wrapper() learns of the park from a thread-local flag,
// with no C++ exception on the way. Re-execution restarts the step body
// from the top (Intel CnC semantics); gets that previously succeeded simply
// succeed again from the item collection.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <new>
#include <string>
#include <utility>

#include "cnc/context.hpp"
#include "cnc/errors.hpp"
#include "cnc/waiter.hpp"
#include "forkjoin/task_arena.hpp"
#include "obs/tracer.hpp"

namespace rdp::cnc {

class step_instance_base;

namespace detail {

/// Class-level allocation from the calling thread's task arena. A block
/// may be freed on any thread (arena_deallocate's return stack).
struct arena_object {
  static void* operator new(std::size_t size) {
    return forkjoin::arena_allocate(size, alignof(std::max_align_t));
  }
  static void operator delete(void* p) noexcept {
    forkjoin::arena_deallocate(p);
  }
  // Over-aligned tags (arena_allocate falls back to the heap for them).
  static void* operator new(std::size_t size, std::align_val_t align) {
    return forkjoin::arena_allocate(size, static_cast<std::size_t>(align));
  }
  static void operator delete(void* p, std::align_val_t) noexcept {
    forkjoin::arena_deallocate(p);
  }
};

/// Gate of a prescheduled instance's first dispatch (preschedule tuner),
/// embedded in that instance. It counts one per declared dependency absent
/// at declaration time, plus an arming guard held while depends() runs;
/// each absent item holds one countdown_registration on its waiter list.
/// The last release dispatches the instance, or frees it when the countdown
/// is dead: depends() threw, or a collection holding a registration was
/// destroyed before its item was put.
class preschedule_countdown {
public:
  explicit preschedule_countdown(step_instance_base& owner) noexcept
      : owner_(owner) {}

  std::atomic<long>& remaining() noexcept { return remaining_; }

  std::string describe() const;

  /// Called after depends() finished declaring; drops the arming guard.
  void finish_arming() { release(); }

  /// The instance must never run: mark the countdown dead and drop one
  /// count (the arming guard when depends() threw, a registration when it
  /// is abandoned).
  void kill() noexcept {
    dead_.store(true, std::memory_order_relaxed);
    release();
  }

  /// Drop one count; the last one hands the instance on.
  void release();

private:
  std::atomic<long> remaining_{1};  // arming guard
  std::atomic<bool> dead_{false};
  step_instance_base& owner_;
};

/// One absent dependency of a prescheduled instance: the waiter its
/// countdown parks on that item's list. Fires (or is abandoned) once, then
/// frees itself before releasing the countdown it counts for.
class countdown_registration final : public waiter, public arena_object {
public:
  explicit countdown_registration(preschedule_countdown& cd) noexcept
      : countdown_(cd) {}

  void item_ready() override {
    preschedule_countdown& cd = countdown_;
    delete this;
    cd.release();
  }
  void abandon() noexcept override {
    preschedule_countdown& cd = countdown_;
    delete this;
    cd.kill();
  }
  std::string describe() const override { return countdown_.describe(); }

private:
  preschedule_countdown& countdown_;
};

}  // namespace detail

class step_instance_base : public waiter, public detail::arena_object {
public:
  explicit step_instance_base(context_base& ctx)
      : ctx_(ctx), countdown_(*this) {}

  /// The step instance currently executing on this thread (nullptr outside
  /// step bodies, e.g. in the environment). Blocking gets consult this to
  /// know which instance to park.
  static step_instance_base* current() noexcept;

  context_base& ctx() noexcept { return ctx_; }

  /// First dispatch of a freshly prescribed instance.
  void initial_dispatch() {
    ctx_.on_schedule();  // becomes "active"
    enqueue();
  }

  /// Dispatch through the pool's low-priority FIFO path (retry instances
  /// created by non-blocking-get requeues).
  void initial_dispatch_global() {
    ctx_.on_schedule();
    ctx_.schedule_global([this] { this->execute_wrapper(); });
  }

  /// Fallback stall-dump line; typed instances print "<collection>(tag)".
  std::string describe() const override { return "<step instance>"; }

  /// Park this instance, the one running on the calling thread, on an
  /// item's `waiters` (called under that item's slot lock). From here the
  /// waiter list owns the instance: the step must return at once and not
  /// touch it again.
  void park_on(waiter_list& waiters) noexcept;

  /// waiter: an item this instance was parked on became available. The
  /// instance will re-run its body from the top (a re-execution).
  /// on_resume() already moves the instance from "suspended" to "active".
  void item_ready() final {
    ctx_.on_resume();
    RDP_TRACE_EVENT(obs::event_kind::step_resume, 0,
                    reinterpret_cast<std::uintptr_t>(this), 0);
    enqueue();
  }

  /// waiter: parked on an item that will never be put. Never runs again.
  void abandon() noexcept final { discard(); }

  /// First dispatch of a prescheduled instance whose declared dependencies
  /// all became available. Same accounting as item_ready(), but NOT a
  /// re-execution — the body has never run — so no step_resume event.
  void dispatch_prescheduled() {
    ctx_.on_resume();
    enqueue();
  }

  /// Free a suspended instance that will never run (back to its arena).
  void discard() noexcept {
    ctx_.on_discard();
    delete this;
  }

  /// The countdown gating this instance's first dispatch (preschedule
  /// tuner only; unused by native instances).
  detail::preschedule_countdown& countdown() noexcept { return countdown_; }

protected:
  /// Runs the user step body once. Returns early after an unmet
  /// get_or_park (or throws detail::unmet_dependency_signal from get());
  /// either way park_on() has already handed `this` to a waiter list.
  virtual void run_body() = 0;

private:
  void enqueue() {
    ctx_.schedule([this] { this->execute_wrapper(); });
  }
  void execute_wrapper() noexcept;

  context_base& ctx_;
  detail::preschedule_countdown countdown_;
};

inline std::string detail::preschedule_countdown::describe() const {
  return owner_.describe();
}

inline void detail::preschedule_countdown::release() {
  // The last release hands the instance on, and dispatch may run and delete
  // it, this countdown with it, before the call returns: touch no member
  // after it. Every earlier release happens-before the last one (they form
  // one read-modify-write chain), so a kill() by any of them is seen here.
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (dead_.load(std::memory_order_relaxed))
    owner_.discard();
  else
    owner_.dispatch_prescheduled();  // resume accounting + first dispatch
}

}  // namespace rdp::cnc
