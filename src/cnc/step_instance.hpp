// Dynamic step instances: the unit of execution of the data-flow runtime.
//
// A step instance is created when a tag is put into a prescribed tag
// collection. Its lifecycle:
//
//   prescribed ──schedule──▶ active ──run──▶ done (deleted)
//                    ▲                 │ unmet get
//                    │                 ▼
//                 resumed ◀──put── suspended (owned by item waiter list)
//
// Re-execution restarts the step body from the top (Intel CnC semantics);
// gets that previously succeeded simply succeed again from the hash map.
#pragma once

#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "cnc/context.hpp"
#include "cnc/errors.hpp"
#include "cnc/waiter.hpp"
#include "obs/tracer.hpp"

namespace rdp::cnc {

class step_instance_base : public waiter {
public:
  explicit step_instance_base(context_base& ctx) : ctx_(ctx) {}

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

  /// One-line identification for stall dumps ("<collection>(tag)"). Called
  /// by context_base::dump_state() under the suspended-registry lock, so a
  /// parked instance cannot be resumed-and-deleted mid-call.
  virtual std::string describe() const { return "<step instance>"; }

  /// waiter: an item this instance was parked on became available. The
  /// instance will re-run its body from the top (a re-execution).
  /// on_resume() already moves the instance from "suspended" to "active".
  void item_ready() final {
    ctx_.on_resume(this);
    RDP_TRACE_EVENT(obs::event_kind::step_resume, 0,
                    reinterpret_cast<std::uintptr_t>(this), 0);
    enqueue();
  }

  /// First dispatch of a prescheduled instance whose declared dependencies
  /// all became available. Same accounting as item_ready(), but NOT a
  /// re-execution — the body has never run — so no step_resume event.
  void dispatch_prescheduled() {
    ctx_.on_resume(this);
    enqueue();
  }

  /// Take ownership of the countdown gating this instance's first dispatch
  /// (preschedule tuner). An instance whose inputs never arrive (a failed
  /// or deadlocked graph) is reclaimed by its context, and its countdown,
  /// still parked on item waiter lists, must go with it.
  void own_countdown(std::unique_ptr<waiter> countdown) noexcept {
    countdown_ = std::move(countdown);
  }

protected:
  /// Runs the user step body once. Throws detail::unmet_dependency_signal
  /// if a blocking get failed (after parking `this` on the waiter list).
  virtual void run_body() = 0;

private:
  void enqueue() {
    ctx_.schedule([this] { this->execute_wrapper(); });
  }
  void execute_wrapper() noexcept;

  context_base& ctx_;
  std::unique_ptr<waiter> countdown_;
};

}  // namespace rdp::cnc
