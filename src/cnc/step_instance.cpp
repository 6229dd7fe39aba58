#include "cnc/step_instance.hpp"

#include "obs/tracer.hpp"
#include "support/assertions.hpp"

namespace rdp::cnc {

namespace {
/// Per-thread execution state of the data-flow runtime, one TLS block.
struct thread_state {
  /// The instance whose body runs on this thread (innermost, if nested).
  step_instance_base* current = nullptr;
  /// Inline-resume slot: an active instance woken by a put on this thread,
  /// to run once the running body returns (see execute_wrapper).
  step_instance_base* continuation = nullptr;
  /// Set by park_on() while the current step runs: the step has handed
  /// itself to a waiter list. Kept per thread rather than in the instance,
  /// because a concurrent put may resume the instance before its frame
  /// returns.
  bool parked = false;
  /// Set by requeue_current(): the step asked to be queued again.
  bool requeued = false;
};
constinit thread_local thread_state tl;
}  // namespace

step_instance_base* step_instance_base::current() noexcept {
  return tl.current;
}

bool step_instance_base::requeue_current() noexcept {
  RDP_ASSERT(tl.current != nullptr);
  return !std::exchange(tl.requeued, true);
}

void step_instance_base::park_on(waiter_list& waiters) noexcept {
  RDP_ASSERT(tl.current == this && !tl.parked);
  // The caller holds the slot lock, so no put can resume us before the
  // suspension is counted.
  waiters.push(this);
  ctx_.on_suspend();
  tl.parked = true;
}

void step_instance_base::continue_or_enqueue() {
  // Only behind a step of the same graph: an environment that waits for
  // this graph inside a step of another one would never drain the slot.
  thread_state& ts = tl;
  if (ts.current != nullptr && &ts.current->ctx_ == &ctx_) {
    if (step_instance_base* earlier = std::exchange(ts.continuation, this))
      earlier->enqueue();
    return;
  }
  enqueue();
}

void step_instance_base::execute_wrapper() noexcept {
  attempt();
  // Drain the continuation slot here, one instance at a time, so a chain of
  // wake-ups runs at constant stack depth. A wrapper nested in a body (one
  // that helped the pool while waiting) drains it too: the instance it
  // leaves may be what that wait is waiting for.
  while (step_instance_base* next = std::exchange(tl.continuation, nullptr)) {
    next->ctx_.metrics().continued.fetch_add(1, std::memory_order_relaxed);
    next->attempt();
  }
}

void step_instance_base::attempt() noexcept {
  // Capture the context up front: once an unmet get parks this instance on
  // a waiter list, ownership transfers there — a concurrent put may resume,
  // re-execute and even delete it before this frame returns, so `this` must
  // not be dereferenced once the body parked.
  context_base& ctx = ctx_;
  thread_state& ts = tl;
  step_instance_base* const previous = ts.current;
  const bool previous_parked = ts.parked;
  const bool previous_requeued = ts.requeued;
  ts.current = this;
  ts.parked = false;
  ts.requeued = false;
  std::exception_ptr error;
  // Step latency histogram, sampled 1-in-16 per thread (the clock pair
  // would otherwise tax fine-grained base steps). Timed attempts that
  // abort on an unmet get are not recorded — the histogram answers "how
  // long does a step's useful execution take".
  static thread_local std::uint32_t tl_step_sample = 0;
  const bool timed =
      obs::metrics_enabled() && obs::metrics_sampled(tl_step_sample, 15);
  const std::uint64_t t0 = timed ? obs::metrics_now_ns() : 0;
  try {
    run_body();
  } catch (const detail::unmet_dependency_signal&) {
    // get() parked the instance before throwing; ts.parked records it.
  } catch (...) {
    error = std::current_exception();
  }
  const bool parked = ts.parked;
  const bool requeued = ts.requeued;
  ts.current = previous;
  ts.parked = previous_parked;
  ts.requeued = previous_requeued;

  if (error) ctx.record_error(error);
  if (parked) {
    ctx.metrics().aborted.fetch_add(1, std::memory_order_relaxed);
    RDP_TRACE_EVENT(obs::event_kind::step_abort, 0,
                    reinterpret_cast<std::uintptr_t>(this), 0);
    ctx.on_complete();  // leaves "active"; park_on already counted it
    return;
  }
  if (!error) {
    ctx.metrics().executed.fetch_add(1, std::memory_order_relaxed);
    if (timed) detail::cnc_metrics().step_ns.record(obs::metrics_now_ns() - t0);
  }
  if (requeued) {
    enqueue_global();  // still active: the retry is this same instance
    return;
  }
  delete this;
  ctx.on_complete();
}

}  // namespace rdp::cnc
