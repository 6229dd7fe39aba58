#include "cnc/step_instance.hpp"

#include "obs/tracer.hpp"
#include "support/assertions.hpp"

namespace rdp::cnc {

namespace {
thread_local step_instance_base* tl_current_step = nullptr;
/// Set by park_on() while the current step runs: the step has handed itself
/// to a waiter list. Kept per thread rather than in the instance, because a
/// concurrent put may resume the instance before its frame returns.
thread_local bool tl_parked = false;
}  // namespace

step_instance_base* step_instance_base::current() noexcept {
  return tl_current_step;
}

void step_instance_base::park_on(waiter_list& waiters) noexcept {
  RDP_ASSERT(tl_current_step == this && !tl_parked);
  // The caller holds the slot lock, so no put can resume us before the
  // suspension is counted.
  waiters.push(this);
  ctx_.on_suspend();
  tl_parked = true;
}

void step_instance_base::execute_wrapper() noexcept {
  // Capture the context up front: once an unmet get parks this instance on
  // a waiter list, ownership transfers there — a concurrent put may resume,
  // re-execute and even delete it before this frame returns, so `this` must
  // not be dereferenced once the body parked.
  context_base& ctx = ctx_;
  step_instance_base* const previous = tl_current_step;
  const bool previous_parked = tl_parked;
  tl_current_step = this;
  tl_parked = false;
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
    // get() parked the instance before throwing; tl_parked records it.
  } catch (...) {
    error = std::current_exception();
  }
  const bool parked = tl_parked;
  tl_current_step = previous;
  tl_parked = previous_parked;

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
    detail::cnc_metrics().steps_executed.add();
    if (timed) detail::cnc_metrics().step_ns.record(obs::metrics_now_ns() - t0);
  }
  delete this;
  ctx.on_complete();
}

}  // namespace rdp::cnc
