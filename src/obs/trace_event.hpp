// Event model of the runtime observability layer (rdp::obs).
//
// One `event` is a 32-byte POD: a nanosecond timestamp relative to the
// tracing session start, an event kind, an interned-name id (collection,
// gauge or phase label — 0 means "no name"), and two integer payloads whose
// meaning depends on the kind. Events are recorded into per-thread
// append-only buffers (see tracer.hpp) and carry no thread id themselves;
// the collector stamps `tid` when it snapshots the buffers.
#pragma once

#include <cstdint>

namespace rdp::obs {

enum class event_kind : std::uint8_t {
  // -- fork-join scheduler (emitted by rdp::forkjoin::worker_pool) --------
  task_spawn,       // local deque push           arg0 = worker index,
                    //                            arg1 = task identity
  task_inject,      // injection-queue push       arg0 = 1 for low-priority,
                    //                            arg1 = task identity
  task_overflow,    // bounded queue full: retry  arg0 = retry count so far
  task_steal,       // arg0 = victim worker, arg1 = thief worker
  task_run_begin,   // arg0 = task identity (pointer value)
  task_run_end,     // arg0 = task identity
  worker_park,      // arg0 = worker index
  worker_unpark,    // arg0 = worker index
  join_begin,       // task_group::wait entered   arg0 = group identity,
                    //                            arg1 = pending children
  join_end,         // task_group::wait satisfied arg0 = group identity
  // -- data-flow runtime (emitted by rdp::cnc) ----------------------------
  step_abort,       // unmet blocking get         arg0 = instance identity
  step_resume,      // parked instance re-woken   arg0 = instance identity
  step_requeue,     // non-blocking-get retry     name = step collection
  preschedule_defer,// tuner deferred dispatch    name = step collection
  item_put,         // name = item collection     arg0 = key hash
  item_get,         // successful blocking get    arg0 = key hash
  item_get_miss,    // failed blocking get        arg0 = key hash
  data_wait_begin,  // environment blocked on an unproduced item (or the
                    // context quiescence wait)   name = item collection
                    //                            (0 for context::wait),
                    //                            arg0 = key hash
  data_wait_end,    // the matching wait resolved arg0 = key hash
  // -- cross-cutting ------------------------------------------------------
  counter_sample,   // periodic gauge sample      name = gauge, arg0 = value
  phase_begin,      // name = phase label
  // -- batch server (emitted by rdp::server) ------------------------------
  request_begin,    // request admitted/dispatched  name = graph label,
                    //                              arg0 = request id,
                    //                              arg1 = queue ns
  request_end,      // request completed            name = graph label,
                    //                              arg0 = request id,
                    //                              arg1 = exec ns
};

/// Number of event kinds (request_end is last). Used by the raw-trace
/// reader to reject records from incompatible files. Appending kinds keeps
/// older trace files readable; removing or reordering one renumbers the
/// kinds after it, so it bumps the raw-trace header version (analyze.cpp).
inline constexpr unsigned k_event_kind_count =
    static_cast<unsigned>(event_kind::request_end) + 1;

inline constexpr const char* to_string(event_kind k) noexcept {
  switch (k) {
    case event_kind::task_spawn: return "task_spawn";
    case event_kind::task_inject: return "task_inject";
    case event_kind::task_overflow: return "task_overflow";
    case event_kind::task_steal: return "task_steal";
    case event_kind::task_run_begin: return "task_run_begin";
    case event_kind::task_run_end: return "task_run_end";
    case event_kind::worker_park: return "worker_park";
    case event_kind::worker_unpark: return "worker_unpark";
    case event_kind::join_begin: return "join_begin";
    case event_kind::join_end: return "join_end";
    case event_kind::step_abort: return "step_abort";
    case event_kind::step_resume: return "step_resume";
    case event_kind::step_requeue: return "step_requeue";
    case event_kind::preschedule_defer: return "preschedule_defer";
    case event_kind::item_put: return "item_put";
    case event_kind::item_get: return "item_get";
    case event_kind::item_get_miss: return "item_get_miss";
    case event_kind::data_wait_begin: return "data_wait_begin";
    case event_kind::data_wait_end: return "data_wait_end";
    case event_kind::counter_sample: return "counter_sample";
    case event_kind::phase_begin: return "phase_begin";
    case event_kind::request_begin: return "request_begin";
    case event_kind::request_end: return "request_end";
  }
  return "?";
}

struct event {
  std::uint64_t ts_ns = 0;  // since tracer::start()
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint16_t name = 0;   // interned string id; 0 = none
  event_kind kind = event_kind::task_spawn;
  std::int32_t tid = -1;    // stamped by tracer::collect()
};

}  // namespace rdp::obs
