#include "obs/summary.hpp"

#include <ostream>
#include <unordered_map>

#include "obs/tracer.hpp"
#include "support/table_printer.hpp"

namespace rdp::obs {

std::vector<phase_summary> summarize(const std::vector<event>& events,
                                     const tracer& t) {
  std::vector<phase_summary> phases;
  phases.push_back({});
  phases.back().phase = "(untitled)";
  // Open task_run_begins per thread, attributed to the phase they began
  // in. A *stack* per thread: helping joins run nested tasks (wait() helps
  // while a task is already executing), so begins/ends pair LIFO.
  struct open_run {
    std::uint64_t ts_ns;
    std::size_t phase;
  };
  std::unordered_map<std::int32_t, std::vector<open_run>> open;

  for (const event& e : events) {
    if (e.kind == event_kind::phase_begin) {
      phases.push_back({});
      phases.back().phase = t.name(e.name);
      phases.back().first_ts_ns = e.ts_ns;
      phases.back().last_ts_ns = e.ts_ns;
      continue;
    }
    phase_summary& p = phases.back();
    if (p.first_ts_ns == 0 && p.tasks_run == 0) p.first_ts_ns = e.ts_ns;
    p.last_ts_ns = e.ts_ns;
    switch (e.kind) {
      case event_kind::task_spawn: ++p.spawns; break;
      case event_kind::task_inject: ++p.injections; break;
      case event_kind::task_overflow: ++p.overflows; break;
      case event_kind::task_steal: ++p.steals; break;
      case event_kind::worker_park: ++p.parks; break;
      case event_kind::worker_unpark: break;
      case event_kind::join_begin: ++p.joins; break;
      case event_kind::join_end: break;
      case event_kind::data_wait_begin: ++p.data_waits; break;
      case event_kind::data_wait_end: break;
      case event_kind::task_run_begin:
        open[e.tid].push_back({e.ts_ns, phases.size() - 1});
        break;
      case event_kind::task_run_end: {
        auto it = open.find(e.tid);
        if (it != open.end() && !it->second.empty()) {
          const open_run run = it->second.back();
          it->second.pop_back();
          phase_summary& owner = phases[run.phase];
          ++owner.tasks_run;
          // Nested helper runs are counted in full by their own begin/end
          // pair, so busy_ms double-counts overlap by design: it measures
          // "time inside a task", not CPU seconds.
          owner.busy_ms += static_cast<double>(e.ts_ns - run.ts_ns) / 1e6;
        }
        break;
      }
      case event_kind::step_abort: ++p.step_aborts; break;
      case event_kind::step_resume: ++p.step_reexecs; break;
      case event_kind::step_requeue: ++p.step_requeues; break;
      case event_kind::preschedule_defer: ++p.defers; break;
      case event_kind::item_put: ++p.item_puts; break;
      case event_kind::item_get: ++p.item_gets; break;
      case event_kind::item_get_miss: ++p.get_misses; break;
      case event_kind::counter_sample: break;
      case event_kind::phase_begin: break;  // handled above
      case event_kind::request_begin: ++p.requests; break;
      case event_kind::request_end: break;
    }
  }

  // Drop the untitled phase when every event fell into a marked phase.
  if (phases.size() > 1) {
    const phase_summary& u = phases.front();
    if (u.tasks_run == 0 && u.spawns == 0 && u.injections == 0 &&
        u.item_puts == 0 && u.steals == 0 && u.parks == 0)
      phases.erase(phases.begin());
  }
  return phases;
}

void print_summary(std::ostream& os,
                   const std::vector<phase_summary>& phases,
                   std::uint64_t dropped) {
  table_printer table({"Phase", "Tasks", "Busy(ms)", "Wall(ms)", "Spawn",
                       "Inject", "Ovfl", "Steal", "Park", "Join", "DWait",
                       "Abort", "Re-exec", "Requeue", "Defer", "Put", "Get",
                       "Miss"});
  for (const phase_summary& p : phases) {
    const double wall_ms =
        static_cast<double>(p.last_ts_ns - p.first_ts_ns) / 1e6;
    table.add_row({p.phase, std::to_string(p.tasks_run),
                   table_printer::num(p.busy_ms),
                   table_printer::num(wall_ms), std::to_string(p.spawns),
                   std::to_string(p.injections), std::to_string(p.overflows),
                   std::to_string(p.steals),
                   std::to_string(p.parks), std::to_string(p.joins),
                   std::to_string(p.data_waits), std::to_string(p.step_aborts),
                   std::to_string(p.step_reexecs),
                   std::to_string(p.step_requeues), std::to_string(p.defers),
                   std::to_string(p.item_puts), std::to_string(p.item_gets),
                   std::to_string(p.get_misses)});
  }
  table.print(os);
  if (dropped > 0)
    os << "  !! trace lossy: " << dropped
       << " event(s) dropped (full per-thread ring buffers) — "
          "every count above is a lower bound\n";
}

}  // namespace rdp::obs
