// Per-phase scheduler summary: the at-a-glance half of rdp::obs.
//
// Folds a collected event stream into one row per phase (phases are marked
// with tracer::begin_phase, e.g. one per benchmark variant): how many tasks
// ran and for how long, how work moved (spawns / injections / steals), how
// often workers parked, and — the paper's central quantities — how many
// data-flow steps aborted on an unmet get, were re-executed, were requeued
// by the non-blocking protocol, or were deferred by the pre-scheduling
// tuner. A fork-join phase shows its cost as parks
// and steals; a Native-CnC phase shows it as aborts and re-executions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace_event.hpp"

namespace rdp::obs {

class tracer;

struct phase_summary {
  std::string phase;           // label, or "(untitled)" before any marker
  std::uint64_t first_ts_ns = 0;
  std::uint64_t last_ts_ns = 0;
  std::uint64_t tasks_run = 0;
  double busy_ms = 0;          // sum of task_run durations across threads
  std::uint64_t spawns = 0;
  std::uint64_t injections = 0;
  std::uint64_t overflows = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;
  std::uint64_t joins = 0;       // task_group::wait brackets entered
  std::uint64_t data_waits = 0;  // environment blocked-get brackets entered
  std::uint64_t step_aborts = 0;
  std::uint64_t step_reexecs = 0;   // resumes of parked instances
  std::uint64_t step_requeues = 0;  // non-blocking-get retries
  std::uint64_t defers = 0;         // preschedule-tuner deferrals
  std::uint64_t item_puts = 0;
  std::uint64_t item_gets = 0;
  std::uint64_t get_misses = 0;
  std::uint64_t requests = 0;  // batch-server requests dispatched in-phase
};

/// Fold events (sorted by timestamp, as collect() returns them) into one
/// summary per phase. Events before the first phase_begin fall into an
/// "(untitled)" phase, which is omitted when empty.
std::vector<phase_summary> summarize(const std::vector<event>& events,
                                     const tracer& t);

/// Print one aligned table (support/table_printer) with a row per phase.
/// A nonzero `dropped` (tracer ring-buffer overflow count for the session)
/// appends a footer marking every count above as a floor, not an exact
/// value — a lossy trace silently undercounts otherwise.
void print_summary(std::ostream& os,
                   const std::vector<phase_summary>& phases,
                   std::uint64_t dropped = 0);

}  // namespace rdp::obs
