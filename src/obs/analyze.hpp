// Post-mortem trace analysis: the measuring half of rdp::obs.
//
// The paper's analytical model predicts work T1, span T-inf and the cache
// complexity of each DP; this module extracts the *measured* counterparts
// from an execution trace. Given the events of one tracing session it
//
//   1. reconstructs the executed task DAG — task runs become chains of
//      *segments* split at every spawn / join-end / put / get, connected by
//      sequential, spawn, join and data edges — and reports measured work
//      (sum of segment weights), measured span (weight of the heaviest
//      path, via a topological longest-path pass) and their ratio, the
//      achieved parallelism;
//   2. attributes every worker's non-busy time to one of three causes:
//        join-wait  — inside a task_group::wait bracket and not executing a
//                     helper task: the fork-join model's artificial join
//                     dependencies (paper fact F1) made the worker stall;
//        data-wait  — inside a blocking-get / context-quiescence bracket:
//                     a true data dependency was unsatisfied;
//        other      — neither bracket open: the worker found no work to
//                     steal (or was parked). Scheduling starvation.
//
// The two views are complementary: span says how much parallelism the
// executed DAG *permits*, idle attribution says what the scheduler *did*
// with the slack. Comparing fork-join and CnC phases of the same DP run
// quantifies facts F1–F3 on real executions instead of on the recurrences.
//
// Traces can be analyzed in-process (events straight from tracer::collect)
// or post mortem from a *raw trace file* — a lossless line format (unlike
// the Chrome JSON export, which drops event arguments to keep files small)
// written by write_raw_trace and consumed by the bench/trace_analyze CLI.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace_event.hpp"

namespace rdp::obs {

class tracer;

// ---------------------------------------------------------------------------
// Raw trace container and IO
// ---------------------------------------------------------------------------

/// A trace decoupled from the live tracer: events plus the two string
/// tables needed to interpret them.
struct raw_trace {
  std::vector<event> events;               // sorted by ts_ns
  std::vector<std::string> names;          // index == interned name id
  std::vector<std::string> thread_labels;  // index == tid; may be shorter

  std::string name(std::uint16_t id) const {
    return id < names.size() ? names[id] : std::string();
  }
  std::string thread_label(std::int32_t tid) const {
    return tid >= 0 && static_cast<std::size_t>(tid) < thread_labels.size()
               ? thread_labels[tid]
               : std::string();
  }
};

/// Write the lossless line format ("rdp-trace 2"): every event with all
/// arguments, plus the interned names and thread labels it references.
void write_raw_trace(std::ostream& os, const std::vector<event>& events,
                     const tracer& t);
bool write_raw_trace_file(const std::string& path,
                          const std::vector<event>& events, const tracer& t);

/// Parse a raw trace. Throws std::runtime_error with a line number on
/// malformed input. Events are re-sorted by timestamp on load.
raw_trace read_raw_trace(std::istream& is);
raw_trace read_raw_trace_file(const std::string& path);

// ---------------------------------------------------------------------------
// Analysis results
// ---------------------------------------------------------------------------

/// Per-thread time accounting inside one phase. The four buckets sum to
/// the thread's share of the phase wall time (up to clock jitter).
struct thread_breakdown {
  std::int32_t tid = -1;
  std::string label;
  double busy_ms = 0;       // inside a task run (innermost frame)
  double join_wait_ms = 0;  // join bracket open, no nested task running
  double data_wait_ms = 0;  // data-wait bracket open, no nested task running
  double other_idle_ms = 0; // no bracket: steal failure / parked / not born
};

/// Everything the analyzer derives for one phase (one phase_begin marker,
/// or the implicit untitled phase before the first marker).
struct phase_metrics {
  std::string phase;
  double wall_ms = 0;       // first event to last event of the phase
  unsigned threads = 0;     // participating threads (ran / waited / parked)

  std::uint64_t tasks = 0;          // completed task runs
  std::uint64_t aborted_tasks = 0;  // runs ending in a step abort (rolled
  double aborted_ms = 0;            //  back; excluded from work and span)

  double work_ms = 0;  // measured T1: total busy time in completed runs
  double span_ms = 0;  // measured T-inf: heaviest path through the DAG
  double parallelism() const {
    return span_ms > 0 ? work_ms / span_ms : 0;
  }

  // Aggregated thread-time accounting (sums over per_thread).
  double busy_ms = 0;
  double join_wait_ms = 0;
  double data_wait_ms = 0;
  double other_idle_ms = 0;
  double idle_ms() const { return join_wait_ms + data_wait_ms + other_idle_ms; }

  // DAG shape.
  std::uint64_t spawn_edges = 0;  // parent segment -> spawned child
  std::uint64_t join_edges = 0;   // child's last segment -> post-join segment
  std::uint64_t data_edges = 0;   // producing put segment -> consuming get
  std::uint64_t steals = 0;

  // CnC abort/re-execute cost: aborts matched to their resume, and the
  // total time the aborted instances sat parked.
  std::uint64_t suspensions = 0;
  double suspend_latency_ms = 0;

  // Events the reconstruction could not pair (end without begin, resume
  // without abort, ...). Nonzero means the trace was truncated (dropped
  // events) or a phase marker split an active region; metrics are then
  // best-effort.
  std::uint64_t unmatched = 0;

  std::vector<thread_breakdown> per_thread;  // sorted by tid
};

/// Reconstruct the DAG and attribute idle time. `name_of` resolves
/// interned name ids (tracer::name or raw_trace::name); `label_of` may be
/// null. Events must be time-sorted (collect() and read_raw_trace both
/// guarantee that).
std::vector<phase_metrics> analyze_trace(
    const std::vector<event>& events,
    const std::function<std::string(std::uint16_t)>& name_of,
    const std::function<std::string(std::int32_t)>& label_of = nullptr);

std::vector<phase_metrics> analyze_trace(const raw_trace& rt);

/// Terminal table: one row per phase; with `per_thread`, an indented
/// breakdown row per participating worker.
void print_metrics(std::ostream& os, const std::vector<phase_metrics>& phases,
                   bool per_thread = false);

/// CSV with one row per phase (schema documented in EXPERIMENTS.md).
void write_metrics_csv(std::ostream& os,
                       const std::vector<phase_metrics>& phases);

}  // namespace rdp::obs
