// Executor backends: the execution-model lowerings of the paper, each
// consuming any dp::recurrence spec.
//
//   run_serial    — depth-first recursion on the calling thread.
//   run_forkjoin  — the recursion with every multi-child stage forked under
//                   a task_group and joined (the OpenMP-style schedule of
//                   Listing 3, joins and all).
//   run_dataflow  — a CnC graph generated from the spec: one step/tag/item
//                   collection trio, recursive tag expansion from split(),
//                   base-step gets from depends(), get-count GC from
//                   consumer_count(), manual pre-declaration from
//                   enumerate_base(). All four cnc_variant modes.
//
// run_serial and run_forkjoin walk the spec's one split rule
// (recurrence::split) at a branching factor r: r = 2 is the classic 2-way
// recursion, wider r the parametric r-way recursion of §I-A (the rway:r2/r4
// registry rows), and r = n/base the blocked loop schedule — one level of
// per-round A; {B ∥ C}; {D}, one barrier per anti-diagonal or per diagonal
// (the tiled registry row).
//
// The same specs also lower to the task DAGs the simulator prices and the
// work/span analysis measures (exec/dag.hpp: dataflow_dag, forkjoin_dag) —
// the schedules run_dataflow and run_forkjoin execute, as graphs.
//
// Every backend routes base cases through recurrence::run_base (and thus
// the dp/kernels.hpp dispatch) and preserves the exact per-variant
// floating-point evaluation order of the hand-written implementations this
// layer replaced — outputs are bit-identical.
#pragma once

#include <cstddef>

#include "dp/spec/spec.hpp"
#include "forkjoin/worker_pool.hpp"

namespace rdp::exec {

/// Depth-first serial execution of the r-way recursion. Requires r to split
/// size() down to base() exactly (size() == base() * r^L,
/// dp::splits_evenly); throws contract_error before running any kernel
/// otherwise.
void run_serial(dp::recurrence& rec, std::size_t r = 2);

/// Fork-join execution of the r-way recursion: stages with one child run
/// inline, stages with more spawn all children and wait (the artificial
/// barrier of §III-B). The same precondition as run_serial.
void run_forkjoin(dp::recurrence& rec, forkjoin::worker_pool& pool,
                  std::size_t r = 2);

struct dataflow_options {
  dp::cnc_variant variant = dp::cnc_variant::native;
  /// The pool the context runs on (required; shared with other contexts,
  /// fork-join runs or a batch server).
  forkjoin::worker_pool* pool = nullptr;
};

/// Data-flow execution on the CnC runtime, on the caller's opts.pool.
/// Throws contract_error when opts.pool is null.
dp::cnc_run_info run_dataflow(dp::recurrence& rec,
                              const dataflow_options& opts);

}  // namespace rdp::exec
