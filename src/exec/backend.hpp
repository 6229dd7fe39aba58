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
//   run_tiled     — the classic blocked round/wavefront schedule (no
//                   recursion; barrier per phase).
//   run_rway      — the parametric r-way recursion (r = 2 recovers the
//                   2-way shape with a stage structure equivalent to
//                   run_serial/run_forkjoin; r = n/base degenerates to
//                   run_tiled).
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

/// Depth-first serial execution of the recursion.
void run_serial(dp::recurrence& rec);

/// Fork-join execution: stages with one child run inline, stages with more
/// spawn all children and wait (the artificial barrier of §III-B).
void run_forkjoin(dp::recurrence& rec, forkjoin::worker_pool& pool);

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

/// Blocked loop schedule: abcd structures run per-pivot rounds of
/// {A; B band ∥ C band; D sweep} with a barrier per phase; wavefront
/// structures run 2T-1 anti-diagonal waves with a barrier per wave.
/// Requires base() to divide size() (no power-of-two constraint).
void run_tiled(dp::recurrence& rec, forkjoin::worker_pool& pool);

/// Parametric r-way recursion (serial when pool is null). Requires
/// size() == base() * r^L.
void run_rway(dp::recurrence& rec, std::size_t r,
              forkjoin::worker_pool* pool);

}  // namespace rdp::exec
