// Task-DAG builders: one per (benchmark × execution model).
//
// Data-flow builders emit exactly the dependency structure the data-flow
// backend enforces through item collections (the specs' depends() in
// dp/spec/*_spec.cpp, run by exec/dataflow.cpp). Fork-join builders
// symbolically execute the recursive split (exec/recursive.cpp over the
// same specs) and record the series-parallel spawn/taskwait structure
// with zero-work fork/join nodes — every join edge that is not also a
// data dependency is an artificial dependency in the paper's sense.
#pragma once

#include <cstdint>

#include "dp/common.hpp"
#include "trace/task_graph.hpp"

namespace rdp::trace {

/// Exact update (assignment) counts of one base-case tile task.
std::uint64_t ge_task_work(dp::task_kind kind, std::uint64_t b);
std::uint64_t fw_task_work(dp::task_kind kind, std::uint64_t b);
std::uint64_t sw_task_work(std::uint64_t b);

/// GE: base tasks (I,J,K) with K <= min(I,J); true dependencies only.
task_graph build_ge_dataflow(std::size_t tiles, std::size_t base);
/// GE: the Listing-3 recursion (A; {B ∥ C}; D; A) with joins.
task_graph build_ge_forkjoin(std::size_t tiles, std::size_t base);

/// FW: all T^3 base tasks; blocked-FW round dependencies.
task_graph build_fw_dataflow(std::size_t tiles, std::size_t base);
/// FW: the 8-call Chowdhury-Ramachandran recursion with joins.
task_graph build_fw_forkjoin(std::size_t tiles, std::size_t base);

/// SW: T^2 tiles; wavefront (west/north/north-west) dependencies.
task_graph build_sw_dataflow(std::size_t tiles, std::size_t base);
/// SW: R00; {R01 ∥ R10}; R11 recursion with joins.
task_graph build_sw_forkjoin(std::size_t tiles, std::size_t base);

/// GE: parametric r-way fork-join recursion (exec/rway.cpp) — wider stages,
/// fewer joins per level. `tiles` must be r^L. Used by the r-way ablation.
task_graph build_ge_forkjoin_rway(std::size_t tiles, std::size_t base,
                                  std::size_t r);

}  // namespace rdp::trace
