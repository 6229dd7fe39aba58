// Task-DAG lowerings: the two schedules the paper compares, derived from
// the same dp::recurrence every executor backend runs. These are the DAGs
// the discrete-event simulator (sim/experiment.hpp) prices and the
// work/span analysis (trace::analyze_work_span) measures.
//
//   dataflow_dag — true dependencies only: one base_task node per
//                  enumerate_base() tag, one edge per depends() key some
//                  base task produces. These are the constraints
//                  run_dataflow and prepared_graph enforce.
//   forkjoin_dag — the split() recursion from root() as run_forkjoin
//                  executes it: a stage with one child is inlined, a stage
//                  with more gets a zero-work fork node and join node, and
//                  successive stages run in sequence. Every join edge that
//                  is not also a data dependency is an artificial
//                  dependency in the paper's sense.
//
// Base-task nodes carry rec.base_work(tile, b) — `b` is the tile side to
// price, so a tile-scale spec (n/base tiles of side 1) yields the DAG of
// the (n, base) instance: a spec's tile structure depends only on n/base.
// b == 0 leaves every node's work at 0 (the shape alone, for specs without
// a base_work hook). Abcd specs label nodes with their A/B/C/D kind;
// every other structure labels them D.
#pragma once

#include <cstddef>

#include "dp/spec/spec.hpp"
#include "trace/task_graph.hpp"

namespace rdp::exec {

/// Data-flow DAG of rec. Nodes are numbered in lexicographic (k, i, j) tag
/// order, so pivot rounds come first and ties in the simulator's ready
/// queue break by round. A depends() key no base task produces is an
/// environment seed: dropped for value-passing specs, a contract_error for
/// token specs (the contract prepared_graph::freeze enforces).
trace::task_graph dataflow_dag(const dp::recurrence& rec, std::size_t b = 0);

/// Fork-join DAG of rec: its split() recursion with fork/join nodes.
/// Requires a power-of-two tile count (the 2-way split halves it).
trace::task_graph forkjoin_dag(const dp::recurrence& rec, std::size_t b = 0);

/// GE's parametric r-way fork-join recursion (exec/rway.cpp's stage
/// structure, not split()) over the tiles of `ge`, priced at tile side b.
/// The tile count must be r^L. Used by the r-way ablation.
trace::task_graph build_ge_forkjoin_rway(const dp::recurrence& ge,
                                         std::size_t b, std::size_t r);

}  // namespace rdp::exec
