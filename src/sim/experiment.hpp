// Experiment engine: recurrence spec × variant × base × machine -> seconds.
//
// This is the engine behind every figure bench (Figures 4-9): it derives
// the variant's task DAG from the spec (exec/dag.hpp — fork-join with
// joins, or data-flow with true dependencies), prices each node with the
// machine's cost model plus the variant's runtime overheads, and runs the
// greedy DES. The "Estimated" series of Figures 4-5 instead comes from the
// closed-form analytical model (rdp::model), exactly as in the paper.
#pragma once

#include <cstddef>
#include <string>

#include "dp/spec/spec.hpp"
#include "sim/des.hpp"
#include "sim/machine.hpp"

namespace rdp::sim {

enum class benchmark { ge, sw, fw };

constexpr const char* to_string(benchmark b) {
  switch (b) {
    case benchmark::ge: return "GE";
    case benchmark::sw: return "SW";
    case benchmark::fw: return "FW-APSP";
  }
  return "?";
}

struct variant_result {
  double seconds = 0;       // predicted wall-clock
  double utilization = 0;   // busy / (cores * makespan)
  std::uint64_t base_tasks = 0;
};

/// Simulate one variant of rec's schedule with every base task priced at
/// tile side `base`. rec may be the (n, base) spec itself or its
/// tile-scale stand-in (dp::make_tile_scale_spec: n/base tiles of side 1) —
/// the DAG depends only on the tile count, which must be a power of two,
/// as must `base`. The per-task data cost follows rec.structure():
/// wavefront tiles stream, every other structure is priced as a 3-block
/// double kernel.
variant_result simulate_variant(const dp::recurrence& rec,
                                exec_variant variant, std::size_t base,
                                const machine_profile& machine);

/// The analytical "Estimated" series (GE and FW only, as in the paper).
double estimated_seconds(benchmark bm, std::size_t n, std::size_t base,
                         const machine_profile& machine);

}  // namespace rdp::sim
