#include "sim/experiment.hpp"

#include <algorithm>

#include "exec/dag.hpp"
#include "support/assertions.hpp"
#include "support/math_utils.hpp"

namespace rdp::sim {

namespace {

constexpr std::uint64_t k_line_doubles = 8;   // 64B lines of f64
constexpr std::uint64_t k_line_int32 = 16;    // 64B lines of i32

/// Per-task data-movement seconds for a 3-block double kernel (GE/FW).
double block_task_data_cost(std::uint64_t m, const model::model_machine& mm) {
  double cost = 0;
  std::uint64_t last = 0;
  for (const auto& lvl : mm.levels) {
    last = model::predicted_task_misses(m, k_line_doubles,
                                        lvl.capacity_lines);
    cost += static_cast<double>(last) * lvl.miss_penalty_s;
  }
  cost += static_cast<double>(last) * mm.memory_penalty_s;
  return cost;
}

/// SW tiles stream each cell O(1) times: compulsory misses at every level.
double sw_task_data_cost(std::uint64_t m, const model::model_machine& mm) {
  const auto lines =
      static_cast<double>(m * ceil_div(m, k_line_int32) +
                          2 * ceil_div(m, k_line_int32) + m);
  double cost = 0;
  for (const auto& lvl : mm.levels) cost += lines * lvl.miss_penalty_s;
  cost += lines * mm.memory_penalty_s;
  return cost;
}

struct duration_model {
  exec_variant variant;
  const machine_profile* machine;
  double data_cost;  // per base task, before locality discount

  double operator()(const trace::task_node& node) const {
    const runtime_costs& rc = machine->costs;
    switch (node.type) {
      case trace::node_type::fork:
        return rc.fj_spawn * 0.25;  // spawn bookkeeping of the batch
      case trace::node_type::join:
        return rc.fj_join;  // taskwait bookkeeping
      case trace::node_type::source:
      case trace::node_type::sink:
        return 0;
      case trace::node_type::base_task:
        break;
    }
    const double compute =
        static_cast<double>(node.work) * machine->model.flop_time_s;
    double overhead = 0;
    double reuse = 0;
    const auto deps = static_cast<double>(node.predecessor_count);
    switch (variant) {
      case exec_variant::omp_tasking:
        overhead = rc.fj_spawn;
        reuse = rc.fj_locality_reuse;
        break;
      case exec_variant::cnc_native:
        overhead = rc.df_tag + rc.df_put + deps * rc.df_get +
                   0.5 * deps * rc.df_abort_penalty;
        reuse = rc.df_locality_reuse;
        break;
      case exec_variant::cnc_tuner:
        overhead = rc.df_tag + rc.df_put + deps * rc.df_get;
        reuse = rc.df_locality_reuse;
        break;
      case exec_variant::cnc_manual:
        overhead = rc.df_put + deps * rc.df_get;  // tags pre-declared
        reuse = rc.df_locality_reuse;
        break;
    }
    return compute + data_cost * (1.0 - reuse) + overhead;
  }
};

}  // namespace

variant_result simulate_variant(const dp::recurrence& rec,
                                exec_variant variant, std::size_t base,
                                const machine_profile& machine) {
  RDP_REQUIRE_MSG(is_pow2(rec.size() / rec.base()) && is_pow2(base),
                  "tile count and base must be powers of two");
  const trace::task_graph g = variant == exec_variant::omp_tasking
                                  ? exec::forkjoin_dag(rec, base)
                                  : exec::dataflow_dag(rec, base);

  duration_model dm;
  dm.variant = variant;
  dm.machine = &machine;
  dm.data_cost = rec.structure() == dp::structure_kind::wavefront
                     ? sw_task_data_cost(base, machine.model)
                     : block_task_data_cost(base, machine.model);

  const sim_result r = simulate(g, machine.cores, dm);

  variant_result out;
  out.seconds = r.makespan;
  out.utilization = r.utilization();
  out.base_tasks = g.base_task_count();
  if (variant == exec_variant::cnc_manual) {
    // Serial pre-declaration of every base tag before execution starts
    // (the overhead the paper blames for Manual-CnC's blow-up at small
    // base sizes).
    out.seconds +=
        static_cast<double>(out.base_tasks) * machine.costs.df_predecl;
  }
  return out;
}

double estimated_seconds(benchmark bm, std::size_t n, std::size_t base,
                         const machine_profile& machine) {
  switch (bm) {
    case benchmark::ge:
      return model::estimate_ge_time(n, base, machine.model);
    case benchmark::fw:
      return model::estimate_fw_time(n, base, machine.model);
    case benchmark::sw:
      RDP_REQUIRE_MSG(false,
                      "the paper's analytical model covers GE and FW only");
  }
  return 0;
}

}  // namespace rdp::sim
