// Runtime variant registry: every (benchmark × executor backend × mode)
// combination the repo can run, as data.
//
// The registry enumerates the pairs once — (benchmark, backend[:mode]) →
// runner — so consumers iterate it (equivalence tests, smoke benches) or
// resolve one entry from a CLI `--impl=backend[:mode]` string. Together
// with the recurrence specs (dp/spec/specs.hpp) it is the one way to run a
// DP: every real row checks its own supports(n, base), builds the
// benchmark's spec and makes one src/exec backend call. A shape a row does
// not support raises contract_error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dp/spec/spec.hpp"  // cnc_run_info
#include "dp/sw.hpp"  // sw_params
#include "support/matrix.hpp"

namespace rdp::forkjoin {
class worker_pool;
}

namespace rdp::sim {
enum class exec_variant;
struct machine_profile;
}  // namespace rdp::sim

namespace rdp::dp {

enum class benchmark_id : std::uint8_t { ge, sw, fw, lcs, paren };
enum class backend_kind : std::uint8_t {
  serial,    ///< depth-first 2-way recursion on one thread
  forkjoin,  ///< 2-way recursion with task_group stages
  tiled,     ///< blocked rounds / tile wavefronts with barriers: the
             ///< r-way recursion at r = n/base
  dataflow,  ///< CnC graph (modes: native, tuner, manual, nonblocking)
  rway,      ///< parametric r-way recursion (modes: r2, r4)
  prepared,  ///< frozen dependence DAG (exec::prepared_graph) built once
             ///< per run here; the batch server amortises the freeze
             ///< across requests
  sim,       ///< discrete-event simulated schedule (modes: cnc, tuner,
             ///< manual, omp); the table itself is computed by the serial
             ///< reference so outputs stay bit-identical
};

const char* to_string(benchmark_id b) noexcept;
const char* to_string(backend_kind b) noexcept;

/// Non-owning reference to one benchmark's problem data. GE/FW use `table`;
/// SW/LCS use `sw_table` + the sequences (SW also the scoring params);
/// Paren uses `table` (the cost triangle) + `dims` (the n+1 chain
/// dimensions).
struct problem_ref {
  benchmark_id bm;
  matrix<double>* table = nullptr;
  matrix<std::int32_t>* sw_table = nullptr;
  std::string_view a, b;
  const sw_params* params = nullptr;
  const std::vector<double>* dims = nullptr;
};

problem_ref ge_problem(matrix<double>& m);
problem_ref fw_problem(matrix<double>& m);
problem_ref sw_problem(matrix<std::int32_t>& s, std::string_view a,
                       std::string_view b, const sw_params& p);
problem_ref lcs_problem(matrix<std::int32_t>& s, std::string_view a,
                        std::string_view b);
problem_ref paren_problem(matrix<double>& c, const std::vector<double>& dims);

/// Problem size n of a reference (table side / sequence length).
std::size_t problem_size(const problem_ref& p);

struct run_options {
  std::size_t base = 64;
  /// Size of the transient pool a parallel row starts when `pool` is null.
  unsigned workers = 4;
  /// Pool every parallel backend runs on; when null each run owns a
  /// transient pool of `workers` threads.
  forkjoin::worker_pool* pool = nullptr;
  /// Machine profile for sim:* rows; when null they price the schedule on
  /// sim::epyc64(). Ignored by every real backend.
  const sim::machine_profile* sim_machine = nullptr;
};

struct run_outcome {
  /// True when `info` carries data-flow run counters.
  bool used_dataflow = false;
  cnc_run_info info{};
  /// True for sim:* rows: the table was filled by the serial reference
  /// (simulation never changes outputs) and the fields below carry the
  /// discrete-event prediction for the requested variant.
  bool simulated = false;
  double sim_seconds = 0;       ///< predicted wall-clock
  double sim_utilization = 0;   ///< busy / (cores × makespan)
  std::uint64_t sim_base_tasks = 0;
};

/// One runnable registry entry.
struct variant {
  benchmark_id bm;
  backend_kind backend;
  std::string_view mode;   ///< "" for modeless backends
  std::string_view label;  ///< "serial", "dataflow:tuner", "rway:r2", ...
  /// Whether (n, base) satisfies this backend's preconditions; run()
  /// throws contract_error when it does not.
  bool (*supports)(std::size_t n, std::size_t base);
  run_outcome (*run)(const variant& self, const problem_ref& p,
                     const run_options& opts);
};

/// All 67 registered variants: the paper's three benchmarks get 15
/// backend[:mode] entries each (11 real + 4 sim:* series); the
/// variable-arity benchmarks (LCS, Paren) get the 11 real entries — the
/// simulator's cost model only covers the paper's figures.
/// Debug builds cross-check every spec with dp::verify_spec on a small
/// instance the first time this is called (see registry.cpp).
const std::vector<variant>& registry();

/// The registry rows of one benchmark, in registration order.
std::vector<const variant*> variants_for(benchmark_id bm);

/// Resolve "backend[:mode]" (e.g. "forkjoin", "dataflow:tuner") for a
/// benchmark; nullptr when unknown.
const variant* find_variant(benchmark_id bm, std::string_view impl);

/// Comma-separated list of every backend[:mode] label (for --help text and
/// docs — always in sync with the registry).
std::string impl_help();

/// Display name of a variant for obs/trace phase labels. Data-flow rows
/// keep the paper's series names ("CnC", "CnC_tuner", ...); sim rows get
/// "sim:" + the simulator's series name; every other backend is labelled
/// by its registry label.
std::string trace_phase_label(const variant& v);

/// Map a sim:* row's mode string ("cnc", "tuner", "manual", "omp") onto
/// the simulator's execution variant. Throws contract_error otherwise.
sim::exec_variant sim_mode_to_exec(std::string_view mode);

/// Tile-scale spec of a benchmark: `tiles` tiles of side 1 over dummy
/// problem data the returned pointer owns. A spec's tile structure depends
/// only on n/base, so the DAGs derived from it (exec/dag.hpp) are those of
/// every (n, base) instance with n/base == tiles — which is how the figure
/// sweeps price n up to 16K without allocating the table. Its kernels run
/// on the dummy data; only the shape hooks are meant to be used.
std::shared_ptr<recurrence> make_tile_scale_spec(benchmark_id bm,
                                                 std::size_t tiles);

}  // namespace rdp::dp
