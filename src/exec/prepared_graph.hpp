// prepared_graph — a recurrence spec's executable graph, built ONCE and
// re-executed per request (the batch server's tentpole substrate).
//
// Every existing backend rediscovers its scheduling metadata on each run:
// run_dataflow re-expands the recursion into tags, re-hashes every item key
// and re-parks steps on waiter lists; even the manual-CnC variant rebuilds
// its collections per run. freeze() does that discovery exactly once —
// the one dependence walk, exec::derive_tile_dag (exec/dag.hpp), whose
// tile_dag the graph keeps — into an immutable CSR dependence DAG over
// base tiles:
//
//   nodes        one per base tag, in enumerate_base() emission order
//   successors_  CSR consumer lists (who to count down when a node retires)
//   dag_         the walk itself: tags, per-tile input value slots in
//                depends() emission order (slot = producer tile index, or a
//                dedicated seed slot for environment-provided items) and
//                the key -> slot lookup of the seed and gather stores
//
// Execution then needs no hash lookups, no tag expansion, no parking: one
// atomic pending counter per node (re-initialised per request from the
// frozen in-degrees) and a request-local value plane that replaces the item
// collection. A pool task runs a chain: when a node retires, the first
// successor it makes ready (in CSR order) runs next on the same thread and
// the others are enqueued as tasks of their own. A chain counts its tiles
// and nodes locally and publishes them once, when it ends. This
// is the "finalize graph, execute every tick" pattern of Kan's workflow
// unit and ccv's static nnc graph runner, and the logical endpoint of the
// paper's Tuner-/Manual-CnC pre-declared dependencies: amortise ALL
// scheduling metadata across millions of executions.
//
// The frozen structure is shared and immutable; per-request state (pending
// counters, value slots, the bound data plane) lives in prepared_execution.
// Any dp::recurrence that is *structurally identical* to the frozen
// exemplar (same name/size/base/value-passing — checked by matches()) can
// be executed over the graph; only its problem data differs.
//
// Bit-exactness: a base tile's inputs are fixed by depends(), and every
// kernel runs through the same recurrence::run_base/run_base_value hooks as
// the other backends, so any topological execution order produces the
// bit-identical table — the same argument that makes the four CnC variants
// interchangeable. The registry's "prepared" rows put this under the
// bit-exactness CI gates.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dp/common.hpp"
#include "dp/spec/spec.hpp"
#include "exec/dag.hpp"
#include "forkjoin/worker_pool.hpp"

namespace rdp::exec {

class prepared_execution;

class prepared_graph {
 public:
  /// Build the frozen graph from a spec: one node per enumerate_base() tag,
  /// edges from depends(). Dependency keys no node produces come from the
  /// environment (seed_values). A spec derive_tile_dag refuses (an
  /// unproduced key in a token spec, a cycle, ...) throws contract_error.
  static prepared_graph freeze(dp::recurrence& rec);

  /// Band-fused freeze (exec/banding.hpp): schedule nodes are chunks of a
  /// dependency band (at most `chunk_parallelism` per band) instead of
  /// single tiles, with band-barrier edges between them, so a request runs
  /// ~|bands|·parallelism coarse tasks instead of one per tile. The value
  /// plane, seed/gather stores and matches() contract are identical to
  /// freeze() — only the scheduling granularity changes.
  static prepared_graph freeze_batched(dp::recurrence& rec,
                                       std::uint32_t chunk_parallelism);

  prepared_graph(prepared_graph&&) = default;
  prepared_graph& operator=(prepared_graph&&) = default;

  const std::string& spec_name() const noexcept { return name_; }
  std::size_t size() const noexcept { return n_; }
  std::size_t base() const noexcept { return base_; }
  bool value_passing() const noexcept { return value_passing_; }

  /// Schedule nodes (== tile_count() for freeze(); band chunks for
  /// freeze_batched()).
  std::size_t node_count() const noexcept { return nodes_.size(); }
  /// Base tiles the graph computes (kernel invocations per execution).
  std::size_t tile_count() const noexcept { return dag_.tags.size(); }
  std::size_t edge_count() const noexcept { return successors_.size(); }
  /// Nodes with no in-graph dependencies (ready immediately).
  std::size_t root_count() const noexcept { return roots_.size(); }
  /// Environment-seeded input slots (value-passing specs; 0 otherwise).
  std::size_t seed_slot_count() const noexcept {
    return dag_.seed_slot.size();
  }

  /// Whether `rec` can execute over this graph: same spec structure (name,
  /// problem size, base grain, value-passing-ness). The data plane — the
  /// table/sequences behind the spec — is deliberately not part of this.
  bool matches(const dp::recurrence& rec) const noexcept;

  /// Synchronous convenience: run `rec` over the frozen graph on `pool`,
  /// helping the pool until done. Throws what the kernels threw.
  void execute(dp::recurrence& rec, forkjoin::worker_pool& pool) const;

 private:
  friend class prepared_execution;

  /// One schedule node: the contiguous run of tile indices it executes
  /// (via members_) and its place in the node-level dependence CSR.
  struct node {
    std::uint32_t member_begin = 0, member_end = 0;  // into members_
    std::uint32_t succ_begin = 0, succ_end = 0;      // into successors_
    std::uint32_t initial_pending = 0;               // frozen in-degree
  };

  /// Shared by both freezes: walk `rec` into dag_ and copy its identity.
  explicit prepared_graph(const dp::recurrence& rec);

  std::string name_;
  std::size_t n_ = 0, base_ = 0;
  bool value_passing_ = false;
  /// The walked spec. A tile's index is also its output slot in the
  /// per-request value plane; seed slots follow the tiles.
  tile_dag dag_;
  std::vector<std::uint32_t> members_;  // tile indices grouped by node
  std::vector<node> nodes_;
  std::vector<std::uint32_t> successors_;
  std::vector<std::uint32_t> roots_;
};

/// One request's execution of a prepared graph: owns the per-request data
/// plane (pending counters + value slots), binds a structurally-matching
/// recurrence, and runs the DAG as detached pool tasks. Asynchronous —
/// start() returns immediately; completion is observable via done(), a
/// completion callback, or the blocking wait().
///
/// Lifetime: must outlive its tasks; destroying before done() is a bug the
/// destructor asserts against. The on_complete callback runs on whichever
/// worker retires the last node, AFTER the epilogue (value gather, error
/// capture) — when it fires, the bound recurrence's table holds the result.
class prepared_execution {
 public:
  /// Binds `rec` (must satisfy graph.matches(rec)) but runs nothing yet.
  prepared_execution(const prepared_graph& graph, dp::recurrence& rec,
                     forkjoin::worker_pool& pool);
  ~prepared_execution();

  prepared_execution(const prepared_execution&) = delete;
  prepared_execution& operator=(const prepared_execution&) = delete;

  /// Completion hook (optional; set before start()). Runs exactly once, on
  /// the finishing worker. The callback may not destroy this object (the
  /// owner retires it after observing done() — see batch_server).
  void set_on_complete(std::function<void()> fn);

  /// Seed environment values and enqueue every root. Call at most once.
  void start();

  bool done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

  /// Help the pool until done, then rethrow the first kernel error (if
  /// any). Safe from the environment thread only.
  void wait();

  /// First error thrown by a kernel (null when none). Valid after done().
  std::exception_ptr error() const noexcept;

  /// Base tiles whose kernel actually ran (== tile_count() on success;
  /// fewer when an error short-circuited the tail). Counted per tile, not
  /// per schedule node, so the number is comparable across freeze() and
  /// freeze_batched() graphs. Valid after done().
  std::uint64_t nodes_executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  struct seed_store;
  struct gather_store;

  static constexpr std::uint32_t k_no_node = ~std::uint32_t{0};

  /// Runs the chain that starts at idx, then publishes its counters and,
  /// when it retires the last node, completes the execution.
  void run_node(std::uint32_t idx) noexcept;
  /// Counts down idx's successors, enqueues all that become ready but one,
  /// and returns that one (k_no_node when none became ready).
  std::uint32_t retire(std::uint32_t idx) noexcept;

  const prepared_graph& graph_;
  dp::recurrence& rec_;
  forkjoin::worker_pool& pool_;
  std::function<void()> on_complete_;

  /// Per-request pending counters, indexed like graph_.nodes_.
  std::unique_ptr<std::atomic<std::uint32_t>[]> pending_;
  /// Per-request value plane (value-passing specs): node outputs first,
  /// then the seed slots. Distinct slots are written by distinct tasks;
  /// the pending-counter release/acquire pair orders writer before reader.
  std::vector<dp::tile_value> values_;

  std::atomic<std::uint64_t> remaining_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<bool> failed_{false};
  std::atomic<bool> done_{false};
  bool started_ = false;
  mutable std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace rdp::exec
