// Work-stealing worker pool — the execution substrate for both the fork-join
// runtime (task_group) and the data-flow runtime (rdp::cnc).
//
// Design: one Chase–Lev deque per worker (owner pushes/pops bottom, thieves
// steal top) plus a bounded MPMC injection queue for external submissions.
// Idle workers spin briefly with exponential backoff, then park on a
// condition variable; any enqueue wakes one parked worker.
//
// The caller owns the pool and lends it by reference to every runtime that
// runs on it — a task_group, a CnC context, a prepared graph — the way TBB
// programs share one process-wide scheduler. No runtime starts threads of
// its own, so a caller that keeps its pool pays the start-up once, not once
// per graph.
//
// The pool exposes `try_run_one()` so blocked joins (task_group::wait) and
// blocked data-flow gets can *help* — execute other ready tasks instead of
// idling — which is how fork-join runtimes avoid deadlock on nested waits.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "concurrent/backoff.hpp"
#include "concurrent/chase_lev_deque.hpp"
#include "concurrent/mpmc_queue.hpp"
#include "forkjoin/task.hpp"
#include "forkjoin/task_arena.hpp"

namespace rdp::forkjoin {

/// Per-worker state snapshot, polled by the obs watchdog for stall dumps.
/// Counters are relaxed reads; depths are estimates (exact when quiescent).
struct worker_snapshot {
  unsigned index = 0;
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;
  std::size_t deque_depth = 0;
};

/// Aggregate scheduler counters (relaxed atomics; read when quiescent).
struct pool_stats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_spawned = 0;
  std::uint64_t steals = 0;
  std::uint64_t failed_steal_rounds = 0;
  std::uint64_t injections = 0;
  std::uint64_t parks = 0;
  std::uint64_t overflow_retries = 0;  // backed-off/rerouted full-queue pushes
  /// Task-arena counters (task_arena.hpp). The arena is per-thread, not
  /// per-pool, so this snapshot is PROCESS-wide — in single-pool programs
  /// (every bench and test here) that is the pool's own allocation story.
  arena_stats arena;
};

class worker_pool {
public:
  /// Spawns `worker_count` OS threads (>= 1). `injection_capacity` bounds
  /// the external-submission queue (rounded up to a power of two); the
  /// default matches the historical 1<<16. A full injection queue makes
  /// producers back off and retry — it never runs tasks in their stack
  /// frame (see enqueue()).
  explicit worker_pool(unsigned worker_count,
                       std::size_t injection_capacity = 1u << 16);
  ~worker_pool();

  worker_pool(const worker_pool&) = delete;
  worker_pool& operator=(const worker_pool&) = delete;

  unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Pool the calling thread belongs to, or nullptr for external threads.
  static worker_pool* current() noexcept;
  /// Worker index of the calling thread in its pool, or -1 if external.
  static int current_worker_index() noexcept;

  /// Schedule a task node. Called from worker threads (goes to the local
  /// deque) or external threads (goes to the injection queue; a full queue
  /// blocks the producer with bounded backoff rather than executing the
  /// task inline — inline execution of a retry-style task would recurse
  /// unboundedly).
  void enqueue(task_node* t);

  /// Schedule with LOW priority: always via the FIFO injection queue, even
  /// from a worker thread. Retry-style tasks (e.g. data-flow steps that
  /// requeue themselves after a failed non-blocking get) must use this —
  /// pushing a retry onto the worker's own LIFO deque would pop it straight
  /// back and starve the producer it is waiting for.
  void enqueue_global(task_node* t);

  /// Execute one ready task if any is available. Returns whether a task ran.
  /// Safe to call from worker threads and from external threads.
  bool try_run_one();

  /// Run `f` as a root task and block until it (not its spawns) completes.
  /// Usually `f` creates a task_group and waits on it before returning.
  /// An exception escaping `f` (thrown inline, or a child's error rethrown
  /// by task_group::wait) is rethrown here: the root has no group to carry
  /// it, so it is captured in the root itself and `done` is set regardless.
  template <class F>
  void run(F&& f) {
    std::atomic<bool> done{false};
    std::exception_ptr error;
    auto* t = make_task(
        [fn = std::forward<F>(f), &done, &error]() mutable {
          try {
            fn();
          } catch (...) {
            error = std::current_exception();
          }
          done.store(true, std::memory_order_release);
        },
        nullptr);
    enqueue(t);
    // Help while waiting so a single-thread pool can still make progress
    // when run() is called from a worker (or the pool is saturated).
    concurrent::backoff bo;
    while (!done.load(std::memory_order_acquire)) {
      if (try_run_one())
        bo.reset();
      else
        bo.pause();
    }
    if (error) std::rethrow_exception(error);
  }

  /// Snapshot of the counters (approximate while tasks are in flight).
  pool_stats stats() const;
  void reset_stats();

  /// Fold this pool's scheduler counters into the process-wide metrics
  /// registry (obs/metrics: forkjoin.tasks_spawned etc.) as deltas since
  /// the last publish. The hot paths only touch the pool's own relaxed
  /// counters; reconciliation happens here — called automatically when a
  /// worker parks, from stats(), and at destruction, so the registry is
  /// fresh whenever the pool is quiescent. Benches that snapshot the
  /// registry while the pool is alive call this (or stats()) first.
  void publish_metrics() const;

  // ---- observability gauges (approximate; safe to poll concurrently) ----

  /// Workers currently blocked on the park condition variable.
  unsigned parked_workers() const noexcept {
    return parked_.load(std::memory_order_acquire);
  }

  /// Estimated tasks queued across the injection queue and the worker
  /// deques. Exact only when quiescent; intended for the obs sampler's
  /// queue-depth gauge.
  std::size_t ready_estimate() const;

  /// Estimated depth of the external-submission queue alone.
  std::size_t injection_depth() const { return injection_.size_estimate(); }

  /// Per-worker state for watchdog stall dumps. Safe to call concurrently
  /// with running workers (all fields are relaxed reads or estimates).
  std::vector<worker_snapshot> worker_snapshots() const;

private:
  struct worker;

  void worker_loop(unsigned index);
  task_node* find_task(int self_index);
  void wake_one();
  /// Push into the injection queue, backing off while it is full. The
  /// overflow policy for every enqueue path: never execute in place.
  void push_injection_blocking(task_node* t, bool low_priority,
                               bool trace = true);
  void spawned_hint() {
    spawned_.fetch_add(1, std::memory_order_relaxed);
  }

  static constexpr unsigned k_spin_rounds = 64;

  std::vector<std::unique_ptr<worker>> workers_;
  concurrent::mpmc_queue<task_node*> injection_;
  std::atomic<bool> stop_{false};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<unsigned> parked_{0};
  std::atomic<std::uint64_t> epoch_{0};  // bumped on enqueue to unblock parks
  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> injections_{0};
  std::atomic<std::uint64_t> overflow_retries_{0};
  std::atomic<std::uint64_t> external_executed_{0};
  std::atomic<std::uint64_t> external_steals_{0};

  /// Totals already folded into the metrics registry (publish_metrics).
  /// Mutable: publishing is logically const bookkeeping (stats() publishes).
  struct published_totals {
    std::uint64_t spawned = 0, executed = 0, steals = 0, injections = 0,
                  overflow_retries = 0, parks = 0;
  };
  mutable std::mutex publish_mutex_;
  mutable published_totals published_;
};

}  // namespace rdp::forkjoin
