// context_base — the runtime half of a CnC graph.
//
// A user context derives from rdp::cnc::context<Derived> (CRTP, mirroring
// Intel CnC) and declares its step/item/tag collections as members. The base
// runs on a worker pool the caller owns (shared with fork-join code, other
// contexts or a batch server), counts in-flight step instances, and
// implements wait(): help the pool until the graph quiesces, then either
// return (all steps done) or throw unsatisfied_dependency (steps still
// parked on items nobody produced).
//
// Instance accounting — every step instance is in exactly one state:
//   active    : scheduled in the pool or currently executing
//   suspended : parked on an item-collection waiter list
// put() can only happen from an active step or from the environment thread
// inside wait(), so `active == 0` while the environment is quiescent is a
// stable property: if suspended > 0 at that point the graph is deadlocked.
//
// The context only counts suspended instances; it holds no pointer to them.
// A parked instance is owned by the waiter list it is parked on (see
// step_instance.hpp), so parking and resuming touch two atomic counters and
// one slot lock of the item collection, and no context-wide lock. Item
// collections register with their context when they are built, which is
// how dump_state() finds the parked instances to name, and abandon what is
// still parked on them when they are destroyed.
//
// Only `active` and `suspended` are exact global atomics, because wait()'s
// quiescence test needs them. The statistics counters (executed, aborted,
// items put, gets, ...) are sharded per thread the way obs::counter is: a
// thread bumps its own cache-line-aligned shard, picked by the metrics
// layer's round-robin shard token, and stats() sums the shards. So the
// workers of one graph do not contend on one counter line on every get,
// put and step.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cnc/errors.hpp"
#include "forkjoin/worker_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"

namespace rdp::cnc {

namespace detail {

/// Process-wide registry metrics of the data-flow runtime, resolved once
/// (context.cpp). Distinct from context_base::counters, which are per
/// context: these feed the always-on metrics snapshot in run reports.
struct cnc_metrics_t {
  obs::counter& items_put;
  obs::counter& gets_ok;
  obs::counter& gets_failed;
  obs::counter& tags_put;
  obs::counter& steps_executed;
  obs::counter& steps_requeued;
  obs::gauge& items_live;
  obs::histogram& step_ns;
};
cnc_metrics_t& cnc_metrics();

}  // namespace detail

/// Runtime counters of one context (relaxed atomics; exact when quiescent).
struct context_stats {
  std::uint64_t steps_executed = 0;   // successful executions
  std::uint64_t steps_aborted = 0;    // executions aborted by an unmet get
  std::uint64_t steps_prescribed = 0; // instances created by tag puts
  std::uint64_t items_put = 0;
  std::uint64_t gets_ok = 0;
  std::uint64_t gets_failed = 0;
  std::uint64_t tags_put = 0;
  std::uint64_t preschedule_deferrals = 0;  // tuner: deps not yet all ready
  std::uint64_t steps_requeued = 0;  // non-blocking gets: self-requeues
};

/// What a context needs of its item collections: naming the step instances
/// parked on their waiter lists, for stall dumps.
class item_collection_base {
public:
  /// Append the distinct descriptions of waiters parked on this collection
  /// until `names` holds `limit` entries. Takes the slot locks one at a
  /// time, so it is safe while steps run.
  virtual void describe_parked(std::vector<std::string>& names,
                               std::size_t limit) const = 0;

protected:
  ~item_collection_base() = default;
};

class context_base {
public:
  /// Run on `pool`, which must outlive the context.
  explicit context_base(forkjoin::worker_pool& pool);
  virtual ~context_base();

  context_base(const context_base&) = delete;
  context_base& operator=(const context_base&) = delete;

  forkjoin::worker_pool& pool() noexcept { return pool_; }

  /// Block until every prescribed step instance has finished. Helps the
  /// pool while waiting. Throws unsatisfied_dependency if the graph
  /// quiesces with suspended steps, and rethrows the first step error.
  ///
  /// While waiting, a watchdog (obs/watchdog.hpp) monitors the graph when
  /// either RDP_WATCHDOG_MS is a positive period or set_watchdog() supplied
  /// a config: no growth in items/tags/successful-gets for `stall_periods`
  /// ticks while steps are active or suspended produces a stall dump
  /// (dump_state()) instead of a silent hang.
  void wait();

  /// Programmatic watchdog config for wait() (tests, long-running servers).
  /// Overrides the RDP_WATCHDOG_MS environment default.
  void set_watchdog(obs::watchdog::config cfg) {
    watchdog_cfg_ = std::move(cfg);
  }

  /// Append a human-readable snapshot of the runtime state: context
  /// counters, per-worker pool state and queue depths, the number of
  /// suspended (parked) step instances and the keys of up to eight of them,
  /// read from the item collections' waiter lists. Safe to call
  /// concurrently with running steps; used by the watchdog's stall dump.
  void dump_state(std::string& out) const;

  context_stats stats() const;

  // ---- internal API used by collections and step instances ----
  struct counters {
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> aborted{0};
    std::atomic<std::uint64_t> prescribed{0};
    std::atomic<std::uint64_t> items_put{0};
    std::atomic<std::uint64_t> gets_ok{0};
    std::atomic<std::uint64_t> gets_failed{0};
    std::atomic<std::uint64_t> tags_put{0};
    std::atomic<std::uint64_t> deferrals{0};
    std::atomic<std::uint64_t> requeued{0};
  };
  /// The calling thread's counter shard (bump with relaxed fetch_add).
  counters& metrics() noexcept {
    return shards_[obs::metrics_detail::local_shard()];
  }

  /// State transitions of step instances (see file comment).
  void on_schedule() noexcept {
    active_.fetch_add(1, std::memory_order_acq_rel);
  }
  void on_complete() noexcept {
    active_.fetch_sub(1, std::memory_order_acq_rel);
  }
  void on_suspend() noexcept {
    suspended_.fetch_add(1, std::memory_order_acq_rel);
  }
  void on_resume() noexcept {
    // Order matters for wait()'s quiescence test: make the instance visible
    // as active *before* it stops being suspended, so (active==0 &&
    // suspended==0) can never be observed while a resume is in flight.
    active_.fetch_add(1, std::memory_order_acq_rel);
    suspended_.fetch_sub(1, std::memory_order_acq_rel);
  }
  /// A suspended instance is freed without running (abandoned, or its
  /// preschedule countdown was killed).
  void on_discard() noexcept {
    suspended_.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// Item collections register for dump_state() while they live.
  void attach(const item_collection_base* items);
  void detach(const item_collection_base* items);

  /// Record a user-step exception; the first one is rethrown by wait().
  void record_error(std::exception_ptr e) noexcept;

  /// Whether a step error is recorded and not yet taken. Read lock-free by
  /// the retry path: a graph that already failed stops requeueing steps, so
  /// consumers polling for an item the failed step never put let it quiesce.
  bool failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }

  /// Remove and return the recorded error (nullptr when none). Used by
  /// wait() and by environment-side blocking gets, which prefer surfacing
  /// a real step error over a quiescence diagnostic.
  std::exception_ptr take_error() noexcept;

  /// Schedule a type-erased runnable in the pool as a detached task.
  template <class F>
  void schedule(F&& f) {
    pool_.enqueue(forkjoin::make_task(std::forward<F>(f), nullptr));
  }

  /// Low-priority scheduling through the pool's FIFO injection queue —
  /// used for self-requeued steps (non-blocking get retries) so a retry
  /// cannot starve the producer it waits for (see worker_pool).
  template <class F>
  void schedule_global(F&& f) {
    pool_.enqueue_global(forkjoin::make_task(std::forward<F>(f), nullptr));
  }

  long active_count() const noexcept {
    return active_.load(std::memory_order_acquire);
  }
  long suspended_count() const noexcept {
    return suspended_.load(std::memory_order_acquire);
  }

private:
  forkjoin::worker_pool& pool_;
  std::atomic<long> active_{0};
  std::atomic<long> suspended_{0};
  struct alignas(64) counter_shard : counters {};
  std::array<counter_shard, obs::k_metric_shards> shards_{};

  /// Sum of one counter over the shards (relaxed; exact when quiescent).
  std::uint64_t total(std::atomic<std::uint64_t> counters::*field) const;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  std::atomic<bool> failed_{false};
  std::optional<obs::watchdog::config> watchdog_cfg_;

  // Touched when a collection is built or destroyed and by dump_state(),
  // never on the park/resume path.
  mutable std::mutex collections_mutex_;
  std::vector<const item_collection_base*> item_collections_;
};

/// CRTP convenience mirroring Intel CnC's `CnC::context<Derived>`.
template <class Derived>
class context : public context_base {
public:
  using context_base::context_base;
};

/// Scheduling policy of a step collection ("tuner" in CnC terminology).
enum class schedule_policy {
  /// Native-CnC: spawn the step instance immediately on prescription; an
  /// unmet blocking get aborts it and parks it on the item's waiter list.
  spawn_immediately,
  /// Tuner-CnC: collect the step's declared dependencies first and only
  /// schedule the instance once all of them are available, avoiding
  /// re-executions entirely (the pre-scheduling tuner of §III-D).
  preschedule,
};

}  // namespace rdp::cnc
