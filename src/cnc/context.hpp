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
//   active    : scheduled in the pool, waiting in a thread's inline-resume
//               slot, or currently executing
//   suspended : parked on an item-collection waiter list
// put() can only happen from an active step or from the environment thread
// inside wait(), so `active == 0` while the environment is quiescent is a
// stable property: if suspended > 0 at that point the graph is deadlocked.
//
// No counter of the context is a global atomic. Every counter lives in a
// per-thread shard: a thread bumps its own cache-line-aligned shard, picked
// by the metrics layer's round-robin shard token, so the workers of one
// graph never contend on one line on a schedule, park, resume, get, put or
// step. Occupancy is four monotone transition counts per shard — scheduled,
// completed, suspended, released (resumed or discarded) — so
//   active    = scheduled - completed
//   suspended = suspended - released
// summed over the shards. One pass over the shards that sees an active
// instance proves the graph busy. Quiescence (or deadlock) is declared only
// after two consecutive passes read identical values: the counts only ever
// grow, so equal passes mean nothing moved between them, and the values are
// the state at one instant (a double collect). A resume counts its schedule
// before its release, so no instant shows a resumed instance in neither
// state.
//
// The context only counts suspended instances; it holds no pointer to them.
// A parked instance is owned by the waiter list it is parked on (see
// step_instance.hpp), so parking and resuming touch the caller's shard and
// one slot lock of the item collection, and no context-wide lock. Item
// collections register with their context when they are built, which is
// how dump_state() finds the parked instances to name, and abandon what is
// still parked on them when they are destroyed.
//
// The process-wide cnc.* registry metrics (items put, gets, tags, executed
// and requeued steps, live items) are not bumped per event: the context
// folds its shard totals into the registry as deltas at quiescence — at the
// end of wait() and when the context is destroyed, which also covers the
// environment's gets after wait().
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
/// context: these feed the always-on metrics snapshot in run reports. The
/// counters and the gauge are folded in from the context's shards at
/// quiescence (context_base::publish_metrics); only the sampled step
/// histogram is recorded per event.
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
  /// Executions (of any outcome) run inline on the thread whose put
  /// resumed the parked instance, instead of as a pool task.
  std::uint64_t steps_continued = 0;
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
    // Step-instance transitions (monotone; see file comment).
    std::atomic<std::uint64_t> scheduled{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> suspended{0};
    std::atomic<std::uint64_t> released{0};  // resumed or discarded
    // Statistics.
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> aborted{0};
    std::atomic<std::uint64_t> prescribed{0};
    std::atomic<std::uint64_t> items_put{0};
    std::atomic<std::uint64_t> gets_ok{0};
    std::atomic<std::uint64_t> gets_failed{0};
    std::atomic<std::uint64_t> tags_put{0};
    std::atomic<std::uint64_t> deferrals{0};
    std::atomic<std::uint64_t> requeued{0};
    std::atomic<std::uint64_t> continued{0};
    std::atomic<std::uint64_t> collected{0};  // items freed by get-count GC
  };
  /// The calling thread's counter shard (bump with relaxed fetch_add).
  counters& metrics() noexcept {
    return shards_[obs::metrics_detail::local_shard()];
  }

  /// State transitions of step instances (see file comment). Sequentially
  /// consistent, so the double collect in quiescent() reads an instant.
  void on_schedule() noexcept { bump(&counters::scheduled); }
  void on_complete() noexcept { bump(&counters::completed); }
  void on_suspend() noexcept { bump(&counters::suspended); }
  void on_resume() noexcept {
    // Schedule before release: the instance is never counted in neither
    // state, so an instant with active == 0 and suspended == 0 can never
    // fall inside a resume.
    counters& c = metrics();
    c.scheduled.fetch_add(1, std::memory_order_seq_cst);
    c.released.fetch_add(1, std::memory_order_seq_cst);
  }
  /// A suspended instance is freed without running (abandoned, or its
  /// preschedule countdown was killed).
  void on_discard() noexcept { bump(&counters::released); }

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

  /// Instances active (scheduled, waiting to continue inline, or running)
  /// and suspended, from one pass over the shards: exact when quiescent,
  /// an estimate while steps run.
  long active_count() const noexcept { return occupancy().active(); }
  long suspended_count() const noexcept { return occupancy().parked(); }

  /// True when two consecutive passes over the shards read identical
  /// counts with no active instance: the graph is quiescent, and `parked`
  /// receives the number of suspended instances (> 0: deadlocked).
  bool quiescent(long& parked) const noexcept;

private:
  /// The transition counts summed over the shards.
  struct occupancy_totals {
    std::uint64_t scheduled = 0, completed = 0, suspended = 0, released = 0;
    long active() const noexcept {
      return static_cast<long>(scheduled - completed);
    }
    long parked() const noexcept {
      return static_cast<long>(suspended - released);
    }
    bool operator==(const occupancy_totals&) const = default;
  };
  occupancy_totals occupancy() const noexcept;

  void bump(std::atomic<std::uint64_t> counters::*field) noexcept {
    (metrics().*field).fetch_add(1, std::memory_order_seq_cst);
  }

  /// Fold the shard totals of the cnc.* registry metrics into the registry
  /// as deltas since the last publish (DESIGN §12). Called by the
  /// environment thread at the end of wait() and on destruction.
  void publish_metrics() noexcept;

  forkjoin::worker_pool& pool_;
  struct alignas(64) counter_shard : counters {};
  std::array<counter_shard, obs::k_metric_shards> shards_{};

  /// Sum of one counter over the shards (relaxed; exact when quiescent).
  std::uint64_t total(std::atomic<std::uint64_t> counters::*field) const;

  /// Totals already folded into the registry (publish_metrics).
  struct published_totals {
    std::uint64_t items_put = 0, gets_ok = 0, gets_failed = 0, tags_put = 0,
                  executed = 0, requeued = 0, collected = 0;
  };
  published_totals published_;

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
