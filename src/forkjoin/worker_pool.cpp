#include "forkjoin/worker_pool.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "support/assertions.hpp"
#include "support/rng.hpp"

namespace rdp::forkjoin {

namespace {
thread_local worker_pool* tl_pool = nullptr;
thread_local int tl_index = -1;

/// Registry metrics for the fork-join scheduler, resolved once. The
/// counters are NOT written on the hot paths — the pool already keeps its
/// own relaxed per-worker/pool counters for pool_stats, and doubling every
/// one of them with a registry fetch-add measurably slowed empty-task
/// spawn/wait microbenchmarks. Instead publish_metrics() reconciles the
/// registry from the pool counters as deltas at quiescence points (worker
/// park, stats(), destruction). Only the task-execution histogram records
/// per event, sampled 1-in-64 per thread because it needs two clock reads.
struct fj_metrics_t {
  obs::counter& spawned;
  obs::counter& executed;
  obs::counter& steals;
  obs::counter& injections;
  obs::counter& overflow_retries;
  obs::counter& parks;
  obs::histogram& task_ns;
};

fj_metrics_t& fj_metrics() {
  auto& reg = obs::metrics_registry::instance();
  static fj_metrics_t m{reg.get_counter("forkjoin.tasks_spawned"),
                        reg.get_counter("forkjoin.tasks_executed"),
                        reg.get_counter("forkjoin.steals"),
                        reg.get_counter("forkjoin.injections"),
                        reg.get_counter("forkjoin.overflow_retries"),
                        reg.get_counter("forkjoin.parks"),
                        reg.get_histogram("forkjoin.task_ns")};
  return m;
}

constexpr std::uint32_t k_task_ns_sample_mask = 255;  // 1 in 256
}  // namespace

struct worker_pool::worker {
  concurrent::chase_lev_deque<task_node*> deque;
  // Per-worker relaxed counters, folded into pool_stats on demand.
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> failed_rounds{0};
  std::atomic<std::uint64_t> parks{0};
  xoshiro256 rng;
  std::thread thread;

  explicit worker(unsigned index) : rng(0xC0FFEEULL + index) {}
};

worker_pool* worker_pool::current() noexcept { return tl_pool; }
int worker_pool::current_worker_index() noexcept { return tl_index; }

worker_pool::worker_pool(unsigned worker_count, std::size_t injection_capacity)
    : injection_(injection_capacity < 2 ? 2 : injection_capacity) {
  RDP_REQUIRE_MSG(worker_count >= 1, "worker_pool needs at least one worker");
  workers_.reserve(worker_count);
  for (unsigned i = 0; i < worker_count; ++i)
    workers_.push_back(std::make_unique<worker>(i));
  for (unsigned i = 0; i < worker_count; ++i)
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
}

worker_pool::~worker_pool() {
  stop_.store(true, std::memory_order_release);
  {
    std::scoped_lock lock(park_mutex_);
    park_cv_.notify_all();
  }
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  publish_metrics();  // final reconciliation with every worker stopped
  // Drain any tasks that were never executed so they do not leak. The
  // destroy-only op releases the node back to its owning arena without
  // running the payload or reporting to a group.
  while (auto t = injection_.try_pop()) (*t)->destroy(*t);
  for (auto& w : workers_)
    while (auto t = w->deque.pop()) (*t)->destroy(*t);
}

void worker_pool::push_injection_blocking(task_node* t, bool low_priority,
                                          bool trace) {
  // Bounded-backoff retry push. Executing the task in the producer's stack
  // frame instead would be the unbounded-recursion hazard this overflow
  // policy exists to rule out: a retry-style task (e.g. a data-flow step
  // requeueing itself) re-enters enqueue before the current frame returns,
  // and a full queue keeps it re-entering until the stack overflows.
  // Progress: workers (and helping waiters) drain the injection queue, so a
  // slot frees up as long as the pool is alive.
  //
  // The spawn event is recorded before the push (here and at every other
  // enqueue site): once the task is visible in a queue a consumer may begin
  // it immediately, and the trace analyzer relies on every task's spawn
  // timestamp preceding its run_begin.
  if (trace)
    RDP_TRACE_EVENT(obs::event_kind::task_inject, 0, low_priority ? 1 : 0,
                    reinterpret_cast<std::uintptr_t>(t));
  concurrent::backoff bo;
  std::uint64_t retries = 0;
  while (!injection_.try_push(t)) {
    ++retries;
    overflow_retries_.fetch_add(1, std::memory_order_relaxed);
    if (retries == 1 || (retries & 1023) == 0)
      RDP_TRACE_EVENT(obs::event_kind::task_overflow, 0, retries, 0);
    wake_one();  // make sure a drainer is awake before backing off
    bo.pause();
  }
  injections_.fetch_add(1, std::memory_order_relaxed);
  wake_one();
}

void worker_pool::enqueue(task_node* t) {
  RDP_ASSERT(t != nullptr);
  spawned_hint();
  if (tl_pool == this && tl_index >= 0) {
    RDP_TRACE_EVENT(obs::event_kind::task_spawn, 0, tl_index,
                    reinterpret_cast<std::uintptr_t>(t));
    workers_[static_cast<std::size_t>(tl_index)]->deque.push(t);
    wake_one();
    return;
  }
  // External thread (or worker of a different pool): inject, blocking on
  // overflow. Never execute in place (see push_injection_blocking).
  push_injection_blocking(t, /*low_priority=*/false);
}

void worker_pool::enqueue_global(task_node* t) {
  RDP_ASSERT(t != nullptr);
  spawned_hint();
  // One spawn event per task, before any push (see push_injection_blocking
  // for why): the kind reflects the intended queue, not the rare overflow
  // fallback's actual destination.
  RDP_TRACE_EVENT(obs::event_kind::task_inject, 0, 1,
                  reinterpret_cast<std::uintptr_t>(t));
  if (injection_.try_push(t)) {
    injections_.fetch_add(1, std::memory_order_relaxed);
    wake_one();
    return;
  }
  // Injection queue full: a worker of this pool falls back to its own deque
  // (an unbounded queue, so no retry loop is needed); any other thread
  // blocks until a slot frees up. Neither path executes the task inline.
  if (tl_pool == this && tl_index >= 0) {
    workers_[static_cast<std::size_t>(tl_index)]->deque.push(t);
    wake_one();
  } else {
    push_injection_blocking(t, /*low_priority=*/true, /*trace=*/false);
  }
}

void worker_pool::wake_one() {
  epoch_.fetch_add(1, std::memory_order_release);
  if (parked_.load(std::memory_order_acquire) > 0) {
    std::scoped_lock lock(park_mutex_);
    park_cv_.notify_one();
  }
}

task_node* worker_pool::find_task(int self_index) {
  if (self_index >= 0) {
    // 1. Own deque (LIFO — depth-first execution preserves locality).
    if (auto t = workers_[static_cast<std::size_t>(self_index)]->deque.pop())
      return *t;
  }
  // 2. Injection queue (FIFO — external submissions).
  if (auto t = injection_.try_pop()) return *t;
  // 3. Steal from a random victim, one full sweep.
  const std::size_t n = workers_.size();
  if (n > 1 || self_index < 0) {
    auto& rng = self_index >= 0
                    ? workers_[static_cast<std::size_t>(self_index)]->rng
                    : external_rng_;
    const std::size_t start = static_cast<std::size_t>(rng.below(n));
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t victim = (start + k) % n;
      if (static_cast<int>(victim) == self_index) continue;
      if (auto t = workers_[victim]->deque.steal()) {
        if (self_index >= 0)
          workers_[static_cast<std::size_t>(self_index)]->steals.fetch_add(
              1, std::memory_order_relaxed);
        else
          external_steals_.fetch_add(1, std::memory_order_relaxed);
        RDP_TRACE_EVENT(obs::event_kind::task_steal, 0, victim,
                        static_cast<std::int64_t>(self_index));
        return *t;
      }
    }
  }
  return nullptr;
}

bool worker_pool::try_run_one() {
  const int self = (tl_pool == this) ? tl_index : -1;
  task_node* t = find_task(self);
  if (t == nullptr) {
    if (self >= 0)
      workers_[static_cast<std::size_t>(self)]->failed_rounds.fetch_add(
          1, std::memory_order_relaxed);
    return false;
  }
  const auto task_id = reinterpret_cast<std::uintptr_t>(t);
  RDP_TRACE_EVENT(obs::event_kind::task_run_begin, 0, task_id, 0);
  // Task round-trip histogram, sampled 1-in-256: two clock reads would
  // dominate the ~13ns unsampled round trip. The sample decision reuses the
  // executed counter the scheduler maintains anyway (own cache line, relaxed
  // load) instead of a dedicated thread-local — per-task metrics cost on the
  // unsampled path is one relaxed flag load and a mask test.
  std::atomic<std::uint64_t>& exec_counter =
      self >= 0 ? workers_[static_cast<std::size_t>(self)]->executed
                : external_executed_;
  const std::uint64_t seq = exec_counter.load(std::memory_order_relaxed);
  if (obs::metrics_enabled() &&
      ((seq + 1) & k_task_ns_sample_mask) == 0) [[unlikely]] {
    const std::uint64_t t0 = obs::metrics_now_ns();
    t->execute_and_destroy(t);
    fj_metrics().task_ns.record(obs::metrics_now_ns() - t0);
  } else {
    t->execute_and_destroy(t);
  }
  RDP_TRACE_EVENT(obs::event_kind::task_run_end, 0, task_id, 0);
  exec_counter.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void worker_pool::worker_loop(unsigned index) {
  tl_pool = this;
  tl_index = static_cast<int>(index);
#ifndef RDP_TRACE_DISABLED
  obs::tracer::instance().set_thread_label("worker " +
                                           std::to_string(index));
#endif
  worker& self = *workers_[index];
  concurrent::backoff bo;
  unsigned idle_rounds = 0;

  while (!stop_.load(std::memory_order_acquire)) {
    if (try_run_one()) {
      bo.reset();
      idle_rounds = 0;
      continue;
    }
    ++idle_rounds;
    if (idle_rounds < k_spin_rounds) {
      bo.pause();
      continue;
    }
    // Park until new work arrives (epoch bump) or shutdown.
    const std::uint64_t seen = epoch_.load(std::memory_order_acquire);
    std::unique_lock lock(park_mutex_);
    if (stop_.load(std::memory_order_acquire)) break;
    if (epoch_.load(std::memory_order_acquire) != seen) {
      idle_rounds = 0;
      continue;
    }
    parked_.fetch_add(1, std::memory_order_acq_rel);
    self.parks.fetch_add(1, std::memory_order_relaxed);
    RDP_TRACE_EVENT(obs::event_kind::worker_park, 0, index, 0);
    park_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return stop_.load(std::memory_order_acquire) ||
             epoch_.load(std::memory_order_acquire) != seen;
    });
    parked_.fetch_sub(1, std::memory_order_acq_rel);
    RDP_TRACE_EVENT(obs::event_kind::worker_unpark, 0, index, 0);
    // Waking by timeout means the pool sat idle a full millisecond — a
    // quiescence point well off the work path: fold the pool counters into
    // the metrics registry so snapshots of an idle pool see fresh totals.
    // (Parks during work churn wake by epoch bump and skip this.)
    if (epoch_.load(std::memory_order_acquire) == seen &&
        !stop_.load(std::memory_order_acquire))
      publish_metrics();
    idle_rounds = 0;
    bo.reset();
  }

  tl_pool = nullptr;
  tl_index = -1;
}

void worker_pool::publish_metrics() const {
  if (!obs::metrics_enabled()) return;
  published_totals t;
  for (const auto& w : workers_) {
    t.executed += w->executed.load(std::memory_order_relaxed);
    t.steals += w->steals.load(std::memory_order_relaxed);
    t.parks += w->parks.load(std::memory_order_relaxed);
  }
  t.executed += external_executed_.load(std::memory_order_relaxed);
  t.steals += external_steals_.load(std::memory_order_relaxed);
  t.spawned = spawned_.load(std::memory_order_relaxed);
  t.injections = injections_.load(std::memory_order_relaxed);
  t.overflow_retries = overflow_retries_.load(std::memory_order_relaxed);

  fj_metrics_t& m = fj_metrics();
  std::scoped_lock lock(publish_mutex_);
  const auto delta = [](std::uint64_t now, std::uint64_t& prev) {
    // reset_stats() can move the pool counters backwards between publishes;
    // clamp to zero rather than folding a wrapped difference in.
    const std::uint64_t d = now >= prev ? now - prev : 0;
    prev = now;
    return d;
  };
  if (auto d = delta(t.spawned, published_.spawned)) m.spawned.add(d);
  if (auto d = delta(t.executed, published_.executed)) m.executed.add(d);
  if (auto d = delta(t.steals, published_.steals)) m.steals.add(d);
  if (auto d = delta(t.injections, published_.injections)) m.injections.add(d);
  if (auto d = delta(t.overflow_retries, published_.overflow_retries))
    m.overflow_retries.add(d);
  if (auto d = delta(t.parks, published_.parks)) m.parks.add(d);
}

pool_stats worker_pool::stats() const {
  publish_metrics();  // stats() is a quiescence point: refresh the registry
  pool_stats s;
  for (const auto& w : workers_) {
    s.tasks_executed += w->executed.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.failed_steal_rounds += w->failed_rounds.load(std::memory_order_relaxed);
    s.parks += w->parks.load(std::memory_order_relaxed);
  }
  s.tasks_executed += external_executed_.load(std::memory_order_relaxed);
  s.steals += external_steals_.load(std::memory_order_relaxed);
  s.tasks_spawned = spawned_.load(std::memory_order_relaxed);
  s.injections = injections_.load(std::memory_order_relaxed);
  s.overflow_retries = overflow_retries_.load(std::memory_order_relaxed);
  s.arena = arena_stats_snapshot();
  return s;
}

std::vector<worker_snapshot> worker_pool::worker_snapshots() const {
  std::vector<worker_snapshot> out;
  out.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const worker& w = *workers_[i];
    worker_snapshot s;
    s.index = static_cast<unsigned>(i);
    s.executed = w.executed.load(std::memory_order_relaxed);
    s.steals = w.steals.load(std::memory_order_relaxed);
    s.parks = w.parks.load(std::memory_order_relaxed);
    s.deque_depth = w.deque.size_estimate();
    out.push_back(s);
  }
  return out;
}

std::size_t worker_pool::ready_estimate() const {
  std::size_t n = injection_.size_estimate();
  for (const auto& w : workers_) n += w->deque.size_estimate();
  return n;
}

void worker_pool::reset_stats() {
  for (auto& w : workers_) {
    w->executed.store(0, std::memory_order_relaxed);
    w->steals.store(0, std::memory_order_relaxed);
    w->failed_rounds.store(0, std::memory_order_relaxed);
    w->parks.store(0, std::memory_order_relaxed);
  }
  external_executed_.store(0, std::memory_order_relaxed);
  external_steals_.store(0, std::memory_order_relaxed);
  spawned_.store(0, std::memory_order_relaxed);
  injections_.store(0, std::memory_order_relaxed);
  overflow_retries_.store(0, std::memory_order_relaxed);
  std::scoped_lock lock(publish_mutex_);
  published_ = published_totals{};
}

}  // namespace rdp::forkjoin
