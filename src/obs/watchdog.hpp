// Scheduler watchdog: turn silent hangs into actionable dumps.
//
// The sampler (sampler.hpp) records levels for post-mortem analysis; the
// watchdog watches *progress* live. Callers register monotonic progress
// sources (items put, tags put, successful gets), level gauges (queue
// depth, parked workers) and free-form dump sections (per-worker state,
// pending keys). A background thread polls at a configurable period; when
// the summed progress has not moved for `stall_periods` consecutive ticks
// while the runtime claims to be busy, the watchdog emits one dump — the
// gauges, every dump section, and how long the stall has lasted — through
// the on_stall callback (default: stderr), then re-arms once progress
// resumes.
//
// This is what converts the two historical hang classes — a data-flow graph
// live-locked on non-blocking requeues (wait() never quiesces) and a
// lowering bug parking steps on keys nobody produces while a sibling spins
// — from a CI timeout into a dump naming the stuck keys and queue states.
//
// The cnc context arms a watchdog around wait() automatically when the
// RDP_WATCHDOG_MS environment variable is a positive period in
// milliseconds (see cnc/context.cpp); RDP_WATCHDOG_FATAL=1 additionally
// aborts the process after the first dump so a wedged CI job dies loudly
// instead of timing out.
//
// Like the sampler, gauges and progress sources are plain callables so obs
// stays below the runtimes: worker_pool/cnc hand in lambdas.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace rdp::obs {

class watchdog {
 public:
  struct config {
    std::chrono::milliseconds period{100};
    /// Consecutive no-progress ticks before a stall is declared: the dump
    /// lands within `stall_periods` periods of the stall's onset.
    unsigned stall_periods = 2;
    /// Receives the rendered dump. Default (empty) writes it to stderr.
    std::function<void(const std::string&)> on_stall;
    /// Abort the process after the first dump (CI: die loudly, now).
    bool fatal = false;
  };

  watchdog();
  ~watchdog();  // stops if running

  watchdog(const watchdog&) = delete;
  watchdog& operator=(const watchdog&) = delete;

  /// Register a monotonic progress source before start(). The watchdog sums
  /// all sources; any increase between ticks counts as progress.
  void add_progress(std::string_view name, std::function<std::uint64_t()> fn);

  /// Register a level gauge: reported (name=value) in every dump.
  void add_gauge(std::string_view name, std::function<std::uint64_t()> fn);

  /// Register a free-form dump contributor (per-worker state, pending
  /// keys). Appended to the dump in registration order. Must be safe to
  /// call concurrently with the runtime.
  void add_dump_section(std::function<void(std::string&)> fn);

  /// Only declare a stall while this returns true (e.g. "steps active or
  /// suspended"). Without one, an idle runtime looks stalled. May be
  /// replaced while running.
  void set_busy(std::function<bool()> fn);

  void start(const config& cfg);
  /// Stop and join the thread. Returns at once: the thread waits out its
  /// period on a condition variable that stop() notifies.
  void stop();

  std::uint64_t ticks() const noexcept {
    return ticks_.load(std::memory_order_relaxed);
  }
  std::uint64_t stalls_detected() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }

 private:
  struct source {
    std::string name;
    std::function<std::uint64_t()> read;
  };

  void run();
  std::string render_dump(std::uint64_t stuck_ticks,
                          std::uint64_t progress_sum) const;

  config cfg_;
  std::vector<source> progress_;
  std::vector<source> gauges_;
  std::vector<std::function<void(std::string&)>> sections_;
  std::function<bool()> busy_;
  std::atomic<bool> running_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;  // guarded by stop_mutex_
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::thread thread_;
};

/// RDP_WATCHDOG_MS parsed once per process: a positive period enables the
/// automatic wait()-scoped watchdog in the cnc runtime; 0 / unset / junk
/// disables it.
std::chrono::milliseconds watchdog_period_from_env() noexcept;

/// RDP_WATCHDOG_FATAL=1: abort after the first stall dump.
bool watchdog_fatal_from_env() noexcept;

}  // namespace rdp::obs
