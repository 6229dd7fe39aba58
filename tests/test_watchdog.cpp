// Tests for the scheduler watchdog (obs/watchdog): stall detection, busy
// gating, re-arming, dump rendering — and the acceptance path from ISSUE.md:
// a live-locked CnC graph (poll-and-requeue, no data progress) must produce
// an actionable stall dump through wait()'s automatic watchdog instead of
// hanging. Periods are tens of milliseconds so the whole file stays fast;
// every timing assertion polls against a generous deadline rather than
// assuming the scheduler runs the watchdog thread promptly.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "cnc/cnc.hpp"
#include "obs/watchdog.hpp"

namespace {

using namespace std::chrono_literals;
using rdp::obs::watchdog;

/// Spin until `pred` holds or `deadline` elapses; returns pred().
template <class Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline = 2000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Thread-safe accumulator for on_stall dumps.
struct dump_log {
  std::mutex m;
  std::vector<std::string> dumps;
  void operator()(const std::string& d) {
    std::scoped_lock lock(m);
    dumps.push_back(d);
  }
  std::size_t size() {
    std::scoped_lock lock(m);
    return dumps.size();
  }
  std::string joined() {
    std::scoped_lock lock(m);
    std::string all;
    for (const std::string& d : dumps) all += d;
    return all;
  }
};

// ---- unit: stall detection -------------------------------------------------

TEST(Watchdog, FlatProgressWhileBusyIsAStall) {
  std::atomic<std::uint64_t> progress{7};
  watchdog wd;
  wd.add_progress("work", [&] { return progress.load(); });
  wd.add_gauge("depth", [] { return std::uint64_t{3}; });
  wd.set_busy([] { return true; });

  dump_log log;
  watchdog::config cfg;
  cfg.period = 15ms;
  cfg.stall_periods = 2;
  cfg.on_stall = std::ref(log);
  wd.start(cfg);

  ASSERT_TRUE(eventually([&] { return wd.stalls_detected() >= 1; }));
  wd.stop();

  EXPECT_EQ(wd.stalls_detected(), 1u);  // one dump per stall onset, not per tick
  ASSERT_EQ(log.size(), 1u);
  const std::string& dump = log.joined();
  EXPECT_NE(dump.find("=== rdp watchdog: STALL detected ==="),
            std::string::npos);
  EXPECT_NE(dump.find("progress work = 7"), std::string::npos);
  EXPECT_NE(dump.find("gauge depth = 3"), std::string::npos);
  EXPECT_NE(dump.find("=== end watchdog dump ==="), std::string::npos);
}

TEST(Watchdog, AdvancingProgressNeverStalls) {
  std::atomic<std::uint64_t> progress{0};
  watchdog wd;
  wd.add_progress("work", [&] { return progress.fetch_add(1); });
  wd.set_busy([] { return true; });

  dump_log log;
  watchdog::config cfg;
  cfg.period = 10ms;
  cfg.stall_periods = 2;
  cfg.on_stall = std::ref(log);
  wd.start(cfg);
  ASSERT_TRUE(eventually([&] { return wd.ticks() >= 10; }));
  wd.stop();

  EXPECT_EQ(wd.stalls_detected(), 0u);
  EXPECT_EQ(log.size(), 0u);
}

TEST(Watchdog, IdleRuntimeIsNotAStall) {
  // Progress flat but busy() false: quiescent, not stuck.
  watchdog wd;
  wd.add_progress("work", [] { return std::uint64_t{0}; });
  wd.set_busy([] { return false; });

  dump_log log;
  watchdog::config cfg;
  cfg.period = 10ms;
  cfg.stall_periods = 2;
  cfg.on_stall = std::ref(log);
  wd.start(cfg);
  ASSERT_TRUE(eventually([&] { return wd.ticks() >= 8; }));
  wd.stop();

  EXPECT_EQ(wd.stalls_detected(), 0u);
  EXPECT_EQ(log.size(), 0u);
}

TEST(Watchdog, RearmsAfterProgressResumes) {
  std::atomic<std::uint64_t> progress{0};
  std::atomic<bool> moving{false};
  watchdog wd;
  wd.add_progress("work", [&] {
    if (moving.load()) progress.fetch_add(1);
    return progress.load();
  });
  wd.set_busy([] { return true; });

  dump_log log;
  watchdog::config cfg;
  cfg.period = 15ms;
  cfg.stall_periods = 2;
  cfg.on_stall = std::ref(log);
  wd.start(cfg);

  // First stall, then progress resumes (re-arms), then a second stall.
  ASSERT_TRUE(eventually([&] { return wd.stalls_detected() >= 1; }));
  moving.store(true);
  ASSERT_TRUE(eventually([&] { return progress.load() >= 4; }));
  moving.store(false);
  ASSERT_TRUE(eventually([&] { return wd.stalls_detected() >= 2; }));
  wd.stop();

  EXPECT_GE(wd.stalls_detected(), 2u);
  EXPECT_GE(log.size(), 2u);
}

TEST(Watchdog, StopJoinsAndSurvivesRestart) {
  watchdog wd;
  wd.add_progress("p", [] { return std::uint64_t{0}; });
  wd.set_busy([] { return false; });
  watchdog::config cfg;
  cfg.period = 5ms;
  cfg.on_stall = [](const std::string&) {};
  wd.start(cfg);
  ASSERT_TRUE(eventually([&] { return wd.ticks() >= 2; }));
  wd.stop();
  const std::uint64_t t = wd.ticks();
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(wd.ticks(), t);  // really stopped
  wd.start(cfg);             // restart is allowed
  ASSERT_TRUE(eventually([&] { return wd.ticks() > t; }));
  wd.stop();
}

// ---- acceptance: live-locked CnC graph produces a dump through wait() ------
//
// The step polls for an item nobody has produced and respawns itself — the
// historical hang class wait() cannot diagnose by quiescence (steps keep
// executing, so the graph never quiesces; only *data* progress is flat).
// The watchdog's on_stall doubles as the rescue: it flips the release flag,
// the environment-visible producer finally puts the item, and wait()
// returns. A watchdog failure would turn this test into a timeout.

struct livelock_ctx;
struct livelock_step {
  int execute(int tag, livelock_ctx& ctx) const;
};
/// Parks on an item of `never`, which no step produces.
struct stuck_step {
  int execute(int tag, livelock_ctx& ctx) const;
};
struct livelock_ctx : rdp::cnc::context<livelock_ctx> {
  rdp::cnc::step_collection<livelock_ctx, livelock_step, int> steps{
      *this, "poll"};
  rdp::cnc::step_collection<livelock_ctx, stuck_step, int> stuck_steps{
      *this, "stuck"};
  rdp::cnc::tag_collection<int> tags{*this, "ctrl"};
  rdp::cnc::tag_collection<int> stuck_tags{*this, "stuck_ctrl"};
  rdp::cnc::item_collection<int, int> data{*this, "data"};
  rdp::cnc::item_collection<int, int> never{*this, "never"};
  std::atomic<bool> release{false};
  explicit livelock_ctx(rdp::forkjoin::worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
    stuck_tags.prescribe(stuck_steps);
  }
};
int stuck_step::execute(int tag, livelock_ctx& ctx) const {
  int v = 0;
  ctx.never.get(tag, v);
  return 0;
}
int livelock_step::execute(int tag, livelock_ctx& ctx) const {
  int v = 0;
  if (!ctx.data.try_get(tag, v)) {
    if (ctx.release.load(std::memory_order_acquire)) {
      ctx.data.put(tag, tag + 1);  // finally make data progress
      return 0;
    }
    ctx.steps.respawn(tag);  // poll-and-requeue livelock
    // Don't let two workers spin the requeue loop at full speed: the test
    // only needs the loop alive, not a hot core per worker.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return 0;
}

TEST(Watchdog, LivelockedCncWaitProducesStallDump) {
  rdp::forkjoin::worker_pool pool(2);
  livelock_ctx ctx(pool);
  dump_log log;
  std::atomic<int> stalls{0};

  rdp::obs::watchdog::config cfg;
  cfg.period = 20ms;
  cfg.stall_periods = 2;  // ISSUE acceptance: dump within 2 periods of onset
  cfg.on_stall = [&](const std::string& dump) {
    log(dump);
    stalls.fetch_add(1);
    ctx.release.store(true, std::memory_order_release);
  };
  ctx.set_watchdog(cfg);

  ctx.tags.put(3);
  ctx.wait();  // returns only because the stall dump released the loop

  EXPECT_GE(stalls.load(), 1);
  int v = 0;
  EXPECT_TRUE(ctx.data.try_get(3, v));
  EXPECT_EQ(v, 4);
  EXPECT_GT(ctx.stats().steps_requeued, 0u);  // it really did livelock

  const std::string dump = log.joined();
  EXPECT_NE(dump.find("=== rdp watchdog: STALL detected ==="),
            std::string::npos);
  // The context's dump section made it into the watchdog dump.
  EXPECT_NE(dump.find("context: active="), std::string::npos);
  EXPECT_NE(dump.find("pool: ready~"), std::string::npos);
  EXPECT_NE(dump.find("parked step instances:"), std::string::npos);
}

// The dump names parked instances, which it reads from the item
// collections' waiter lists: a step parked on a never-produced key next to
// the livelock shows up as "<collection>(key)".
TEST(Watchdog, StallDumpNamesParkedInstance) {
  rdp::forkjoin::worker_pool pool(2);
  livelock_ctx ctx(pool);
  dump_log log;
  rdp::obs::watchdog::config cfg;
  cfg.period = 20ms;
  cfg.stall_periods = 2;
  cfg.on_stall = [&](const std::string& dump) {
    log(dump);
    ctx.release.store(true, std::memory_order_release);
  };
  ctx.set_watchdog(cfg);

  ctx.stuck_tags.put(42);
  ASSERT_TRUE(eventually([&] { return ctx.suspended_count() == 1; }));
  ctx.tags.put(3);
  // The released poll step finishes; the parked one never can.
  EXPECT_THROW(ctx.wait(), rdp::cnc::unsatisfied_dependency);

  const std::string dump = log.joined();
  EXPECT_NE(dump.find("parked step instances: 1"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("    stuck(42)\n"), std::string::npos) << dump;
}

// 50 waits on an empty graph, each arming a 10 s watchdog: if stop() waited
// out even one 10 ms slice per wait, they would take over 500 ms.
TEST(Watchdog, ArmedEmptyCncWaitsReturnPromptly) {
  rdp::forkjoin::worker_pool pool(2);
  livelock_ctx ctx(pool);
  rdp::obs::watchdog::config cfg;
  cfg.period = 10s;
  ctx.set_watchdog(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) ctx.wait();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 250ms);
}

TEST(Watchdog, HealthyCncWaitNeverDumps) {
  rdp::forkjoin::worker_pool pool(2);
  livelock_ctx ctx(pool);
  ctx.release.store(true);  // step produces immediately: no livelock
  std::atomic<int> stalls{0};
  rdp::obs::watchdog::config cfg;
  cfg.period = 10ms;
  cfg.on_stall = [&](const std::string&) { stalls.fetch_add(1); };
  ctx.set_watchdog(cfg);
  ctx.tags.put(1);
  ctx.wait();
  EXPECT_EQ(stalls.load(), 0);
}

}  // namespace
