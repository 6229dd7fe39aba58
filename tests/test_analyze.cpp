// Tests for the post-mortem trace analyzer (src/obs/analyze.hpp): DAG
// reconstruction and measured work/span on hand-built synthetic traces with
// hand-computed expectations, idle-time attribution (join-wait vs data-wait
// vs other), abort/resume latency, tolerance to truncated traces, the raw
// trace format round trip, and an end-to-end capture of a real fork-join
// execution.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "forkjoin/task_group.hpp"
#include "forkjoin/worker_pool.hpp"
#include "obs/analyze.hpp"
#include "obs/tracer.hpp"

namespace {

using namespace rdp;
using obs::event;
using obs::event_kind;

constexpr double kMs = 1e-6;   // ns -> ms
constexpr double kTol = 1e-9;  // exact integer-ns inputs, so tight

/// Build one event; tests assemble traces as plain time-sorted vectors.
event ev(std::uint64_t ts, std::int32_t tid, event_kind kind,
         std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
         std::uint16_t name = 0) {
  event e;
  e.ts_ns = ts;
  e.tid = tid;
  e.kind = kind;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.name = name;
  return e;
}

std::vector<obs::phase_metrics> analyze(const std::vector<event>& events) {
  return obs::analyze_trace(
      events, [](std::uint16_t id) { return "name" + std::to_string(id); });
}

// ------------------------------------------- fork-join diamond (F1) ----

// tid0 runs task A [0,80]: spawns X@10 and Y@12, joins [20,60], and during
// the join helps by running Y [25,45] nested. tid1 runs X [15,55].
//
// Exclusive busy: A 40 (= [0,20] + [60,80]), X 40, Y 20 -> work 100.
// Critical path: A's prefix up to the X-spawn (10) -> X (40) -> A's
// post-join segment (20) = 70.
// tid0 join-wait: [20,25] + [45,60] = 20; tid1 never waits: 40 idle is
// "other" (nothing to steal).
std::vector<event> diamond() {
  return {
      ev(0, 0, event_kind::phase_begin, 0, 0, 1),
      ev(0, 0, event_kind::task_run_begin, 100),
      ev(10, 0, event_kind::task_spawn, 0, 200),
      ev(12, 0, event_kind::task_spawn, 0, 300),
      ev(15, 1, event_kind::task_run_begin, 200),
      ev(20, 0, event_kind::join_begin, 500, 2),
      ev(25, 0, event_kind::task_run_begin, 300),
      ev(45, 0, event_kind::task_run_end, 300),
      ev(55, 1, event_kind::task_run_end, 200),
      ev(60, 0, event_kind::join_end, 500),
      ev(80, 0, event_kind::task_run_end, 100),
  };
}

TEST(Analyze, DiamondWorkSpanAndJoinWait) {
  const auto phases = analyze(diamond());
  ASSERT_EQ(phases.size(), 1u);
  const obs::phase_metrics& p = phases[0];
  EXPECT_EQ(p.phase, "name1");
  EXPECT_EQ(p.threads, 2u);
  EXPECT_EQ(p.tasks, 3u);
  EXPECT_EQ(p.aborted_tasks, 0u);
  EXPECT_EQ(p.unmatched, 0u);
  EXPECT_NEAR(p.wall_ms, 80 * kMs, kTol);
  EXPECT_NEAR(p.work_ms, 100 * kMs, kTol);
  EXPECT_NEAR(p.span_ms, 70 * kMs, kTol);
  EXPECT_NEAR(p.parallelism(), 100.0 / 70.0, 1e-9);
  EXPECT_EQ(p.spawn_edges, 2u);
  EXPECT_EQ(p.join_edges, 2u);
  EXPECT_EQ(p.data_edges, 0u);
  EXPECT_NEAR(p.busy_ms, 100 * kMs, kTol);
  EXPECT_NEAR(p.join_wait_ms, 20 * kMs, kTol);
  EXPECT_NEAR(p.data_wait_ms, 0, kTol);
  EXPECT_NEAR(p.other_idle_ms, 40 * kMs, kTol);

  ASSERT_EQ(p.per_thread.size(), 2u);
  const obs::thread_breakdown& t0 = p.per_thread[0];
  const obs::thread_breakdown& t1 = p.per_thread[1];
  EXPECT_EQ(t0.tid, 0);
  EXPECT_NEAR(t0.busy_ms, 60 * kMs, kTol);       // A exclusive + helper Y
  EXPECT_NEAR(t0.join_wait_ms, 20 * kMs, kTol);  // join minus helping
  EXPECT_NEAR(t0.other_idle_ms, 0, kTol);
  EXPECT_EQ(t1.tid, 1);
  EXPECT_NEAR(t1.busy_ms, 40 * kMs, kTol);
  EXPECT_NEAR(t1.join_wait_ms, 0, kTol);
  EXPECT_NEAR(t1.other_idle_ms, 40 * kMs, kTol);
}

// --------------------------------------------- data-flow edges (F2) ----

// Producer [0,30] on tid0 puts key 77 at t=20; consumer [40,90] on tid1
// gets it at t=50. The only cross-task dependency is the data edge, so the
// span is producer-up-to-put (20) + consumer-from-get (40) = 60.
TEST(Analyze, DataEdgeSpanAndDataWait) {
  const std::uint16_t items = 2;
  const std::vector<event> events = {
      ev(0, 0, event_kind::phase_begin, 0, 0, 1),
      ev(0, 0, event_kind::task_run_begin, 100),
      ev(20, 0, event_kind::item_put, 77, 0, items),
      ev(30, 0, event_kind::task_run_end, 100),
      ev(40, 1, event_kind::task_run_begin, 200),
      ev(50, 1, event_kind::item_get, 77, 0, items),
      ev(90, 1, event_kind::task_run_end, 200),
  };
  const auto phases = analyze(events);
  ASSERT_EQ(phases.size(), 1u);
  const obs::phase_metrics& p = phases[0];
  EXPECT_EQ(p.tasks, 2u);
  EXPECT_EQ(p.data_edges, 1u);
  EXPECT_EQ(p.spawn_edges, 0u);
  EXPECT_NEAR(p.work_ms, 80 * kMs, kTol);
  EXPECT_NEAR(p.span_ms, 60 * kMs, kTol);
  EXPECT_EQ(p.unmatched, 0u);
}

// A blocking-get bracket on the environment thread is data-wait, not
// steal-failure idle.
TEST(Analyze, DataWaitBracketAttribution) {
  const std::uint16_t items = 2;
  const std::vector<event> events = {
      ev(0, 0, event_kind::phase_begin, 0, 0, 1),
      ev(10, 0, event_kind::data_wait_begin, 77, 0, items),
      ev(60, 0, event_kind::data_wait_end, 77, 0, items),
      ev(100, 0, event_kind::worker_park, 0),
  };
  const auto phases = analyze(events);
  ASSERT_EQ(phases.size(), 1u);
  const obs::phase_metrics& p = phases[0];
  ASSERT_EQ(p.per_thread.size(), 1u);
  EXPECT_NEAR(p.per_thread[0].data_wait_ms, 50 * kMs, kTol);
  EXPECT_NEAR(p.per_thread[0].busy_ms, 0, kTol);
  EXPECT_NEAR(p.per_thread[0].other_idle_ms, 50 * kMs, kTol);
  EXPECT_EQ(p.unmatched, 0u);
}

// ------------------------------------- abort / re-execution (CnC) ----

// First attempt of step 100 aborts at t=5 (parked on key 900); the putting
// task 200 resumes it at t=30 and re-spawns it at t=32; the re-execution
// runs [50,70]. The aborted attempt's busy time is rolled back out of the
// work, and the resume latency (30-5=25) is attributed.
TEST(Analyze, AbortResumeLatencyAndRollback) {
  const std::vector<event> events = {
      ev(0, 0, event_kind::phase_begin, 0, 0, 1),
      ev(0, 0, event_kind::task_run_begin, 100),
      ev(5, 0, event_kind::step_abort, 900),
      ev(10, 0, event_kind::task_run_end, 100),
      ev(20, 1, event_kind::task_run_begin, 200),
      ev(30, 1, event_kind::step_resume, 900),
      ev(32, 1, event_kind::task_spawn, 0, 100),
      ev(40, 1, event_kind::task_run_end, 200),
      ev(50, 0, event_kind::task_run_begin, 100),
      ev(70, 0, event_kind::task_run_end, 100),
  };
  const auto phases = analyze(events);
  ASSERT_EQ(phases.size(), 1u);
  const obs::phase_metrics& p = phases[0];
  EXPECT_EQ(p.tasks, 2u);
  EXPECT_EQ(p.aborted_tasks, 1u);
  EXPECT_NEAR(p.aborted_ms, 10 * kMs, kTol);
  EXPECT_EQ(p.suspensions, 1u);
  EXPECT_NEAR(p.suspend_latency_ms, 25 * kMs, kTol);
  EXPECT_NEAR(p.work_ms, 40 * kMs, kTol);  // 20 (task 200) + 20 (re-exec)
  // The spawn edge claims the RE-EXECUTION (t0 >= spawn ts), not the
  // aborted first attempt: span = task 200 up to the spawn (12) + 20.
  EXPECT_EQ(p.spawn_edges, 1u);
  EXPECT_NEAR(p.span_ms, 32 * kMs, kTol);
  EXPECT_EQ(p.unmatched, 0u);
}

// ------------------------------------------------- robustness ----

TEST(Analyze, TruncatedTraceCountsUnmatchedWithoutCrashing) {
  const std::vector<event> events = {
      ev(0, 0, event_kind::phase_begin, 0, 0, 1),
      ev(10, 0, event_kind::task_run_end, 5),  // end without begin
      ev(20, 0, event_kind::step_resume, 1),   // resume without abort
      ev(30, 0, event_kind::join_end, 9),      // join_end without begin
      ev(40, 1, event_kind::task_run_begin, 7),  // begin without end
  };
  const auto phases = analyze(events);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].unmatched, 4u);
  EXPECT_EQ(phases[0].tasks, 1u);  // the open run is force-closed
}

TEST(Analyze, MultiplePhasesSplitAtMarkers) {
  const std::vector<event> events = {
      ev(0, 0, event_kind::phase_begin, 0, 0, 1),
      ev(10, 0, event_kind::task_run_begin, 100),
      ev(30, 0, event_kind::task_run_end, 100),
      ev(50, 0, event_kind::phase_begin, 0, 0, 2),
      ev(60, 0, event_kind::task_run_begin, 200),
      ev(90, 0, event_kind::task_run_end, 200),
  };
  const auto phases = analyze(events);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].phase, "name1");
  EXPECT_EQ(phases[1].phase, "name2");
  EXPECT_NEAR(phases[0].work_ms, 20 * kMs, kTol);
  EXPECT_NEAR(phases[1].work_ms, 30 * kMs, kTol);
  EXPECT_NEAR(phases[1].wall_ms, 40 * kMs, kTol);  // marker at 50 to 90
}

// A pool worker's event between tracer start() and the first phase marker
// (here a park/unpark pair) must not open an extra "(untitled)" phase: it
// holds no task span. Real captures hit this window at random.
TEST(Analyze, StrayWorkerEventBeforeFirstMarkerOpensNoPhase) {
  const std::vector<event> events = {
      ev(2, 1, event_kind::worker_park, 1),
      ev(4, 1, event_kind::worker_unpark, 1),
      ev(10, 0, event_kind::phase_begin, 0, 0, 1),
      ev(20, 0, event_kind::task_run_begin, 100),
      ev(50, 0, event_kind::task_run_end, 100),
  };
  const auto phases = analyze(events);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].phase, "name1");
  EXPECT_EQ(phases[0].tasks, 1u);
  EXPECT_NEAR(phases[0].work_ms, 30 * kMs, kTol);
}

// An unmarked trace is one "(untitled)" phase, kept even without tasks.
TEST(Analyze, UnmarkedTraceKeepsItsUntitledPhase) {
  const std::vector<event> events = {
      ev(2, 1, event_kind::worker_park, 1),
      ev(4, 1, event_kind::worker_unpark, 1),
  };
  const auto phases = analyze(events);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].phase, "(untitled)");
  EXPECT_EQ(phases[0].tasks, 0u);
}

// ------------------------------------------------ raw trace IO ----

TEST(RawTrace, RoundTripThroughText) {
  auto& t = obs::tracer::instance();
  t.start();
  t.set_thread_label("env of the round trip");
  const auto items = t.intern("items with spaces");
  t.emit(event_kind::item_put, items, 123456789, 42);
  t.emit(event_kind::task_steal, 0, 1, 2);
  t.begin_phase("phase label");
  t.stop();
  const auto events = t.collect();
  ASSERT_EQ(events.size(), 3u);

  std::ostringstream os;
  obs::write_raw_trace(os, events, t);
  std::istringstream is(os.str());
  const obs::raw_trace rt = obs::read_raw_trace(is);

  ASSERT_EQ(rt.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(rt.events[i].ts_ns, events[i].ts_ns);
    EXPECT_EQ(rt.events[i].tid, events[i].tid);
    EXPECT_EQ(rt.events[i].kind, events[i].kind);
    EXPECT_EQ(rt.events[i].arg0, events[i].arg0);
    EXPECT_EQ(rt.events[i].arg1, events[i].arg1);
    EXPECT_EQ(rt.name(rt.events[i].name), t.name(events[i].name));
  }
  EXPECT_EQ(rt.name(items), "items with spaces");
  EXPECT_EQ(rt.thread_label(events[0].tid), "env of the round trip");
}

TEST(RawTrace, ReaderRejectsMalformedInput) {
  {
    std::istringstream is("not a trace\n");
    EXPECT_THROW(obs::read_raw_trace(is), std::runtime_error);
  }
  {
    std::istringstream is("rdp-trace 2\nevent 0 0 250 0 0 0\n");  // bad kind
    EXPECT_THROW(obs::read_raw_trace(is), std::runtime_error);
  }
  {
    // A version-1 file numbers its event kinds differently: refused even
    // when every record would parse.
    std::istringstream is("rdp-trace 1\nevent 0 0 1 0 0 0\n");
    EXPECT_THROW(obs::read_raw_trace(is), std::runtime_error);
  }
  {
    std::istringstream is("rdp-trace 2\nbogus record\n");
    EXPECT_THROW(obs::read_raw_trace(is), std::runtime_error);
  }
  {
    std::istringstream is("rdp-trace 2\nevent 0 0\n");  // short record
    EXPECT_THROW(obs::read_raw_trace(is), std::runtime_error);
  }
}

// --------------------------------------------- end to end ----

// A real fork-join execution through tracer -> analyzer: 8 tasks spawned
// from the environment, joined with task_group::wait. Checks structural
// invariants rather than exact times.
TEST(AnalyzeEndToEnd, RealForkJoinCapture) {
  auto& t = obs::tracer::instance();
  forkjoin::worker_pool pool(2);
  t.start();
  t.begin_phase("e2e");
  std::atomic<int> ran{0};
  {
    forkjoin::task_group g(pool);
    for (int i = 0; i < 8; ++i)
      g.spawn([&ran] {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(200);
        while (std::chrono::steady_clock::now() < until) {
        }
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    g.wait();
  }
  t.stop();
  ASSERT_EQ(ran.load(), 8);

  const auto phases = obs::analyze_trace(
      t.collect(), [&t](std::uint16_t id) { return t.name(id); });
  ASSERT_EQ(phases.size(), 1u);
  const obs::phase_metrics& p = phases[0];
  EXPECT_EQ(p.phase, "e2e");
  EXPECT_EQ(p.tasks, 8u);
  EXPECT_EQ(p.unmatched, 0u);
  EXPECT_GT(p.work_ms, 0.0);
  EXPECT_GT(p.span_ms, 0.0);
  EXPECT_LE(p.span_ms, p.work_ms + 1e-9);
  EXPECT_GE(p.parallelism(), 1.0 - 1e-9);
  EXPECT_GE(p.threads, 1u);
  // All busy time is inside the 8 tasks, so work == sum of busy.
  EXPECT_NEAR(p.busy_ms, p.work_ms, 1e-6);
}

}  // namespace
