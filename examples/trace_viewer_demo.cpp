// trace_viewer_demo — a guided tour of the rdp::obs observability layer.
//
// Runs Gaussian Elimination twice at toy scale — once on the fork-join
// work-stealing pool, once on the Native-CnC data-flow runtime — with the
// event tracer recording every scheduler transition, checks both tables
// against the loop oracle (exit status 1 on a mismatch), then:
//
//   1. prints the per-phase summary table (the at-a-glance view: fork-join
//      pays in parks + steals at every taskwait; Native-CnC pays in step
//      aborts + re-executions on unmet gets), and
//   2. writes trace_demo.json in Chrome trace_event format — load it in
//      chrome://tracing or https://ui.perfetto.dev to see the per-worker
//      timelines, the steal/park instants and the queue-depth counters.
//
// Build with the default RDP_TRACE=ON; under RDP_TRACE=OFF the tracer is
// compiled out and this demo explains that instead of tracing.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <thread>

#include "dp/dp.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/sampler.hpp"
#include "obs/summary.hpp"
#include "obs/tracer.hpp"
#include "support/rng.hpp"

int main() {
#ifdef RDP_TRACE_DISABLED
  std::cout << "This build was configured with RDP_TRACE=OFF, so every\n"
               "RDP_TRACE_EVENT site compiles to nothing and there is\n"
               "nothing to record. Re-configure with -DRDP_TRACE=ON (the\n"
               "default) to run the demo.\n";
  return 0;
#else
  using namespace rdp;

  constexpr std::size_t n = 256, base = 32;
  constexpr unsigned workers = 4;
  const auto input = make_diag_dominant(n, 1);
  auto oracle = input;
  dp::ge_loop_serial(oracle);
  bool ok = false;

  auto& tracer = obs::tracer::instance();
  tracer.set_thread_label("environment");
  tracer.start();
  // One pool for both phases: the two runtimes differ in how they schedule
  // on the same workers, not in which workers they get.
  forkjoin::worker_pool pool(workers);

  // Phase 1: fork-join. Joins (taskwait) are the only synchronisation, so
  // the trace shows workers parking whenever a subtree finishes early.
  {
    auto m = input;
    tracer.begin_phase("forkjoin GE");
    obs::sampler sampler;
    sampler.add_gauge("parked workers", [&pool] {
      return std::uint64_t(pool.parked_workers());
    });
    sampler.add_gauge("ready tasks (est)", [&pool] {
      return std::uint64_t(pool.ready_estimate());
    });
    sampler.start();
    // Submit the root to the pool (instead of calling the kernel here) so
    // the recursion unfolds on the workers: worker-local spawns, steals
    // between workers, and the environment thread quiet in the trace.
    std::atomic<bool> done{false};
    pool.enqueue(forkjoin::make_task(
        [&] {
          exec::run_forkjoin(*dp::make_ge_spec(m, base), pool);
          done.store(true, std::memory_order_release);
        },
        nullptr));
    while (!done.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    ok = m == oracle;
    // A short idle tail records the workers' spin-then-park transition.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    sampler.stop();
  }

  // Phase 2: Native-CnC. Steps run as soon as they are prescribed; a get
  // on a not-yet-produced item aborts the step, parks it on the item's
  // waiter list and re-executes it after the put — watch the step_abort /
  // step_resume instants in the viewer.
  {
    auto m = input;
    tracer.begin_phase("CnC GE (native)");
    exec::run_dataflow(*dp::make_ge_spec(m, base),
                       {dp::cnc_variant::native, &pool});
    ok = ok && m == oracle;
  }

  tracer.stop();
  const auto events = tracer.collect();
  obs::print_summary(std::cout, obs::summarize(events, tracer));

  if (!ok) {
    std::cerr << "MISMATCH: a traced run disagrees with ge_loop_serial\n";
    return 1;
  }

  const char* path = "trace_demo.json";
  if (!obs::write_chrome_trace_file(path, events, tracer)) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << events.size() << " events to " << path
            << "\nopen chrome://tracing (or https://ui.perfetto.dev) and "
               "load the file:\n"
               "  - one row per worker thread; 'task' slices are task "
               "executions\n"
               "  - instant markers: steals, parks, step aborts/resumes, "
               "item puts/gets\n"
               "  - counter tracks: parked workers and estimated ready "
               "tasks\n";
  return 0;
#endif
}
