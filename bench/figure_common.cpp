#include "figure_common.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dp/dp.hpp"
#include "dp/tuning.hpp"
#include "forkjoin/worker_pool.hpp"
#include "obs/analyze.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "obs/summary.hpp"
#include "obs/tracer.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table_printer.hpp"

namespace rdp::bench {

namespace {

dp::benchmark_id to_benchmark_id(sim::benchmark bm) {
  switch (bm) {
    case sim::benchmark::ge: return dp::benchmark_id::ge;
    case sim::benchmark::sw: return dp::benchmark_id::sw;
    case sim::benchmark::fw: return dp::benchmark_id::fw;
  }
  return dp::benchmark_id::ge;
}

/// The simulated series, derived from the registry's sim:* rows so the
/// figure sweeps and the equivalence/verification gates can never disagree
/// about which variants exist or what they are called. The sweep prices
/// DAGs at figure scale (n up to 16K), so it calls the simulator directly
/// on the benchmark's tile-scale spec instead of through variant::run — the
/// registry runner also fills the table with the serial reference for the
/// bit-exactness gate, which at these sizes would dwarf the simulation
/// itself.
std::vector<const dp::variant*> sim_series(dp::benchmark_id bm) {
  std::vector<const dp::variant*> out;
  for (const dp::variant* v : dp::variants_for(bm))
    if (v->backend == dp::backend_kind::sim) out.push_back(v);
  return out;
}

/// Base-size range of one panel, mirroring the paper's per-panel x-axes.
std::vector<std::size_t> panel_bases(std::size_t n, std::size_t min_base,
                                     bool full) {
  std::vector<std::size_t> bases;
  for (std::size_t b = min_base; b <= 2048 && b <= n; b *= 2) bases.push_back(b);
  // Memory guard: the largest DAGs (tiles >= 256 for FW) are opt-in.
  if (!full) {
    std::erase_if(bases, [&](std::size_t b) { return n / b > 192; });
  }
  return bases;
}

/// Per-phase PMU readings. The perf_counters instance must be constructed
/// on the environment thread before ANY pool exists: `inherit` only covers
/// threads spawned after the events were opened, and reset/enable propagate
/// to inherited children, so one instance gives per-phase deltas for every
/// worker of every later pool.
struct counter_log {
  obs::perf_counters counters;
  std::vector<std::pair<std::string, obs::perf_sample>> rows;
};

void print_counters(std::ostream& os, const counter_log& log) {
  os << "\nPMU counters (backend: " << to_string(log.counters.backend())
     << ", user space, all counted threads)\n";
  table_printer table({"Phase", "Cycles", "Instr", "IPC", "L1D-miss",
                       "LLC-miss", "TaskClock(ms)"});
  auto cell = [](const obs::perf_value& v) {
    return v.valid ? std::to_string(v.value) : std::string("n/a");
  };
  for (const auto& [phase, s] : log.rows) {
    table.add_row({phase, cell(s.cycles), cell(s.instructions),
                   s.ipc() > 0 ? table_printer::num(s.ipc()) : "n/a",
                   cell(s.l1d_misses), cell(s.llc_misses),
                   s.task_clock_ns.valid
                       ? table_printer::num(
                             static_cast<double>(s.task_clock_ns.value) / 1e6)
                       : "n/a"});
  }
  table.print(os);
}

/// One traced phase: marks the phase, runs `body`, and samples the pool's
/// gauges for the counter tracks of the trace. The trailing idle window
/// keeps the pool alive with nothing to do so the workers' spin-then-park
/// transition is on the record too. With `pmu`, the PMU counts the body
/// (not the idle window) and the reading is logged under the phase label.
template <class Body>
void traced_phase(const std::string& label, forkjoin::worker_pool& pool,
                  counter_log* pmu, Body&& body) {
  auto& t = obs::tracer::instance();
  t.begin_phase(label);
  obs::sampler s;
  s.add_gauge("parked workers",
              [&pool] { return std::uint64_t(pool.parked_workers()); });
  s.add_gauge("ready tasks (est)",
              [&pool] { return std::uint64_t(pool.ready_estimate()); });
  s.start();
  if (pmu != nullptr) pmu->counters.start();
  body();
  if (pmu != nullptr) {
    pmu->counters.stop();
    pmu->rows.emplace_back(label, pmu->counters.read());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  s.stop();
}

/// Run `fn` as a task of the pool and block until it finished. The figure
/// kernels are run this way (rather than called from this thread) so the
/// recursion unfolds on the *workers* — worker-local spawns and steals —
/// with the environment thread off-CPU, which is also how the trace is
/// easiest to read. Even on a single hardware core the workers then own
/// the whole execution.
template <class Fn>
void run_on_pool(forkjoin::worker_pool& pool, Fn&& fn) {
  std::atomic<bool> done{false};
  pool.enqueue(forkjoin::make_task(
      [&] {
        fn();
        done.store(true, std::memory_order_release);
      },
      nullptr));
  while (!done.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::microseconds(200));
}

/// Everything the --trace family of flags selects.
struct trace_options {
  std::string chrome_path;  // --trace: Chrome trace_event JSON
  std::string raw_path;     // --trace-raw: lossless format for trace_analyze
  std::string report_path;  // --report: structured run-report JSON
  std::string base;         // --base: integer | "auto" | "" (figure default)
  std::string impls;        // --impl: comma-separated registry labels
  bool counters = false;    // --counters: per-phase PMU readings
  bool analyze = false;     // --analyze: in-process work/span analysis
  int reps = 3;             // --reps: wall-clock repetitions per report entry
  unsigned workers = 4;
};

/// perf_sample → the report's PMU block (values plus per-event validity).
obs::report_pmu to_report_pmu(obs::perf_backend backend,
                              const obs::perf_sample& s) {
  obs::report_pmu p;
  p.backend = to_string(backend);
  p.cycles = s.cycles.value;
  p.cycles_valid = s.cycles.valid;
  p.instructions = s.instructions.value;
  p.instructions_valid = s.instructions.valid;
  p.l1d_misses = s.l1d_misses.value;
  p.l1d_valid = s.l1d_misses.valid;
  p.llc_misses = s.llc_misses.value;
  p.llc_valid = s.llc_misses.valid;
  p.task_clock_ns = s.task_clock_ns.value;
  p.task_clock_valid = s.task_clock_ns.valid;
  return p;
}

/// The phases a --trace capture runs when --impl is not given: the paper's
/// fork-join vs Native-CnC vs Tuner-CnC comparison.
constexpr const char* k_default_impls = "forkjoin,dataflow:native,dataflow:tuner";

/// Resolve a comma-separated --impl list against the variant registry.
/// Returns an empty vector (after printing the valid labels) on a bad name.
std::vector<const dp::variant*> resolve_impls(dp::benchmark_id bm,
                                              const std::string& csv) {
  std::vector<const dp::variant*> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string label =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    if (!label.empty()) {
      const dp::variant* v = dp::find_variant(bm, label);
      if (v == nullptr) {
        std::cerr << "unknown --impl variant '" << label
                  << "'; valid: " << dp::impl_help() << "\n";
        return {};
      }
      out.push_back(v);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Run one traced phase per registry variant: reset the table, run the
/// variant's backend, label the phase from the registry (spec name + the
/// paper's series names). Each phase starts one pool, lends it to the row
/// and runs the row as a root task on it, so the trace shows worker-local
/// spawns and steals; rows that use no pool (serial, sim:*) ignore it.
///
/// With `report` != nullptr each variant also becomes one report_entry:
/// the metrics registry is reset before the phase and snapshotted after,
/// the body runs `reps` times (reset between repetitions) with per-rep
/// wall clocks, and the phase's PMU reading and tracer drop delta ride
/// along. Without a report the body runs once, exactly as before.
void run_trace_phases(const std::vector<const dp::variant*>& phases,
                      const std::string& tag, std::size_t base,
                      unsigned workers, counter_log* pmu,
                      const std::function<void()>& reset,
                      const dp::problem_ref& prob,
                      const std::string& bench_name, int reps,
                      obs::run_report* report) {
  const std::size_t n = dp::problem_size(prob);
  for (const dp::variant* v : phases) {
    if (!v->supports(n, base)) {
      std::cout << "skipping " << v->label << " (preconditions fail for n="
                << n << ", base=" << base << ")\n";
      continue;
    }
    dp::run_options ropt;
    ropt.base = base;
    ropt.workers = workers;
    const std::string label = dp::trace_phase_label(*v) + " " + tag;

    const int rep_count = report != nullptr && reps > 1 ? reps : 1;
    std::vector<double> wall;
    const std::uint64_t dropped_before = obs::tracer::instance().dropped();
    if (report != nullptr) obs::metrics_registry::instance().reset();
    // Per-repetition timing wraps each run (not the whole traced phase, so
    // the sampler's trailing idle window never lands in the wall clock).
    auto timed_reps = [&](const std::function<void()>& run_once) {
      for (int r = 0; r < rep_count; ++r) {
        reset();
        stopwatch sw;
        run_once();
        wall.push_back(sw.seconds() * 1e3);
      }
    };
    forkjoin::worker_pool pool(workers);
    ropt.pool = &pool;
    traced_phase(label, pool, pmu, [&] {
      timed_reps([&] { run_on_pool(pool, [&] { v->run(*v, prob, ropt); }); });
    });
    if (report != nullptr) {
      obs::report_entry e;
      e.benchmark = bench_name;
      e.impl = v->label;
      e.n = n;
      e.base = base;
      e.workers = workers;
      e.wall_ms = std::move(wall);
      e.metrics = obs::metrics_registry::instance().snapshot();
      e.trace_dropped = obs::tracer::instance().dropped() - dropped_before;
      if (pmu != nullptr && !pmu->rows.empty()) {
        e.has_pmu = true;
        e.pmu = to_report_pmu(pmu->counters.backend(), pmu->rows.back().second);
      }
      report->entries.push_back(std::move(e));
    }
  }
}

/// Resolve the --base flag for one traced benchmark, reporting what the
/// calibration picked when the sweep ran.
std::size_t resolve_trace_base(const trace_options& topt,
                               dp::tune_target target, std::size_t n,
                               std::size_t fallback) {
  const std::size_t base =
      dp::resolve_base_option(topt.base, target, n, fallback);
  if (topt.base == "auto")
    std::cout << "calibrated base (" << dp::to_string(target) << ", n=" << n
              << "): " << base << "\n";
  return base;
}

/// The --trace / --report path: real (not simulated) laptop-scale executions
/// of the figure's benchmark, one phase per execution model, recorded by
/// rdp::obs. A --report without --trace/--trace-raw skips the tracer session
/// entirely (the metrics registry is always on), so report timings never pay
/// for event recording they do not use.
int run_trace_capture(const figure_options& opts, const trace_options& topt) {
  const bool tracing = !topt.chrome_path.empty() || !topt.raw_path.empty();
#ifdef RDP_TRACE_DISABLED
  if (tracing) {
    std::cerr << "--trace requires the library to be built with RDP_TRACE=ON "
                 "(this build has the tracer compiled out)\n";
    return 2;
  }
#endif
  const unsigned workers = topt.workers;
  // PMU events must exist before the first pool spawns its workers (see
  // counter_log); null when not requested so the capture stays untouched.
  std::unique_ptr<counter_log> pmu;
  if (topt.counters) pmu = std::make_unique<counter_log>();

  const dp::benchmark_id bm = to_benchmark_id(opts.bm);
  const std::vector<const dp::variant*> impls = resolve_impls(
      bm, topt.impls.empty() ? std::string(k_default_impls) : topt.impls);
  if (impls.empty()) return 2;

  auto& t = obs::tracer::instance();
  if (tracing) {
    t.set_thread_label("environment");
    t.start();
  }

  obs::run_report report;
  report.tool = opts.figure_name;
  report.git_sha = obs::build_git_sha();
  report.repetitions =
      static_cast<std::uint32_t>(topt.reps > 1 ? topt.reps : 1);
  obs::run_report* report_ptr =
      topt.report_path.empty() ? nullptr : &report;

  std::cout << "=== " << opts.figure_name << " — "
            << (tracing ? "trace capture" : "measured report") << " ===\n"
            << "real execution, " << workers
            << " workers, laptop-scale inputs (shapes, not the paper's "
               "sizes)\n\n";

  // Per-benchmark problem *data* setup; the scheduling of every phase comes
  // from the registry entry (src/exec backends), not from code here.
  switch (opts.bm) {
    case sim::benchmark::ge: {
      const std::size_t n = 512;
      const std::size_t base =
          resolve_trace_base(topt, dp::tune_target::ge, n, 64);
      const std::string tag =
          "GE " + std::to_string(n) + "/" + std::to_string(base);
      const auto input = make_diag_dominant(n, 1);
      auto m = input;
      run_trace_phases(impls, tag, base, workers, pmu.get(),
                       [&] { m = input; }, dp::ge_problem(m),
                       sim::to_string(opts.bm), topt.reps, report_ptr);
      break;
    }
    case sim::benchmark::sw: {
      const std::size_t n = 512;
      const std::size_t base =
          resolve_trace_base(topt, dp::tune_target::sw, n, 64);
      const std::string tag =
          "SW " + std::to_string(n) + "/" + std::to_string(base);
      const auto a = make_dna(n, 7);
      const auto b = make_dna(n, 8);
      const dp::sw_params p;
      matrix<std::int32_t> s(n + 1, n + 1, 0);
      run_trace_phases(impls, tag, base, workers, pmu.get(),
                       [&] { s = matrix<std::int32_t>(n + 1, n + 1, 0); },
                       dp::sw_problem(s, a, b, p),
                       sim::to_string(opts.bm), topt.reps, report_ptr);
      break;
    }
    case sim::benchmark::fw: {
      const std::size_t n = 256;
      const std::size_t base =
          resolve_trace_base(topt, dp::tune_target::fw, n, 32);
      const std::string tag =
          "FW " + std::to_string(n) + "/" + std::to_string(base);
      auto input = make_digraph(n, 0.3, 5, 1e9);
      for (std::size_t i = 0; i < input.size(); ++i)
        input.data()[i] = static_cast<double>(
            static_cast<long long>(input.data()[i]));
      auto m = input;
      run_trace_phases(impls, tag, base, workers, pmu.get(),
                       [&] { m = input; }, dp::fw_problem(m),
                       sim::to_string(opts.bm), topt.reps, report_ptr);
      break;
    }
  }

  std::vector<obs::event> events;
  if (tracing) {
    t.stop();
    events = t.collect();
    const auto phases = obs::summarize(events, t);
    obs::print_summary(std::cout, phases, t.dropped());
    if (t.dropped() > 0)
      std::cerr << "warning: trace lossy — " << t.dropped()
                << " event(s) dropped (full per-thread ring buffers); "
                   "summary counts and work/span reconstruction "
                   "undercount\n";
  }
  const auto arena = forkjoin::arena_stats_snapshot();
  std::cout << "task arena: "
            << (arena.freelist_allocs + arena.slab_allocs) << " allocs ("
            << arena.freelist_allocs << " freelist, " << arena.slab_allocs
            << " slab-carved, " << arena.heap_allocs << " heap-fallback), "
            << arena.local_frees << " local frees, " << arena.remote_frees
            << " remote frees, " << arena.bytes_reserved / 1024
            << " KiB in " << arena.slabs_reserved << " slabs\n";
  if (pmu) print_counters(std::cout, *pmu);
  if (topt.analyze) {
    const auto labels = t.thread_labels();
    const auto metrics = obs::analyze_trace(
        events, [&t](std::uint16_t id) { return t.name(id); },
        [&labels](std::int32_t tid) {
          return tid >= 0 && static_cast<std::size_t>(tid) < labels.size()
                     ? labels[tid]
                     : std::string();
        });
    std::cout << "\nMeasured work/span and idle attribution\n";
    obs::print_metrics(std::cout, metrics, /*per_thread=*/false);
  }
  if (!topt.chrome_path.empty()) {
    if (!obs::write_chrome_trace_file(topt.chrome_path, events, t)) {
      std::cerr << "cannot write trace file " << topt.chrome_path << "\n";
      return 2;
    }
    std::cout << "\nwrote " << events.size() << " events to "
              << topt.chrome_path
              << " (open in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!topt.raw_path.empty()) {
    if (!obs::write_raw_trace_file(topt.raw_path, events, t)) {
      std::cerr << "cannot write raw trace file " << topt.raw_path << "\n";
      return 2;
    }
    std::cout << "wrote raw trace (" << events.size() << " events) to "
              << topt.raw_path << " (analyze with bench/trace_analyze)\n";
  }
  if (report_ptr != nullptr) {
    obs::write_report_file(topt.report_path, report);
    std::cout << "wrote run report (" << report.entries.size()
              << " entries, " << report.repetitions << " reps each) to "
              << topt.report_path << " (diff with bench/report_compare)\n";
  }
  return 0;
}

/// --trace / --trace-raw / --report destinations are validated before the
/// (minutes long) capture runs, not after: probe by opening in append mode,
/// which creates a missing file but clobbers nothing.
bool probe_writable(const std::string& path) {
  std::ofstream probe(path, std::ios::app);
  return static_cast<bool>(probe);
}

}  // namespace

int run_figure_bench(int argc, const char* const* argv,
                     const figure_options& opts) {
  bool quick = false, full = false;
  std::string csv_path = opts.csv_file;
  trace_options topt;
  std::int64_t trace_workers = 4;
  cli_parser cli(std::string("Regenerates ") + opts.figure_name);
  cli.add_flag("quick", &quick, "only the 2K and 4K matrix panels");
  cli.add_flag("full", &full,
               "include the most memory-hungry configurations (tiles > 192)");
  cli.add_string("csv", &csv_path, "CSV output path");
  // The --trace/--impl help is generated from the variant registry so it
  // can never drift from what the registry actually runs.
  std::string default_phases;
  for (const dp::variant* v :
       resolve_impls(dp::benchmark_id::ge, k_default_impls)) {
    if (!default_phases.empty()) default_phases += ", ";
    default_phases += dp::trace_phase_label(*v);
  }
  cli.add_string("trace", &topt.chrome_path,
                 "run the benchmark for real under the event tracer (one "
                 "phase per --impl variant; default " + default_phases +
                 ") and write a Chrome trace_event JSON to this path");
  cli.add_string("impl", &topt.impls,
                 "comma-separated registry variants to trace (default " +
                 std::string(k_default_impls) + "); each one of: " +
                 dp::impl_help());
  cli.add_string("trace-raw", &topt.raw_path,
                 "also/instead write the lossless raw trace here (input "
                 "format of bench/trace_analyze)");
  std::int64_t reps = 3;
  cli.add_string("report", &topt.report_path,
                 "run the benchmark for real (one entry per --impl variant) "
                 "and write a structured run report — schema-versioned JSON "
                 "with wall-clock repetitions, the metrics-registry "
                 "snapshot, and PMU readings — to this path (diff two with "
                 "bench/report_compare)");
  cli.add_int("reps", &reps,
              "wall-clock repetitions per --report entry (default 3)");
  cli.add_flag("counters", &topt.counters,
               "read PMU counters (perf_event_open) per traced phase; "
               "degrades to software or null counting where unavailable");
  cli.add_flag("analyze", &topt.analyze,
               "print measured work/span/parallelism and the idle-time "
               "breakdown after the capture");
  cli.add_int("trace-workers", &trace_workers,
              "worker threads for --trace runs (default 4)");
  cli.add_string("base", &topt.base,
                 "base-case size for --trace runs: a power of two, or 'auto' "
                 "to run the one-shot grain calibration sweep (default: the "
                 "figure's hand-picked value)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  topt.workers = static_cast<unsigned>(trace_workers);
  if (reps < 1) {
    std::cerr << "--reps must be at least 1\n";
    return 2;
  }
  topt.reps = static_cast<int>(reps);

  const bool tracing = !topt.chrome_path.empty() || !topt.raw_path.empty();
  const bool capture = tracing || !topt.report_path.empty();
  if ((topt.counters || topt.analyze) && !tracing) {
    std::cerr << "--counters/--analyze need a capture run: pass --trace=FILE "
                 "or --trace-raw=FILE\n";
    return 2;
  }
  // Output destinations are validated before the (minutes long) run, and
  // must be pairwise distinct: two writers at the same path would silently
  // clobber each other at the end of the capture.
  const std::vector<std::pair<const char*, const std::string*>> outputs = {
      {"--trace", &topt.chrome_path},
      {"--trace-raw", &topt.raw_path},
      {"--report", &topt.report_path}};
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const auto& [flag, p] = outputs[i];
    if (p->empty()) continue;
    if (!probe_writable(*p)) {
      std::cerr << flag << " destination is not writable: " << *p << "\n";
      return 2;
    }
    for (std::size_t j = i + 1; j < outputs.size(); ++j) {
      if (!outputs[j].second->empty() && *outputs[j].second == *p) {
        std::cerr << flag << " and " << outputs[j].first
                  << " name the same destination (" << *p
                  << "); each output needs its own file\n";
        return 2;
      }
    }
  }
  if (capture) {
    try {
      return run_trace_capture(opts, topt);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";  // e.g. a malformed --base value
      return 2;
    }
  }

  const std::vector<const dp::variant*> series =
      sim_series(to_benchmark_id(opts.bm));
  std::string series_names;
  for (const dp::variant* v : series) {
    if (!series_names.empty()) series_names += ", ";
    series_names += sim::to_string(dp::sim_mode_to_exec(v->mode));
  }
  std::cout << "=== " << opts.figure_name << " ===\n"
            << "machine: " << opts.machine.name << " (" << opts.machine.cores
            << " cores)   benchmark: " << sim::to_string(opts.bm) << "\n"
            << "series: " << series_names
            << (opts.with_estimated ? ", Estimated" : "") << "\n"
            << "(simulated execution times — shapes, not absolute seconds;"
               " see EXPERIMENTS.md)\n\n";

  csv_writer csv({"figure", "machine", "benchmark", "n", "base", "variant",
                  "seconds", "utilization", "base_tasks"});

  std::vector<std::size_t> panels = {2048, 4096, 8192, 16384};
  if (quick) panels = {2048, 4096};

  stopwatch total;
  for (std::size_t n : panels) {
    const auto bases = panel_bases(n, opts.min_base, full);
    std::cout << (n / 1024) << "K Matrix\n";
    std::vector<std::string> header = {"Base Size"};
    for (const dp::variant* v : series)
      header.push_back(sim::to_string(dp::sim_mode_to_exec(v->mode)));
    if (opts.with_estimated) header.push_back("Estimated");
    table_printer table(header);

    for (std::size_t base : bases) {
      std::vector<std::string> row = {std::to_string(base)};
      const auto tiles =
          dp::make_tile_scale_spec(to_benchmark_id(opts.bm), n / base);
      for (const dp::variant* sv : series) {
        const sim::exec_variant v = dp::sim_mode_to_exec(sv->mode);
        const auto r = sim::simulate_variant(*tiles, v, base, opts.machine);
        row.push_back(table_printer::num(r.seconds));
        csv.add_row({opts.figure_name, opts.machine.name,
                     sim::to_string(opts.bm), std::to_string(n),
                     std::to_string(base), sim::to_string(v),
                     table_printer::num(r.seconds, 9),
                     table_printer::num(r.utilization, 6),
                     std::to_string(r.base_tasks)});
      }
      if (opts.with_estimated) {
        const double est = sim::estimated_seconds(opts.bm, n, base,
                                                  opts.machine);
        row.push_back(table_printer::num(est));
        csv.add_row({opts.figure_name, opts.machine.name,
                     sim::to_string(opts.bm), std::to_string(n),
                     std::to_string(base), "Estimated",
                     table_printer::num(est, 9), "", ""});
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << "(execution time, seconds)\n\n";
  }

  csv.save(csv_path);
  std::cout << "wrote " << csv.row_count() << " rows to " << csv_path
            << "  [" << table_printer::num(total.seconds()) << "s]\n";
  return 0;
}

}  // namespace rdp::bench
