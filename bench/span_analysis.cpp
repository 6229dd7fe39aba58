// E-X2: quantifies §III-B — "joins increase the span asymptotically and
// reduce parallelism". For each benchmark and tile count, prints work T1,
// span T∞ and average parallelism T1/T∞ of the fork-join DAG (with its
// artificial join dependencies) versus the data-flow DAG (true
// dependencies only), in units of base-task work. Both DAGs are derived
// from the benchmark's recurrence spec (exec/dag.hpp) at tile scale.
//
// For tile counts up to --measured-max-tiles the analytic DAG columns are
// joined by *measured* ones: the benchmark is executed for real at
// n = tiles*64 — once on the fork-join runtime, once on Native CnC — under
// the event tracer, and the trace analyzer (src/obs/analyze.hpp) extracts
// work and span from the reconstructed task DAG. Measured values are in
// milliseconds on THIS machine (the analytic ones are unitless), so only
// ratios are comparable across the two views; the span ratio FJ/DF should
// show the same growth in both.
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "dp/dp.hpp"
#include "exec/dag.hpp"
#include "forkjoin/worker_pool.hpp"
#include "obs/analyze.hpp"
#include "obs/tracer.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"
#include "support/table_printer.hpp"

namespace {

using namespace rdp;
using trace::analyze_work_span;

struct measured_run {
  double work_ms = 0;
  double span_ms = 0;
  double parallelism = 0;
};

#ifndef RDP_TRACE_DISABLED

/// One real traced execution at n = tiles*base; work/span come from the
/// post-mortem analyzer, i.e. from the task DAG that actually executed.
std::optional<measured_run> run_measured(std::string_view bm,
                                         std::size_t tiles, std::size_t base,
                                         bool forkjoin_model) {
  const std::size_t n = tiles * base;
  const unsigned workers = 4;
  auto& t = obs::tracer::instance();
  t.start();
  t.begin_phase("measured");
  forkjoin::worker_pool pool(workers);
  const exec::dataflow_options df{dp::cnc_variant::native, &pool};
  if (bm == "GE") {
    auto m = make_diag_dominant(n, 1);
    if (forkjoin_model)
      exec::run_forkjoin(*dp::make_ge_spec(m, base), pool);
    else
      exec::run_dataflow(*dp::make_ge_spec(m, base), df);
  } else if (bm == "SW") {
    const auto a = make_dna(n, 7);
    const auto b = make_dna(n, 8);
    const dp::sw_params p;
    matrix<std::int32_t> s(n + 1, n + 1, 0);
    if (forkjoin_model)
      exec::run_forkjoin(*dp::make_sw_spec(s, a, b, p, base), pool);
    else
      exec::run_dataflow(*dp::make_sw_spec(s, a, b, p, base), df);
  } else {  // FW-APSP
    auto m = make_digraph(n, 0.3, 5, 1e9);
    if (forkjoin_model)
      exec::run_forkjoin(*dp::make_fw_spec(m, base), pool);
    else
      exec::run_dataflow(*dp::make_fw_spec(m, base), df);
  }
  t.stop();
  const auto metrics = obs::analyze_trace(
      t.collect(), [&t](std::uint16_t id) { return t.name(id); });
  if (metrics.empty()) return std::nullopt;
  const obs::phase_metrics& p = metrics.back();
  if (p.span_ms <= 0) return std::nullopt;
  return measured_run{p.work_ms, p.span_ms, p.parallelism()};
}

#else

std::optional<measured_run> run_measured(std::string_view, std::size_t,
                                         std::size_t, bool) {
  return std::nullopt;  // tracer compiled out (RDP_TRACE=OFF)
}

#endif

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path = "span_analysis.csv";
  std::int64_t measured_max_tiles = 16;
  cli_parser cli("Work/span analysis of fork-join vs data-flow DAGs (E-X2)");
  cli.add_string("csv", &csv_path, "CSV output path");
  cli.add_int("measured-max-tiles", &measured_max_tiles,
              "run real traced executions (FJ and Native CnC) and report "
              "measured work/span for tile counts up to this (0 disables)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  const std::pair<const char*, dp::benchmark_id> benchmarks[] = {
      {"GE", dp::benchmark_id::ge},
      {"SW", dp::benchmark_id::sw},
      {"FW-APSP", dp::benchmark_id::fw},
  };

  std::cout << "=== E-X2: artificial dependencies inflate the span "
               "(work/span of the two DAGs, base = 64) ===\n"
            << "(measured columns: real runs at n = tiles*64 on this "
               "machine, 4 workers, work/span in ms from the trace "
               "analyzer; '-' where not measured)\n\n";
  csv_writer csv({"benchmark", "tiles", "model", "work", "span",
                  "parallelism", "measured_work_ms", "measured_span_ms",
                  "measured_parallelism"});
  constexpr std::size_t kBase = 64;

  for (const auto& [name, id] : benchmarks) {
    table_printer table({"tiles", "T1 (work)", "T-inf FJ", "T-inf DF",
                         "par FJ", "par DF", "span ratio FJ/DF",
                         "meas par FJ", "meas par DF", "meas ratio"});
    for (std::size_t t : {4, 8, 16, 32, 64, 128}) {
      const auto spec = dp::make_tile_scale_spec(id, t);
      const auto df = analyze_work_span(exec::dataflow_dag(*spec, kBase));
      const auto fj = analyze_work_span(exec::forkjoin_dag(*spec, kBase));
      std::optional<measured_run> mfj, mdf;
      if (t <= static_cast<std::size_t>(measured_max_tiles)) {
        mfj = run_measured(name, t, kBase, /*forkjoin_model=*/true);
        mdf = run_measured(name, t, kBase, /*forkjoin_model=*/false);
      }
      table.add_row(
          {std::to_string(t), table_printer::num(df.total_work),
           table_printer::num(fj.span), table_printer::num(df.span),
           table_printer::num(fj.parallelism()),
           table_printer::num(df.parallelism()),
           table_printer::num(fj.span / df.span),
           mfj ? table_printer::num(mfj->parallelism) : "-",
           mdf ? table_printer::num(mdf->parallelism) : "-",
           mfj && mdf ? table_printer::num(mfj->span_ms / mdf->span_ms)
                      : "-"});
      auto emit = [&](const char* model, const trace::work_span& ws,
                      const std::optional<measured_run>& m) {
        csv.add_row({name, std::to_string(t), model,
                     table_printer::num(ws.total_work, 9),
                     table_printer::num(ws.span, 9),
                     table_printer::num(ws.parallelism(), 6),
                     m ? table_printer::num(m->work_ms, 9) : "",
                     m ? table_printer::num(m->span_ms, 9) : "",
                     m ? table_printer::num(m->parallelism, 6) : ""});
      };
      emit("forkjoin", fj, mfj);
      emit("dataflow", df, mdf);
    }
    std::cout << name << "\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Expected: span ratio grows with tiles for SW "
               "(Θ(T^{log2 3}) vs Θ(T)); FJ parallelism saturates while DF "
               "parallelism keeps growing. The measured span ratio tracks "
               "the analytic one (runtime overheads damp it at small n).\n";
  csv.save(csv_path);
  std::cout << "wrote " << csv_path << "\n";
  return 0;
}
