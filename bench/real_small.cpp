// E-R1: real-execution sanity at laptop scale.
//
// Runs every benchmark through every variant the runtime registry knows
// (serial R-DP, fork-join, tiled, the four data-flow modes, r-way,
// prepared — see rdp::dp::registry()), validates each against the
// serial-loop oracle, and reports wall-clock. On a single-core box the
// absolute times mostly measure runtime overhead (which is exactly what
// calibrates the simulator); the figure-level comparisons live in the
// fig*/xover benches.
// Registry entries whose preconditions fail for the chosen (n, base) are
// skipped and reported as such.
#include <iostream>
#include <string>

#include "dp/dp.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table_printer.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

struct row_sink {
  table_printer* table;
  csv_writer* csv;
  const char* bm;
  std::size_t n;

  void add(const std::string& variant, double secs, bool ok) {
    table->add_row({bm, std::to_string(n), variant, table_printer::num(secs),
                    ok ? "ok" : "FAILED"});
    csv->add_row({bm, std::to_string(n), variant,
                  table_printer::num(secs, 9), ok ? "1" : "0"});
    if (!ok) std::exit(1);
  }
};

/// Sweep every registry variant of one benchmark: reset, run, validate.
/// `reset` restores the input table, `valid` compares it to the oracle.
template <class Reset, class Valid>
void run_registry_variants(benchmark_id bm, const problem_ref& prob,
                           const run_options& opts, row_sink& sink,
                           const Reset& reset, const Valid& valid) {
  const std::size_t n = problem_size(prob);
  for (const variant* v : variants_for(bm)) {
    if (!v->supports(n, opts.base)) {
      sink.table->add_row({sink.bm, std::to_string(sink.n),
                           std::string(v->label), "-", "skipped"});
      continue;
    }
    reset();
    stopwatch sw;
    v->run(*v, prob, opts);
    sink.add(std::string(v->label), sw.seconds(), valid());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t workers = 4;
  std::int64_t ge_n = 512, sw_n = 1024, fw_n = 256;
  std::int64_t base = 64;
  std::string csv_path = "real_small.csv";
  cli_parser cli("Real-execution comparison of all registry variants (E-R1)");
  cli.add_int("workers", &workers, "worker threads (default 4)");
  cli.add_int("ge-n", &ge_n, "GE problem size (default 512)");
  cli.add_int("sw-n", &sw_n, "SW sequence length (default 1024)");
  cli.add_int("fw-n", &fw_n, "FW vertex count (default 256)");
  cli.add_int("base", &base, "base-case size (default 64)");
  cli.add_string("csv", &csv_path, "CSV output path");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const auto b = static_cast<std::size_t>(base);
  const auto w = static_cast<unsigned>(workers);

  std::cout << "=== E-R1: real execution, all registry variants, " << w
            << " workers ===\n\n";
  table_printer table({"benchmark", "n", "variant", "seconds", "valid"});
  csv_writer csv({"benchmark", "n", "variant", "seconds", "valid"});

  // One pool shared by every pool-backed variant of the whole sweep.
  forkjoin::worker_pool pool(w);
  run_options opts;
  opts.base = b;
  opts.workers = w;
  opts.pool = &pool;

  // ------------------------------------------------------------- GE ----
  {
    const auto input = make_diag_dominant(static_cast<std::size_t>(ge_n), 1);
    auto oracle = input;
    stopwatch sw0;
    ge_loop_serial(oracle);
    row_sink sink{&table, &csv, "GE", static_cast<std::size_t>(ge_n)};
    sink.add("loop-serial", sw0.seconds(), true);

    auto m = input;
    run_registry_variants(benchmark_id::ge, ge_problem(m), opts, sink,
                          [&] { m = input; }, [&] { return m == oracle; });
  }

  // ------------------------------------------------------------- SW ----
  {
    const auto a = make_dna(static_cast<std::size_t>(sw_n), 7);
    const auto bseq = make_dna(static_cast<std::size_t>(sw_n), 8);
    const sw_params p;
    matrix<std::int32_t> oracle(sw_n + 1, sw_n + 1, 0);
    stopwatch sw0;
    sw_loop_serial(oracle, a, bseq, p);
    row_sink sink{&table, &csv, "SW", static_cast<std::size_t>(sw_n)};
    sink.add("loop-serial", sw0.seconds(), true);

    matrix<std::int32_t> s(sw_n + 1, sw_n + 1, 0);
    run_registry_variants(
        benchmark_id::sw, sw_problem(s, a, bseq, p), opts, sink,
        [&] { s = matrix<std::int32_t>(sw_n + 1, sw_n + 1, 0); },
        [&] { return s == oracle; });
  }

  // ------------------------------------------------------------- FW ----
  {
    auto input = make_digraph(static_cast<std::size_t>(fw_n), 0.3, 5, 1e9);
    for (std::size_t i = 0; i < input.size(); ++i)
      input.data()[i] = static_cast<double>(
          static_cast<long long>(input.data()[i]));
    auto oracle = input;
    stopwatch sw0;
    fw_loop_serial(oracle);
    row_sink sink{&table, &csv, "FW-APSP", static_cast<std::size_t>(fw_n)};
    sink.add("loop-serial", sw0.seconds(), true);

    auto m = input;
    run_registry_variants(benchmark_id::fw, fw_problem(m), opts, sink,
                          [&] { m = input; }, [&] { return m == oracle; });
  }

  table.print(std::cout);
  std::cout << "\nAll runnable registry variants validated against the "
               "serial-loop oracle.\n";
  csv.save(csv_path);
  std::cout << "wrote " << csv_path << "\n";
  return 0;
}
