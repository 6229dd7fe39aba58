// E-A1 (§IV-B remark): blocking gets vs pre-checked dependencies on the
// REAL data-flow runtime. Runs GE on rdp::cnc in all three variants at
// laptop scale and reports wall-clock plus the runtime's own counters
// (aborted executions, failed gets, deferrals) — the mechanism behind the
// paper's observation that the blocking-get approach wins overall while
// non-blocking/pre-checked scheduling pays off only at small block sizes.
#include <iostream>
#include <string>

#include "dp/dp.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table_printer.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  using namespace rdp::dp;

  std::int64_t n = 512, workers = 4, reps = 3;
  std::string csv_path = "ablation_getmode.csv";
  cli_parser cli("Blocking-get vs prescheduled dependencies on the real "
                 "CnC runtime (E-A1)");
  cli.add_int("n", &n, "problem size (default 512)");
  cli.add_int("workers", &workers, "worker threads (default 4)");
  cli.add_int("reps", &reps, "repetitions, best-of (default 3)");
  cli.add_string("csv", &csv_path, "CSV output path");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (workers < 1) {
    std::cerr << "--workers must be at least 1\n";
    return 2;
  }

  std::cout << "=== E-A1: get-mode ablation, real runtime, GE " << n << "x"
            << n << ", " << workers << " workers ===\n\n";
  csv_writer csv({"base", "variant", "seconds", "aborted", "failed_gets",
                  "deferrals", "requeues"});
  table_printer table({"Base", "Variant", "best (s)", "aborted",
                       "failed gets", "deferrals", "requeues"});

  const auto input = make_diag_dominant(static_cast<std::size_t>(n), 42);
  auto oracle = input;
  ge_loop_serial(oracle);

  forkjoin::worker_pool pool(static_cast<unsigned>(workers));
  for (std::int64_t base : {16ll, 32ll, 64ll, 128ll}) {
    if (base > n) continue;
    for (cnc_variant v : {cnc_variant::native, cnc_variant::tuner,
                          cnc_variant::manual, cnc_variant::nonblocking}) {
      double best = 1e30;
      cnc_run_info info{};
      for (std::int64_t r = 0; r < reps; ++r) {
        auto m = input;
        stopwatch sw;
        info = exec::run_dataflow(
            *make_ge_spec(m, static_cast<std::size_t>(base)), {v, &pool});
        best = std::min(best, sw.seconds());
        if (!(m == oracle)) {
          std::cerr << "VALIDATION FAILED for " << to_string(v) << "\n";
          return 1;
        }
      }
      table.add_row({std::to_string(base), to_string(v),
                     table_printer::num(best),
                     std::to_string(info.stats.steps_aborted),
                     std::to_string(info.stats.gets_failed),
                     std::to_string(info.stats.preschedule_deferrals),
                     std::to_string(info.stats.steps_requeued)});
      csv.add_row({std::to_string(base), to_string(v),
                   table_printer::num(best, 9),
                   std::to_string(info.stats.steps_aborted),
                   std::to_string(info.stats.gets_failed),
                   std::to_string(info.stats.preschedule_deferrals),
                   std::to_string(info.stats.steps_requeued)});
    }
  }
  table.print(std::cout);
  std::cout << "\nAll variants validated bit-identical to the serial loop.\n";
  csv.save(csv_path);
  std::cout << "wrote " << csv_path << "\n";
  return 0;
}
