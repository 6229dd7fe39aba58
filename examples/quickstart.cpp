// Quickstart: Gaussian Elimination in both execution models, validated.
//
//   $ ./quickstart --n=512 --base=64 --workers=4
//
// Shows the complete public-API workflow:
//   1. generate a safe workload (diagonally dominant matrix),
//   2. run the serial loop oracle,
//   3. run the 2-way R-DP algorithm on the fork-join runtime,
//   4. run it on the data-flow (CnC) runtime,
//   5. validate bit-identical results and print timings + runtime stats;
//      the exit status is 1 when either run disagrees with the oracle.
//
// Both runs build the GE recurrence spec (dp::make_ge_spec) and hand it to
// an src/exec backend — the same path every registry row takes.
#include <iostream>

#include "dp/dp.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  std::int64_t n = 512, base = 64, workers = 4;
  cli_parser cli("Quickstart: R-DP Gaussian Elimination, fork-join vs "
                 "data-flow");
  cli.add_int("n", &n, "matrix size (power of two, default 512)");
  cli.add_int("base", &base, "recursion base size (power of two, default 64)");
  cli.add_int("workers", &workers, "worker threads (default 4)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::cout << "GE " << n << "x" << n << ", base " << base << ", " << workers
            << " workers\n\n";

  // 1. Workload: GE without pivoting needs a matrix whose pivots never
  //    vanish; diagonal dominance guarantees that.
  const auto input = make_diag_dominant(static_cast<std::size_t>(n), 42);
  const auto tile = static_cast<std::size_t>(base);
  bool ok = true;

  // 2. Serial loop oracle (Listing 2 of the paper).
  auto oracle = input;
  stopwatch t0;
  dp::ge_loop_serial(oracle);
  std::cout << "loop-serial      " << t0.millis() << " ms\n";

  // Both runtimes share one worker pool, started once.
  forkjoin::worker_pool pool(static_cast<unsigned>(workers));

  // 3. Fork-join: function A of Listing 3 — spawn B and C, taskwait, D, A.
  {
    auto m = input;
    stopwatch t1;
    exec::run_forkjoin(*dp::make_ge_spec(m, tile), pool);
    const double ms = t1.millis();
    ok = ok && m == oracle;
    const auto stats = pool.stats();
    std::cout << "fork-join R-DP   " << ms << " ms   (tasks spawned "
              << stats.tasks_spawned << ", steals " << stats.steals << ")  "
              << (m == oracle ? "validated" : "MISMATCH!") << "\n";
  }

  // 4. Data-flow: the CnC graph of Listings 4/5 — four step collections
  //    with item collections enforcing the true data dependencies.
  {
    auto m = input;
    stopwatch t2;
    const auto info = exec::run_dataflow(*dp::make_ge_spec(m, tile),
                                         {dp::cnc_variant::native, &pool});
    const double ms = t2.millis();
    ok = ok && m == oracle;
    std::cout << "data-flow R-DP   " << ms << " ms   (steps "
              << info.stats.steps_executed << ", re-executions "
              << info.stats.steps_aborted << ", items "
              << info.stats.items_put << ")  "
              << (m == oracle ? "validated" : "MISMATCH!") << "\n";
  }

  if (!ok) {
    std::cerr << "\nMISMATCH: a parallel run disagrees with the oracle.\n";
    return 1;
  }
  std::cout << "\nAll three executions produce bit-identical elimination "
               "results.\n";
  return 0;
}
