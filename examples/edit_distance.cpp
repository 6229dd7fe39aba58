// Extending the library: a NEW dynamic program as a first-class spec.
//
// Levenshtein edit distance is not one of the paper's three benchmarks —
// this example shows what a downstream user gets by writing a recurrence
// spec (here the library's string-wavefront spec in edit-distance mode,
// dp/spec/specs.hpp) instead of the old ad-hoc cell-functor adapter:
// every execution model the paper studies, plus the ones the repo grew on
// top — tiled rounds, r-way recursion, and the frozen dependence DAG
// (prepared_graph, per-tile or band-fused) that amortises dependency
// discovery across repeated instances.
//
//   $ ./edit_distance --n=512 --base=64 --workers=4
#include <iostream>
#include <string>

#include "dp/spec/specs.hpp"
#include "exec/backend.hpp"
#include "exec/prepared_graph.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  std::int64_t n = 512, base = 64, workers = 4;
  cli_parser cli("Edit distance via the string-wavefront recurrence spec");
  cli.add_int("n", &n, "sequence length (power of two, default 512)");
  cli.add_int("base", &base, "tile size (default 64)");
  cli.add_int("workers", &workers, "worker threads (default 4)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const auto len = static_cast<std::size_t>(n);
  const auto tile = static_cast<std::size_t>(base);

  // Two related sequences: one is a mutated copy of the other.
  auto a = make_dna(len, 7);
  auto b = a;
  xoshiro256 rng(8);
  std::size_t mutations = 0;
  for (auto& c : b)
    if (rng.uniform() < 0.05) {
      c = "ACGT"[rng.below(4)];
      ++mutations;
    }

  // The entire "new DP" definition: one spec over the caller's table. The
  // constructor writes the i/j boundary; every backend below consumes the
  // same object.
  matrix<std::int32_t> s(len + 1, len + 1, 0);
  auto make_spec = [&] {
    return dp::make_lcs_spec(s, a, b, dp::lcs_mode::edit_distance, tile);
  };

  std::cout << "edit distance of two " << len << "bp reads (~" << mutations
            << " point mutations applied)\n\n";

  stopwatch t0;
  exec::run_serial(*make_spec());
  const auto expected = s(len, len);
  std::cout << "serial R-DP:        " << t0.millis() << " ms  -> distance "
            << expected << "\n";

  bool ok = true;
  auto check = [&](const char* label, double ms) {
    ok = ok && s(len, len) == expected;
    std::cout << label << ms << " ms  -> distance " << s(len, len) << "\n";
  };

  forkjoin::worker_pool pool(static_cast<unsigned>(workers));
  {
    auto spec = make_spec();
    stopwatch t;
    exec::run_forkjoin(*spec, pool);
    check("fork-join R-DP:     ", t.millis());
  }
  {
    auto spec = make_spec();
    stopwatch t;
    exec::run_tiled(*spec, pool);
    check("tiled wavefront:    ", t.millis());
  }
  {
    auto spec = make_spec();
    stopwatch t;
    exec::run_rway(*spec, 4, &pool);
    check("4-way R-DP:         ", t.millis());
  }
  {
    auto spec = make_spec();
    exec::dataflow_options opts;
    opts.variant = dp::cnc_variant::tuner;
    opts.pool = &pool;
    stopwatch t;
    const auto info = exec::run_dataflow(*spec, opts);
    const double ms = t.millis();
    ok = ok && s(len, len) == expected;
    std::cout << "data-flow (tuner):  " << ms << " ms  -> distance "
              << s(len, len) << "  (" << info.stats.steps_executed
              << " tile tasks, " << info.items_live_at_end
              << " items left after get-count GC)\n";
  }
  {
    // Freeze the dependence DAG once, replay it on a fresh instance — the
    // batch-serving path (see src/server) for repeated same-shape queries.
    auto structural = make_spec();
    const exec::prepared_graph graph =
        exec::prepared_graph::freeze_batched(*structural,
                                             pool.worker_count());
    auto spec = make_spec();
    stopwatch t;
    graph.execute(*spec, pool);
    check("prepared (batched): ", t.millis());
  }

  std::cout << "\n" << (ok ? "all models agree." : "MISMATCH!") << "\n";
  return ok ? 0 : 1;
}
