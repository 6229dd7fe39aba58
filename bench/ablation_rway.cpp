// Ablation: parametric r-way recursion (§I-A / refs [15-19]) — how the
// branching factor of the fork-join recursion changes the artificial-
// dependency span and the simulated many-core execution time of GE.
//
// Higher r means shallower recursion with wider parallel stages: more
// tasks released per join, so the fork-join DAG's span approaches the
// data-flow DAG's. This quantifies how much of the 2-way model's handicap
// is the *binary* decomposition rather than fork-join itself.
#include <iostream>
#include <string>

#include "dp/registry.hpp"
#include "exec/dag.hpp"
#include "sim/des.hpp"
#include "sim/machine.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/table_printer.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  std::int64_t tiles = 64, base = 64;
  std::string csv_path = "ablation_rway.csv";
  cli_parser cli("r-way recursion ablation for GE (fork-join span vs r)");
  cli.add_int("tiles", &tiles, "tiles per side, must be a power of 2 "
                               "divisible by every r (default 64)");
  cli.add_int("base", &base, "base-case size in elements (default 64)");
  cli.add_string("csv", &csv_path, "CSV output path");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const auto t = static_cast<std::size_t>(tiles);
  const auto b = static_cast<std::size_t>(base);

  std::cout << "=== r-way ablation: GE fork-join DAG, " << t << "x" << t
            << " tiles of " << b << " ===\n\n";

  const auto ge = dp::make_tile_scale_spec(dp::benchmark_id::ge, t);
  const auto df = trace::analyze_work_span(exec::dataflow_dag(*ge, b));
  const auto mach = sim::epyc64();
  auto dur = [&](const trace::task_node& node) {
    return static_cast<double>(node.work) * mach.model.flop_time_s;
  };

  table_printer table({"r", "span (updates)", "parallelism",
                       "span / dataflow-span", "DES time @64c (s)"});
  csv_writer csv({"r", "span", "parallelism", "span_ratio", "des_seconds"});

  for (std::size_t r : {2ull, 4ull, 8ull, 16ull, 64ull}) {
    if (!dp::splits_evenly(t, 1, r)) continue;  // tiles must be r^L
    const auto g = exec::forkjoin_dag(*ge, b, r);
    const auto ws = trace::analyze_work_span(g);
    const auto des = sim::simulate(g, mach.cores, dur);
    table.add_row({std::to_string(r), table_printer::num(ws.span),
                   table_printer::num(ws.parallelism()),
                   table_printer::num(ws.span / df.span),
                   table_printer::num(des.makespan)});
    csv.add_row({std::to_string(r), table_printer::num(ws.span, 9),
                 table_printer::num(ws.parallelism(), 6),
                 table_printer::num(ws.span / df.span, 6),
                 table_printer::num(des.makespan, 9)});
  }
  table.add_row({"dataflow", table_printer::num(df.span),
                 table_printer::num(df.parallelism()), "1", ""});

  table.print(std::cout);
  std::cout << "\nExpected: span shrinks towards the data-flow span as r "
               "grows (r = tiles degenerates to round-level barriers).\n";
  csv.save(csv_path);
  std::cout << "wrote " << csv_path << "\n";
  return 0;
}
