// Export the task DAGs of a small problem as Graphviz DOT — the quickest
// way to *see* the artificial dependencies: render the fork-join and
// data-flow graphs of the same benchmark side by side. Both graphs are
// derived from the benchmark's recurrence spec (exec/dag.hpp), the same
// derivation the simulator prices.
//
//   $ ./dag_export --benchmark=sw --tiles=4 --out-prefix=sw4
//   $ dot -Tsvg sw4_forkjoin.dot > fj.svg && dot -Tsvg sw4_dataflow.dot > df.svg
//
// Exits 1 when either graph fails task_graph::validate().
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "dp/registry.hpp"
#include "exec/dag.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  std::string bm = "sw", prefix = "dag";
  std::int64_t tiles = 4, base = 8;
  cli_parser cli("Export fork-join and data-flow task DAGs as DOT");
  cli.add_string("benchmark", &bm, "ge | sw | fw (default sw)");
  cli.add_int("tiles", &tiles, "tiles per side, power of two (default 4)");
  cli.add_int("base", &base, "base size, for task work labels (default 8)");
  cli.add_string("out-prefix", &prefix, "output file prefix (default dag)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const auto t = static_cast<std::size_t>(tiles);
  const auto b = static_cast<std::size_t>(base);

  dp::benchmark_id id;
  if (bm == "ge") {
    id = dp::benchmark_id::ge;
  } else if (bm == "sw") {
    id = dp::benchmark_id::sw;
  } else if (bm == "fw") {
    id = dp::benchmark_id::fw;
  } else {
    std::cerr << "unknown benchmark: " << bm << "\n";
    return 2;
  }
  const auto spec = dp::make_tile_scale_spec(id, t);
  const trace::task_graph fj = exec::forkjoin_dag(*spec, b);
  const trace::task_graph df = exec::dataflow_dag(*spec, b);

  for (const auto& [graph, kind] :
       {std::pair<const trace::task_graph&, const char*>{fj, "forkjoin"},
        {df, "dataflow"}}) {
    try {
      graph.validate();
    } catch (const std::exception& e) {
      std::cerr << kind << " DAG is invalid: " << e.what() << "\n";
      return 1;
    }
    const std::string path = prefix + "_" + kind + ".dot";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    graph.write_dot(out, bm + "_" + kind);
    const auto ws = trace::analyze_work_span(graph);
    std::cout << path << ": " << graph.node_count() << " nodes ("
              << graph.base_task_count() << " base tasks), "
              << graph.edge_count() << " edges, span " << ws.span
              << ", parallelism " << ws.parallelism() << "\n";
  }
  std::cout << "\nrender with:  dot -Tsvg " << prefix
            << "_forkjoin.dot > fj.svg\n";
  return 0;
}
