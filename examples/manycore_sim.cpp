// Example: explore the fork-join vs data-flow crossover on simulated
// many-core machines — the experiment you cannot run on a laptop.
//
//   $ ./manycore_sim --benchmark=ge --n=4096 --base=256
//
// For the chosen benchmark and problem, sweeps simulated core counts and
// prints both models' predicted times, utilisation, and the winner; then
// shows the fixed-machine view (EPYC-64) across problem sizes.
#include <iostream>
#include <string>

#include "dp/registry.hpp"
#include "sim/experiment.hpp"
#include "support/cli.hpp"
#include "support/table_printer.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  std::string bm_name = "ge";
  std::int64_t n = 4096, base = 256;
  cli_parser cli("Many-core crossover explorer (simulated machines)");
  cli.add_string("benchmark", &bm_name, "ge | sw | fw (default ge)");
  cli.add_int("n", &n, "problem size (default 4096)");
  cli.add_int("base", &base, "base-case size (default 256)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  sim::benchmark bm;
  dp::benchmark_id id;
  if (bm_name == "ge") {
    bm = sim::benchmark::ge;
    id = dp::benchmark_id::ge;
  } else if (bm_name == "sw") {
    bm = sim::benchmark::sw;
    id = dp::benchmark_id::sw;
  } else if (bm_name == "fw") {
    bm = sim::benchmark::fw;
    id = dp::benchmark_id::fw;
  } else {
    std::cerr << "unknown benchmark: " << bm_name << "\n";
    return 2;
  }

  std::cout << "=== " << sim::to_string(bm) << " " << n << ", base " << base
            << ": what would happen on a bigger machine? ===\n\n";

  table_printer sweep({"cores", "OpenMP (s)", "CnC_tuner (s)", "winner",
                       "OMP util", "CnC util"});
  const auto b = static_cast<std::size_t>(base);
  const auto spec =
      dp::make_tile_scale_spec(id, static_cast<std::size_t>(n) / b);
  for (unsigned cores : {4u, 8u, 16u, 32u, 64u, 128u, 192u}) {
    const auto mach = sim::with_cores(sim::skylake192(), cores);
    const auto omp = sim::simulate_variant(
        *spec, sim::exec_variant::omp_tasking, b, mach);
    const auto cnc =
        sim::simulate_variant(*spec, sim::exec_variant::cnc_tuner, b, mach);
    sweep.add_row({std::to_string(cores), table_printer::num(omp.seconds),
                   table_printer::num(cnc.seconds),
                   omp.seconds <= cnc.seconds ? "fork-join" : "data-flow",
                   table_printer::num(omp.utilization),
                   table_printer::num(cnc.utilization)});
  }
  sweep.print(std::cout);

  std::cout << "\nFixed machine (EPYC-64), growing problem size:\n";
  table_printer fixed({"n", "OpenMP (s)", "CnC_tuner (s)", "winner"});
  const auto epyc = sim::epyc64();
  for (std::size_t size = 1024; size <= 16384; size *= 2) {
    if (size < b) continue;
    const auto tiles = dp::make_tile_scale_spec(id, size / b);
    const auto omp = sim::simulate_variant(
        *tiles, sim::exec_variant::omp_tasking, b, epyc);
    const auto cnc =
        sim::simulate_variant(*tiles, sim::exec_variant::cnc_tuner, b, epyc);
    fixed.add_row({std::to_string(size), table_printer::num(omp.seconds),
                   table_printer::num(cnc.seconds),
                   omp.seconds <= cnc.seconds ? "fork-join" : "data-flow"});
  }
  fixed.print(std::cout);
  std::cout << "\nThe paper's findings: data-flow wins when tasks are too "
               "few for the cores (small problems, big machines); fork-join "
               "recovers on big problems — except Smith-Waterman, whose "
               "joins destroy wavefront parallelism at every size.\n";
  return 0;
}
