// E-X1: the paper's second headline claim (§IV-B / abstract) isolated —
// "for a fixed size problem, moving the computation to a compute node with
// a larger number of cores, data-flow implementation outperforms the
// corresponding fork-join implementation."
//
// Sweeps the core count on the SKYLAKE-derived profile for fixed GE and FW
// problems and prints the OpenMP and CnC_tuner times plus their ratio: the
// ratio must cross 1 as cores grow.
#include <iostream>
#include <string>
#include <utility>

#include "dp/registry.hpp"
#include "sim/experiment.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/table_printer.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  std::string csv_path = "xover_cores.csv";
  std::int64_t n = 4096, base = 256;
  cli_parser cli("Core-count crossover sweep (E-X1)");
  cli.add_string("csv", &csv_path, "CSV output path");
  cli.add_int("n", &n, "problem size (default 4096)");
  cli.add_int("base", &base, "base-case size (default 256)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::cout << "=== E-X1: fixed problem, growing core count (GE & FW-APSP, "
            << "n=" << n << ", base=" << base << ") ===\n\n";
  csv_writer csv({"benchmark", "cores", "OpenMP_s", "CnC_tuner_s",
                  "cnc_over_omp"});

  const auto tiles = static_cast<std::size_t>(n / base);
  for (const auto& [bm, id] :
       {std::pair{sim::benchmark::ge, dp::benchmark_id::ge},
        std::pair{sim::benchmark::fw, dp::benchmark_id::fw}}) {
    const auto spec = dp::make_tile_scale_spec(id, tiles);
    table_printer table({"cores", "OpenMP (s)", "CnC_tuner (s)",
                         "CnC/OMP ratio", "OMP util", "CnC util"});
    for (unsigned cores : {8u, 16u, 32u, 64u, 96u, 128u, 192u, 256u}) {
      const auto mach = sim::with_cores(sim::skylake192(), cores);
      const auto omp = sim::simulate_variant(
          *spec, sim::exec_variant::omp_tasking, base, mach);
      const auto cnc = sim::simulate_variant(
          *spec, sim::exec_variant::cnc_tuner, base, mach);
      const double ratio = cnc.seconds / omp.seconds;
      table.add_row({std::to_string(cores), table_printer::num(omp.seconds),
                     table_printer::num(cnc.seconds),
                     table_printer::num(ratio),
                     table_printer::num(omp.utilization),
                     table_printer::num(cnc.utilization)});
      csv.add_row({sim::to_string(bm), std::to_string(cores),
                   table_printer::num(omp.seconds, 9),
                   table_printer::num(cnc.seconds, 9),
                   table_printer::num(ratio, 6)});
    }
    std::cout << sim::to_string(bm) << "\n";
    table.print(std::cout);
    std::cout << "(ratio < 1 means data-flow wins; expected to fall below 1 "
                 "as cores grow while fork-join utilisation collapses)\n\n";
  }
  csv.save(csv_path);
  std::cout << "wrote " << csv_path << "\n";
  return 0;
}
