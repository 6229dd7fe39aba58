// Domain example: all-pairs shortest paths on a synthetic road network
// with Floyd-Warshall in both execution models.
//
//   $ ./apsp_roads --grid=16 --workers=4
//
// Builds a grid road network (intersections connected to their neighbours
// with asymmetric travel times, a few closed roads), pads the distance
// matrix to a power of two for the R-DP recursion, computes APSP with the
// fork-join and data-flow models, verifies they agree, and answers a few
// example route queries.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "dp/dp.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/cli.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

constexpr double kInf = 1.0e9;

/// Grid road network: node (r,c) connects to 4-neighbours with integer
/// travel times 1..9 per direction; ~5% of road segments are closed.
rdp::matrix<double> make_road_network(std::size_t grid, std::size_t padded,
                                      std::uint64_t seed) {
  rdp::matrix<double> w(padded, padded, kInf);
  for (std::size_t v = 0; v < padded; ++v) w(v, v) = 0.0;
  rdp::xoshiro256 rng(seed);
  auto id = [grid](std::size_t r, std::size_t c) { return r * grid + c; };
  for (std::size_t r = 0; r < grid; ++r)
    for (std::size_t c = 0; c < grid; ++c) {
      auto connect = [&](std::size_t r2, std::size_t c2) {
        if (rng.uniform() < 0.05) return;  // closed road
        w(id(r, c), id(r2, c2)) = std::floor(rng.uniform(1.0, 10.0));
      };
      if (r + 1 < grid) connect(r + 1, c);
      if (r > 0) connect(r - 1, c);
      if (c + 1 < grid) connect(r, c + 1);
      if (c > 0) connect(r, c - 1);
    }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rdp;
  std::int64_t grid = 16, base = 64, workers = 4;
  cli_parser cli("All-pairs shortest travel times on a synthetic road grid");
  cli.add_int("grid", &grid, "grid side length (default 16 -> 256 nodes)");
  cli.add_int("base", &base, "R-DP base size (default 64)");
  cli.add_int("workers", &workers, "worker threads (default 4)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  const auto nodes = static_cast<std::size_t>(grid * grid);
  const std::size_t padded = round_up_pow2(nodes);
  std::cout << grid << "x" << grid << " road grid: " << nodes
            << " intersections (padded to " << padded
            << " for the 2-way recursion)\n\n";

  const auto input = make_road_network(static_cast<std::size_t>(grid),
                                       padded, 99);
  const auto tile = static_cast<std::size_t>(base);

  forkjoin::worker_pool pool(static_cast<unsigned>(workers));

  auto d_fj = input;
  {
    stopwatch t;
    exec::run_forkjoin(*dp::make_fw_spec(d_fj, tile), pool);
    std::cout << "fork-join R-DP APSP:  " << t.millis() << " ms\n";
  }

  auto d_df = input;
  {
    stopwatch t;
    const auto info = exec::run_dataflow(*dp::make_fw_spec(d_df, tile),
                                         {dp::cnc_variant::tuner, &pool});
    std::cout << "data-flow APSP:       " << t.millis() << " ms  ("
              << info.stats.steps_executed << " tile tasks)\n";
  }

  if (!(d_fj == d_df)) {
    std::cerr << "models disagree!\n";
    return 1;
  }

  std::cout << "\nroute queries (corner-to-corner and friends):\n";
  auto id = [&](std::size_t r, std::size_t c) {
    return r * static_cast<std::size_t>(grid) + c;
  };
  const auto g = static_cast<std::size_t>(grid);
  const std::pair<std::size_t, std::size_t> queries[] = {
      {id(0, 0), id(g - 1, g - 1)},
      {id(0, g - 1), id(g - 1, 0)},
      {id(g / 2, 0), id(g / 2, g - 1)},
      {id(0, 0), id(0, 0)},
  };
  for (const auto& [from, to] : queries) {
    const double d = d_fj(from, to);
    std::cout << "  " << std::setw(4) << from << " -> " << std::setw(4) << to
              << " : ";
    if (d >= kInf * 0.5)
      std::cout << "unreachable\n";
    else
      std::cout << d << " minutes\n";
  }

  // Sanity: grid distance is a lower bound on travel time (min weight 1).
  const double corner = d_fj(id(0, 0), id(g - 1, g - 1));
  if (corner < kInf * 0.5 &&
      corner < static_cast<double>(2 * (g - 1))) {
    std::cerr << "\nimpossible: travel time below Manhattan lower bound\n";
    return 1;
  }
  std::cout << "\nboth execution models agree on all " << nodes * nodes
            << " pairs.\n";
  return 0;
}
