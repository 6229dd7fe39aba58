// Domain example: DNA local alignment with Smith-Waterman — the workload
// where the paper's data-flow advantage is largest (wavefront parallelism
// that fork-join joins destroy).
//
//   $ ./sequence_align --n=1024 --base=64 --workers=4
//
// Aligns two synthetic DNA reads that share an implanted common segment,
// in both execution models, and reports the local-alignment score, where
// the alignment ends, and the runtime statistics of each model.
#include <iostream>
#include <string>

#include "dp/dp.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

// Implant a shared segment so the alignment is biologically meaningful.
void implant(std::string& a, std::string& b, const std::string& segment,
             std::size_t pos_a, std::size_t pos_b) {
  a.replace(pos_a, segment.size(), segment);
  b.replace(pos_b, segment.size(), segment);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rdp;
  std::int64_t n = 1024, base = 64, workers = 4;
  cli_parser cli("Smith-Waterman local alignment of two DNA reads");
  cli.add_int("n", &n, "sequence length (power of two, default 1024)");
  cli.add_int("base", &base, "tile size (power of two, default 64)");
  cli.add_int("workers", &workers, "worker threads (default 4)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const auto len = static_cast<std::size_t>(n);
  const auto tile = static_cast<std::size_t>(base);

  auto a = make_dna(len, 101);
  auto b = make_dna(len, 202);
  const auto segment = make_dna(len / 8, 303);
  implant(a, b, segment, len / 4, len / 2);

  const dp::sw_params params;  // match +2, mismatch -1, gap -1
  std::cout << "aligning two " << len << "bp reads sharing a " << len / 8
            << "bp segment (match +" << params.match << ", mismatch "
            << params.mismatch << ", gap -" << params.gap << ")\n\n";

  forkjoin::worker_pool pool(static_cast<unsigned>(workers));

  // Fork-join R-DP fill.
  matrix<std::int32_t> s_fj(len + 1, len + 1, 0);
  {
    stopwatch t;
    exec::run_forkjoin(*dp::make_sw_spec(s_fj, a, b, params, tile), pool);
    std::cout << "fork-join R-DP fill:  " << t.millis() << " ms\n";
  }

  // Data-flow wavefront fill.
  matrix<std::int32_t> s_df(len + 1, len + 1, 0);
  {
    stopwatch t;
    const auto info =
        exec::run_dataflow(*dp::make_sw_spec(s_df, a, b, params, tile),
                           {dp::cnc_variant::tuner, &pool});
    std::cout << "data-flow fill:       " << t.millis() << " ms  ("
              << info.stats.steps_executed << " tile tasks, "
              << info.stats.gets_failed << " failed gets)\n";
  }

  if (!(s_fj == s_df)) {
    std::cerr << "models disagree!\n";
    return 1;
  }

  // Locate the best local alignment (maximum cell).
  std::int32_t best = 0;
  std::size_t bi = 0, bj = 0;
  for (std::size_t i = 0; i <= len; ++i)
    for (std::size_t j = 0; j <= len; ++j)
      if (s_fj(i, j) > best) {
        best = s_fj(i, j);
        bi = i;
        bj = j;
      }

  const auto linear = dp::sw_linear_space_score(a, b, params);
  std::cout << "\nlocal alignment score " << best << " (O(n)-space scorer: "
            << linear << "), ending at a[" << bi << "], b[" << bj << "]\n"
            << "expected: score >= 2*" << len / 8 << " = " << 2 * (len / 8)
            << " from the implanted segment -> "
            << (best >= static_cast<std::int32_t>(2 * (len / 8) - 16)
                    ? "found it"
                    : "weak")
            << "\n";
  return best == linear ? 0 : 1;
}
