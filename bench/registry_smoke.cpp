// Registry smoke check (CI): enumerate the variant registry, run every
// entry on a small instance, and require each table to be bit-identical to
// the serial 2-way R-DP reference. Exits 1 on the first mismatch, so a
// registry row whose lowering drifts from the recurrence spec fails fast.
//
// The default (n=128, base=8) keeps every backend in play: power-of-two for
// the 2-way/data-flow rows, divisible for tiled, and 128 = 8·4² so even
// rway:r4 runs.
//
// With --report=FILE the same registry sweep is also *measured*: every
// variant (serial included — it is the --normalize anchor of
// bench/report_compare) runs --reps timed repetitions with a fresh
// metrics-registry window, and the result is written as a structured run
// report. This is the producer half of the CI perf gate.
//
// --bench=NAME narrows both passes to one benchmark (ge, sw, fw, lcs,
// paren), so a large shape can be checked and timed without sweeping the
// other four.
#include <algorithm>
#include <cctype>
#include <iterator>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "dp/dp.hpp"
#include "forkjoin/worker_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "support/assertions.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

int g_failures = 0;

void report(benchmark_id bm, const variant& v, bool ok) {
  std::cout << "  " << to_string(bm) << " × " << v.label << ": "
            << (ok ? "ok" : "MISMATCH") << "\n";
  if (!ok) ++g_failures;
}

/// Run every registry variant of `bm` and compare against the serial row.
/// `reset` restores the input, `run_serial_ref` fills the oracle once.
/// Comma-separated substring filter for the measurement pass ("" = all).
bool label_selected(std::string_view label, const std::string& csv) {
  if (csv.empty()) return true;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string part = csv.substr(
        pos, comma == std::string::npos ? csv.size() - pos : comma - pos);
    if (!part.empty() && label.find(part) != std::string::npos) return true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return false;
}

template <class Table, class Reset>
void smoke(benchmark_id bm, const problem_ref& prob, const run_options& opts,
           Table& table, const Reset& reset, int reps,
           rdp::obs::run_report* rep, const std::string& measure_impls) {
  const std::size_t n = problem_size(prob);
  const variant* serial = find_variant(bm, "serial");
  RDP_REQUIRE(serial != nullptr && serial->supports(n, opts.base));
  reset();
  serial->run(*serial, prob, opts);
  const Table oracle = table;

  for (const variant* v : variants_for(bm)) {
    if (v == serial) continue;
    if (!v->supports(n, opts.base)) {
      std::cout << "  " << to_string(bm) << " × " << v->label
                << ": skipped (preconditions)\n";
      continue;
    }
    reset();
    v->run(*v, prob, opts);
    report(bm, *v, table == oracle);
  }

  if (rep == nullptr) return;
  // Measurement pass, after correctness: timed repetitions per variant with
  // a metrics window per entry.
  for (const variant* v : variants_for(bm)) {
    if (!v->supports(n, opts.base)) continue;
    // Serial always rides along: it is report_compare's --normalize anchor.
    if (v->label != "serial" && !label_selected(v->label, measure_impls))
      continue;
    // Advance the pool's publish baseline past anything accrued before this
    // window, then zero the registry: the window sees only its own deltas.
    if (opts.pool != nullptr) opts.pool->publish_metrics();
    obs::metrics_registry::instance().reset();
    std::vector<double> wall;
    for (int r = 0; r < reps; ++r) {
      reset();
      stopwatch sw;
      v->run(*v, prob, opts);
      wall.push_back(sw.seconds() * 1e3);
    }
    obs::report_entry e;
    e.benchmark = to_string(bm);
    e.impl = v->label;
    e.n = n;
    e.base = opts.base;
    e.workers = opts.workers;
    e.wall_ms = std::move(wall);
    // The pool stays alive across entries: fold its counters into the
    // registry before reading this entry's window.
    if (opts.pool != nullptr) opts.pool->publish_metrics();
    e.metrics = obs::metrics_registry::instance().snapshot();
    rep->entries.push_back(std::move(e));
  }
}

}  // namespace

/// Case-insensitive match of a benchmark name ("" selects every benchmark).
bool bench_selected(benchmark_id bm, const std::string& name) {
  if (name.empty()) return true;
  const std::string_view label = to_string(bm);
  if (label.size() != name.size()) return false;
  for (std::size_t i = 0; i < name.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(label[i])) !=
        std::tolower(static_cast<unsigned char>(name[i])))
      return false;
  return true;
}

int main(int argc, char** argv) {
  std::int64_t n = 128, base = 8, workers = 4, reps = 3;
  std::string report_path, measure_impls, bench;
  cli_parser cli("Variant-registry smoke check: every backend vs serial");
  cli.add_int("n", &n, "problem size (default 128)");
  cli.add_int("base", &base, "base-case size (default 8)");
  cli.add_int("workers", &workers, "worker threads (default 4)");
  cli.add_string("report", &report_path,
                 "also measure every variant and write a "
                 "structured run report (JSON) here — the input of "
                 "bench/report_compare and the CI perf gate");
  cli.add_int("reps", &reps,
              "wall-clock repetitions per --report entry (default 3)");
  cli.add_string("impl", &measure_impls,
                 "comma-separated label substrings selecting which variants "
                 "the --report measurement pass times (default: all; the "
                 "correctness sweep always covers every row of the selected "
                 "benchmarks, and serial is always measured as the "
                 "--normalize anchor)");
  cli.add_string("bench", &bench,
                 "run only this benchmark (ge, sw, fw, lcs or paren), in "
                 "both the correctness sweep and the measurement pass "
                 "(default: all five)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (reps < 1) {
    std::cerr << "--reps must be at least 1\n";
    return 2;
  }
  constexpr benchmark_id kBenchmarks[] = {benchmark_id::ge, benchmark_id::sw,
                                          benchmark_id::fw, benchmark_id::lcs,
                                          benchmark_id::paren};
  if (std::none_of(std::begin(kBenchmarks), std::end(kBenchmarks),
                   [&](benchmark_id bm) { return bench_selected(bm, bench); })) {
    std::cerr << "--bench must be one of ge, sw, fw, lcs, paren (got '"
              << bench << "')\n";
    return 2;
  }
  if (!report_path.empty()) {
    // Validate the destination before the run, not after (append-mode probe
    // creates a missing file but clobbers nothing).
    std::ofstream probe(report_path, std::ios::app);
    if (!probe) {
      std::cerr << "--report destination is not writable: " << report_path
                << "\n";
      return 2;
    }
  }

  std::cout << "registry: " << registry().size() << " variants, "
            << variants_for(benchmark_id::ge).size()
            << " per benchmark (" << impl_help() << ")\n";

  forkjoin::worker_pool pool(static_cast<unsigned>(workers));
  run_options opts;
  opts.base = static_cast<std::size_t>(base);
  opts.workers = static_cast<unsigned>(workers);
  opts.pool = &pool;

  obs::run_report run_rep;
  run_rep.tool = "registry_smoke";
  run_rep.git_sha = obs::build_git_sha();
  run_rep.repetitions = static_cast<std::uint32_t>(reps);
  obs::run_report* rep = report_path.empty() ? nullptr : &run_rep;
  const int rep_count = static_cast<int>(reps);

  if (bench_selected(benchmark_id::ge, bench)) {
    auto m = make_diag_dominant(static_cast<std::size_t>(n), 1);
    const auto input = m;
    smoke(benchmark_id::ge, ge_problem(m), opts, m, [&] { m = input; },
          rep_count, rep, measure_impls);
  }
  if (bench_selected(benchmark_id::sw, bench)) {
    const auto a = make_dna(static_cast<std::size_t>(n), 7);
    const auto b = make_dna(static_cast<std::size_t>(n), 8);
    const sw_params p;
    matrix<std::int32_t> s(n + 1, n + 1, 0);
    smoke(benchmark_id::sw, sw_problem(s, a, b, p), opts, s,
          [&] { s = matrix<std::int32_t>(n + 1, n + 1, 0); }, rep_count, rep,
          measure_impls);
  }
  if (bench_selected(benchmark_id::fw, bench)) {
    auto m = make_digraph(static_cast<std::size_t>(n), 0.3, 5, 1e9);
    for (std::size_t i = 0; i < m.size(); ++i)
      m.data()[i] = static_cast<double>(static_cast<long long>(m.data()[i]));
    const auto input = m;
    smoke(benchmark_id::fw, fw_problem(m), opts, m, [&] { m = input; },
          rep_count, rep, measure_impls);
  }
  if (bench_selected(benchmark_id::lcs, bench)) {
    const auto a = make_dna(static_cast<std::size_t>(n), 11);
    const auto b = make_dna(static_cast<std::size_t>(n), 12);
    matrix<std::int32_t> s(n + 1, n + 1, 0);
    smoke(benchmark_id::lcs, lcs_problem(s, a, b), opts, s,
          [&] { s = matrix<std::int32_t>(n + 1, n + 1, 0); }, rep_count, rep,
          measure_impls);
  }
  if (bench_selected(benchmark_id::paren, bench)) {
    // Integer-valued chain dimensions keep every candidate cost exact (the
    // bit-exactness gate does not depend on it — min over a fixed candidate
    // set is evaluation-order-free — but exact inputs make diffs readable).
    xoshiro256 gen(13);
    std::vector<double> dims(static_cast<std::size_t>(n) + 1);
    for (double& d : dims) d = static_cast<double>(1 + gen.next() % 100);
    matrix<double> c(static_cast<std::size_t>(n),
                     static_cast<std::size_t>(n), 0.0);
    smoke(benchmark_id::paren, paren_problem(c, dims), opts, c,
          [&] {
            c = matrix<double>(static_cast<std::size_t>(n),
                               static_cast<std::size_t>(n), 0.0);
          },
          rep_count, rep, measure_impls);
  }

  if (g_failures > 0) {
    std::cerr << g_failures << " variant(s) diverged from serial\n";
    return 1;
  }
  std::cout << "all registry variants bit-identical to serial\n";
  if (rep != nullptr) {
    obs::write_report_file(report_path, run_rep);
    std::cout << "wrote run report (" << run_rep.entries.size()
              << " entries, " << run_rep.repetitions << " reps each) to "
              << report_path << "\n";
  }
  return 0;
}
