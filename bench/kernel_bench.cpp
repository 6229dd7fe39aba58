// Base-kernel throughput: scalar (reference) vs register-blocked SIMD
// implementations of the three DP update kernels, in cell-updates per
// second, plus the exactness gate the CI perf-smoke job keys on.
//
// Two parts:
//  1. Verification (always, and alone under --check): run the full serial
//     recursion once per kernel implementation on identical inputs and
//     require bit-identical tables (GE, FW) / identical score tables (SW).
//     Any mismatch exits non-zero — THIS is the CI failure condition;
//     timing never is (shared runners make timing assertions flaky).
//  2. Timing: per-kernel-invocation throughput on a D-kind tile (the
//     steady-state shape: updated region disjoint from the pivot region)
//     for a sweep of base sizes, written as CSV for the results/ archive.
//  3. In-place SW sweeps (always; timed unless --check): every base tile
//     of an SW 2048/32 table, run in place through the spec's run_base in
//     three visiting orders — the spec's serial recursion (the Z-order
//     serial and fork-join walk), anti-diagonals (data-flow's wavefront
//     order) and row-major. A hot tile (part 2) stays in cache; a sweep
//     writes each tile's rows into a 16 MB table, so it shows what the
//     visiting order costs the kernel. Each order's table must equal
//     sw_loop_serial's, or the run exits non-zero.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "dp/dp.hpp"
#include "dp/kernels.hpp"
#include "dp/tuning.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table_printer.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

/// Serial-recursion output of one kernel implementation on the shared input.
template <class Run>
bool tables_match(const char* name, Run&& run_with_impl) {
  const auto scalar = run_with_impl(kernel_impl::scalar);
  const auto blocked = run_with_impl(kernel_impl::blocked);
  const bool ok =
      scalar.size() == blocked.size() &&
      std::memcmp(scalar.data(), blocked.data(),
                  scalar.size() * sizeof(*scalar.data())) == 0;
  std::cout << name << ": " << (ok ? "exact" : "MISMATCH") << "\n";
  return ok;
}

bool verify_all() {
  bool ok = true;
  for (std::size_t base : {16u, 64u}) {
    const std::string suffix = " (n=256, base=" + std::to_string(base) + ")";
    ok &= tables_match(("GE blocked vs scalar" + suffix).c_str(),
                      [base](kernel_impl impl) {
                        set_kernel_impl(impl);
                        auto m = make_diag_dominant(256, 17);
                        exec::run_serial(*make_ge_spec(m, base));
                        return m;
                      });
    ok &= tables_match(("FW blocked vs scalar" + suffix).c_str(),
                      [base](kernel_impl impl) {
                        set_kernel_impl(impl);
                        auto m = make_digraph(256, 0.3, 23, 1e9);
                        exec::run_serial(*make_fw_spec(m, base));
                        return m;
                      });
    ok &= tables_match(("SW blocked vs scalar" + suffix).c_str(),
                      [base](kernel_impl impl) {
                        set_kernel_impl(impl);
                        const auto a = make_dna(256, 29);
                        const auto b = make_dna(256, 31);
                        matrix<std::int32_t> s(257, 257, 0);
                        exec::run_serial(
                            *make_sw_spec(s, a, b, sw_params{}, base));
                        return s;
                      });
  }
  set_kernel_impl(kernel_impl::blocked);
  return ok;
}

/// Median-of-reps cell rate of `fn`, which updates `cells` cells per call.
template <class Fn>
double mcells_per_sec(Fn&& fn, double cells) {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    stopwatch t;
    int calls = 0;
    while (t.seconds() < 0.15) {
      fn();
      ++calls;
    }
    best = std::max(best, cells * calls / t.seconds() / 1e6);
  }
  return best;
}

struct bench_row {
  std::string kernel;
  std::size_t base;
  double scalar_mcells;
  double blocked_mcells;
};

std::vector<bench_row> run_timings() {
  std::vector<bench_row> rows;
  constexpr std::size_t n = 1024;
  // D-kind offsets: the updated tile, the pivot tile and (for GE/FW) the
  // row/column strips are pairwise disjoint for every base size below.
  constexpr std::size_t i0 = 512, j0 = 256, k0 = 0;
  for (std::size_t b : {32u, 64u, 128u}) {
    auto ge = make_diag_dominant(n, 3);
    rows.push_back(
        {"GE", b,
         mcells_per_sec(
             [&] { ge_base_kernel(ge.data(), n, i0, j0, k0, b); },
             static_cast<double>(b) * b * b),
         mcells_per_sec(
             [&] { ge_base_kernel_blocked(ge.data(), n, i0, j0, k0, b); },
             static_cast<double>(b) * b * b)});
    auto fw = make_digraph(n, 0.3, 3, 1e9);
    rows.push_back(
        {"FW", b,
         mcells_per_sec(
             [&] { fw_base_kernel(fw.data(), n, i0, j0, k0, b); },
             static_cast<double>(b) * b * b),
         mcells_per_sec(
             [&] { fw_base_kernel_blocked(fw.data(), n, i0, j0, k0, b); },
             static_cast<double>(b) * b * b)});
  }
  const auto a = make_dna(n, 1);
  const auto bs = make_dna(n, 2);
  const sw_params p;
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  for (std::size_t b : {64u, 128u, 256u}) {
    rows.push_back(
        {"SW", b,
         mcells_per_sec(
             [&] { sw_base_kernel(s.data(), n + 1, a, bs, p, 256, 512, b); },
             static_cast<double>(b) * b),
         mcells_per_sec(
             [&] {
               sw_base_kernel_blocked(s.data(), n + 1, a, bs, p, 256, 512, b);
             },
             static_cast<double>(b) * b)});
  }
  return rows;
}

// ------------------------------------------------- in-place SW sweeps ----

struct sweep_row {
  const char* order;
  double min_ms;
  double median_ms;
};

/// Base tiles of `rec` in the order its serial recursion runs them: the
/// flattened stages of split() from root().
void collect_recursion_order(const recurrence& rec, const tile4& t,
                             std::vector<tile4>& out) {
  if (rec.is_base(t)) {
    out.push_back(t);
    return;
  }
  const split_plan plan = rec.split(t);
  for (std::size_t c = 0; c < plan.child_count; ++c)
    collect_recursion_order(rec, plan.children[c], out);
}

/// Sweep an SW n/base table in place in each visiting order and check it
/// against sw_loop_serial; with `reps` > 0 also time `reps` interleaved
/// sweeps per order. Returns false on a mismatch.
bool sw_order_sweeps(std::size_t n, std::size_t base, int reps,
                     std::vector<sweep_row>& rows) {
  const auto a = make_dna(n, 5);
  const auto bs = make_dna(n, 6);
  const sw_params p;
  // The oracle runs the scalar reference loop, so the check does not lean
  // on the blocked kernel it gates.
  matrix<std::int32_t> oracle(n + 1, n + 1, 0);
  set_kernel_impl(kernel_impl::scalar);
  sw_loop_serial(oracle, a, bs, p);
  set_kernel_impl(kernel_impl::blocked);
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  const auto rec = make_sw_spec(s, a, bs, p, base);

  std::vector<tile4> recursive;
  collect_recursion_order(*rec, rec->root(), recursive);
  std::vector<tile4> row_major;
  auto push = [&](const tile4& t) { row_major.push_back(t); };
  rec->enumerate_base(tag_sink(push));  // (i, j) lexicographic
  std::vector<tile4> anti_diagonal = row_major;
  std::stable_sort(anti_diagonal.begin(), anti_diagonal.end(),
                   [](const tile4& x, const tile4& y) {
                     return x.i + x.j < y.i + y.j;
                   });
  const std::pair<const char*, const std::vector<tile4>*> orders[] = {
      {"recursive", &recursive},
      {"anti-diagonal", &anti_diagonal},
      {"row-major", &row_major},
  };

  auto same_as_oracle = [&](const char* what) {
    const bool ok = std::memcmp(s.data(), oracle.data(),
                                s.size() * sizeof(*s.data())) == 0;
    std::cout << "SW in-place " << what << " (n=" << n << ", base=" << base
              << "): " << (ok ? "exact" : "MISMATCH") << "\n";
    return ok;
  };
  bool ok = true;
  // The capped whole-table path (one tile of side n) against the reference.
  std::fill(s.data(), s.data() + s.size(), 0);
  sw_loop_serial(s, a, bs, p);
  ok &= same_as_oracle("sw_loop_serial blocked");
  std::vector<std::vector<double>> ms(std::size(orders));
  for (int rep = 0; rep <= reps; ++rep) {
    for (std::size_t o = 0; o < std::size(orders); ++o) {
      // Each sweep rewrites every cell with the same value, so only the
      // first needs a zeroed table; later ones time the steady state.
      if (rep == 0) std::fill(s.data(), s.data() + s.size(), 0);
      stopwatch t;
      for (const tile4& tile : *orders[o].second) rec->run_base(tile);
      if (rep == 0)
        ok &= same_as_oracle(orders[o].first);
      else
        ms[o].push_back(t.seconds() * 1e3);
    }
  }
  if (reps > 0) {
    ok &= same_as_oracle("after the timed sweeps");
    for (std::size_t o = 0; o < std::size(orders); ++o) {
      auto& v = ms[o];
      std::sort(v.begin(), v.end());
      rows.push_back({orders[o].first, v.front(), v[v.size() / 2]});
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_only = false;
  std::string csv_path = "results/kernel_bench.csv";
  cli_parser cli(
      "Scalar vs register-blocked base-kernel throughput + exactness gate");
  cli.add_flag("check", &check_only,
               "verify blocked-vs-scalar exactness only (CI gate); skip the "
               "timing sweep and CSV");
  cli.add_string("csv", &csv_path, "CSV output path");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  constexpr std::size_t sweep_n = 2048, sweep_base = 32;
  constexpr int sweep_reps = 15;
  std::cout << "=== kernel_bench: exactness gate ===\n";
  std::vector<sweep_row> sweeps;
  if (!verify_all() ||
      !sw_order_sweeps(sweep_n, sweep_base, check_only ? 0 : sweep_reps,
                       sweeps)) {
    std::cerr << "kernel mismatch — blocked kernels are NOT exact\n";
    return 1;
  }
  if (check_only) return 0;

  std::cout << "\n=== kernel_bench: throughput (D-kind tile, n=1024) ===\n";
  const auto rows = run_timings();
  table_printer table({"Kernel", "Base", "Scalar(Mc/s)", "Blocked(Mc/s)",
                       "Speedup"});
  // One schema for both parts: hot-tile rows leave sweep_ms empty.
  csv_writer csv(
      {"kernel", "base", "impl", "order", "mcells_per_sec", "sweep_ms"});
  for (const auto& r : rows) {
    table.add_row({r.kernel, std::to_string(r.base),
                   table_printer::num(r.scalar_mcells),
                   table_printer::num(r.blocked_mcells),
                   table_printer::num(r.blocked_mcells / r.scalar_mcells)});
    csv.add_row({r.kernel, std::to_string(r.base), "scalar", "hot-tile",
                 table_printer::num(r.scalar_mcells), ""});
    csv.add_row({r.kernel, std::to_string(r.base), "blocked", "hot-tile",
                 table_printer::num(r.blocked_mcells), ""});
  }
  table.print(std::cout);
  std::cout << "(cell updates per second; GE/FW update b^3 cells per call, "
               "SW b^2)\n";

  std::cout << "\n=== kernel_bench: in-place SW sweep (n=" << sweep_n
            << ", base=" << sweep_base << ", blocked, " << sweep_reps
            << " sweeps per order) ===\n";
  table_printer sweep_table({"Order", "Min(ms)", "Median(ms)", "Mc/s"});
  const double sweep_cells = static_cast<double>(sweep_n) * sweep_n;
  for (const auto& r : sweeps) {
    const double mcells = sweep_cells / r.median_ms / 1e3;
    sweep_table.add_row({r.order, table_printer::num(r.min_ms),
                         table_printer::num(r.median_ms),
                         table_printer::num(mcells)});
    csv.add_row({"SW", std::to_string(sweep_base), "blocked", r.order,
                 table_printer::num(mcells), table_printer::num(r.median_ms)});
  }
  sweep_table.print(std::cout);

  const auto ge_tuned = calibrate_base(tune_target::ge, 512);
  const auto fw_tuned = calibrate_base(tune_target::fw, 512);
  const auto sw_tuned = calibrate_base(tune_target::sw, 512);
  std::cout << "\ncalibrated grains (blocked kernels, probe n=512): GE="
            << ge_tuned.base << " FW=" << fw_tuned.base
            << " SW=" << sw_tuned.base << "\n";

  csv.save(csv_path);
  std::cout << "wrote " << csv.row_count() << " rows to " << csv_path << "\n";
  return 0;
}
