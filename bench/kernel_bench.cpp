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
//     for a sweep of base sizes, and for GE also on the B (pivot row band)
//     and C (pivot column band) tiles, written as CSV for the results/
//     archive. Each GE/FW call first restores its tile (untimed), so every
//     call sees the same input.
//  3. In-place SW sweeps (always; timed unless --check): every base tile
//     of an SW 2048/32 table, run in place through the spec's run_base in
//     three visiting orders — the spec's serial recursion (the Z-order
//     serial and fork-join walk), anti-diagonals (data-flow's wavefront
//     order) and row-major. A hot tile (part 2) stays in cache; a sweep
//     writes each tile's rows into a 16 MB table, so it shows what the
//     visiting order costs the kernel. Each order's table must equal
//     sw_loop_serial's, or the run exits non-zero.
//  4. An in-place GE 1024/64 sweep (always; timed unless --check): every
//     base tile in the spec's serial-recursion order, each call timed and
//     the time summed per tile kind (A diagonal, B pivot row band, C pivot
//     column band, D the rest), checked against the scalar ge_loop_serial.
//
// The GE kernels carry an x86-64-v4 clone besides the avx2 and baseline
// ones; the run prints the clone this host resolves to, and the CSV's
// ge_clone column records it on the GE rows.
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
  // Base 32 is the first at which the GE B-tile path's 32-column register
  // chunks apply.
  for (std::size_t base : {16u, 32u, 64u}) {
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

/// Best-of-reps cell rate of `fn`, which updates `cells` cells per call.
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

/// Best-of-reps cell rate of an in-place tile kernel `fn(c, n, i0, j0, k0,
/// b)` on table `m`: before each call the tile is restored from `input`
/// (untimed), so repeated calls never compound an elimination.
template <class Kernel>
double tile_mcells_per_sec(Kernel fn, matrix<double>& m,
                           const matrix<double>& input, std::size_t i0,
                           std::size_t j0, std::size_t k0, std::size_t b) {
  const std::size_t n = m.rows();
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    stopwatch wall;
    double busy = 0;
    int calls = 0;
    while (wall.seconds() < 0.15) {
      for (std::size_t i = i0; i < i0 + b; ++i)
        std::memcpy(m.data() + i * n + j0, input.data() + i * n + j0,
                    b * sizeof(double));
      stopwatch t;
      fn(m.data(), n, i0, j0, k0, b);
      busy += t.seconds();
      ++calls;
    }
    best = std::max(best, static_cast<double>(b) * b * b * calls / busy / 1e6);
  }
  return best;
}

struct bench_row {
  std::string kernel;
  std::size_t base;
  std::string tile;  // "hot-tile" (D kind) or, for GE, "hot-B" / "hot-C"
  double scalar_mcells;
  double blocked_mcells;
};

std::vector<bench_row> run_timings() {
  std::vector<bench_row> rows;
  constexpr std::size_t n = 1024;
  // D-kind offsets: the updated tile, the pivot tile and (for GE/FW) the
  // row/column strips are pairwise disjoint for every base size below. The
  // GE B tile shares the pivot block's rows (i0 == k0), the C tile its
  // columns (j0 == k0).
  constexpr std::size_t i0 = 512, j0 = 256, k0 = 0;
  const auto ge_input = make_diag_dominant(n, 3);
  const auto fw_input = make_digraph(n, 0.3, 3, 1e9);
  auto ge = ge_input;
  auto fw = fw_input;
  for (std::size_t b : {32u, 64u, 128u}) {
    const std::pair<const char*, std::pair<std::size_t, std::size_t>>
        ge_tiles[] = {{"hot-tile", {i0, j0}},
                      {"hot-B", {k0, j0}},
                      {"hot-C", {i0, k0}}};
    for (const auto& [tile, at] : ge_tiles)
      rows.push_back(
          {"GE", b, tile,
           tile_mcells_per_sec(ge_base_kernel, ge, ge_input, at.first,
                               at.second, k0, b),
           tile_mcells_per_sec(ge_base_kernel_blocked, ge, ge_input,
                               at.first, at.second, k0, b)});
    rows.push_back(
        {"FW", b, "hot-tile",
         tile_mcells_per_sec(fw_base_kernel, fw, fw_input, i0, j0, k0, b),
         tile_mcells_per_sec(fw_base_kernel_blocked, fw, fw_input, i0, j0,
                             k0, b)});
  }
  const auto a = make_dna(n, 1);
  const auto bs = make_dna(n, 2);
  const sw_params p;
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  for (std::size_t b : {64u, 128u, 256u}) {
    rows.push_back(
        {"SW", b, "hot-tile",
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

/// Base tiles of `rec` in the order its serial 2-way recursion
/// (exec::run_serial) runs them: the flattened stages of split(t, 2) from
/// root().
void collect_recursion_order(const recurrence& rec, const tile4& t,
                             std::vector<tile4>& out) {
  if (rec.is_base(t)) {
    out.push_back(t);
    return;
  }
  const split_plan plan = rec.split(t, 2);
  for (const tile4& child : plan.children)
    collect_recursion_order(rec, child, out);
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

// ---------------------------------------------- in-place GE sweep ----

/// A (diagonal), B (pivot row band), C (pivot column band) or D.
std::size_t ge_tile_kind(const tile4& t) {
  if (t.i == t.k) return t.j == t.k ? 0 : 1;
  return t.j == t.k ? 2 : 3;
}
constexpr const char* k_ge_kinds[] = {"A", "B", "C", "D"};

struct ge_kind_row {
  const char* kind;
  std::size_t tiles;
  double median_ms;  // summed kernel time of this kind per sweep
};

/// Sweep a GE n/base table in place in the spec's serial-recursion order,
/// timing every tile and summing per kind; check each sweep's table
/// against the scalar ge_loop_serial. With `reps` == 0 only the check
/// runs. Returns false on a mismatch.
bool ge_kind_sweep(std::size_t n, std::size_t base, int reps,
                   std::vector<ge_kind_row>& rows) {
  const auto input = make_diag_dominant(n, 7);
  auto oracle = input;
  set_kernel_impl(kernel_impl::scalar);
  ge_loop_serial(oracle);
  set_kernel_impl(kernel_impl::blocked);
  auto m = input;
  const auto rec = make_ge_spec(m, base);
  std::vector<tile4> order;
  collect_recursion_order(*rec, rec->root(), order);

  std::size_t tiles[std::size(k_ge_kinds)] = {};
  for (const tile4& t : order) ++tiles[ge_tile_kind(t)];
  std::vector<double> ms[std::size(k_ge_kinds)];
  bool ok = true;
  for (int rep = 0; rep <= reps; ++rep) {
    m = input;
    double sum[std::size(k_ge_kinds)] = {};
    for (const tile4& t : order) {
      stopwatch sw;
      rec->run_base(t);
      sum[ge_tile_kind(t)] += sw.seconds() * 1e3;
    }
    const bool exact =
        std::memcmp(m.data(), oracle.data(), m.size() * sizeof(double)) == 0;
    if (rep == 0 || !exact)
      std::cout << "GE in-place recursive (n=" << n << ", base=" << base
                << "): " << (exact ? "exact" : "MISMATCH") << "\n";
    ok &= exact;
    if (rep > 0)
      for (std::size_t k = 0; k < std::size(k_ge_kinds); ++k)
        ms[k].push_back(sum[k]);
  }
  if (reps > 0)
    for (std::size_t k = 0; k < std::size(k_ge_kinds); ++k) {
      std::sort(ms[k].begin(), ms[k].end());
      rows.push_back({k_ge_kinds[k], tiles[k], ms[k][ms[k].size() / 2]});
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
  constexpr std::size_t ge_sweep_n = 1024, ge_sweep_base = 64;
  constexpr int ge_sweep_reps = 9;
  const std::string ge_clone = ge_kernel_clone();
  std::cout << "GE kernel clone on this host: " << ge_clone << "\n";
  std::cout << "=== kernel_bench: exactness gate ===\n";
  std::vector<sweep_row> sweeps;
  std::vector<ge_kind_row> ge_kinds;
  if (!verify_all() ||
      !sw_order_sweeps(sweep_n, sweep_base, check_only ? 0 : sweep_reps,
                       sweeps) ||
      !ge_kind_sweep(ge_sweep_n, ge_sweep_base, check_only ? 0 : ge_sweep_reps,
                     ge_kinds)) {
    std::cerr << "kernel mismatch — blocked kernels are NOT exact\n";
    return 1;
  }
  if (check_only) return 0;

  std::cout << "\n=== kernel_bench: throughput (hot tiles, n=1024) ===\n";
  const auto rows = run_timings();
  table_printer table({"Kernel", "Base", "Tile", "Scalar(Mc/s)",
                       "Blocked(Mc/s)", "Speedup"});
  // One schema for every part: hot-tile rows leave sweep_ms empty, and only
  // GE rows fill ge_clone.
  csv_writer csv({"kernel", "base", "impl", "order", "mcells_per_sec",
                  "sweep_ms", "ge_clone"});
  for (const auto& r : rows) {
    const std::string clone = r.kernel == "GE" ? ge_clone : "";
    table.add_row({r.kernel, std::to_string(r.base), r.tile,
                   table_printer::num(r.scalar_mcells),
                   table_printer::num(r.blocked_mcells),
                   table_printer::num(r.blocked_mcells / r.scalar_mcells)});
    csv.add_row({r.kernel, std::to_string(r.base), "scalar", r.tile,
                 table_printer::num(r.scalar_mcells), "", clone});
    csv.add_row({r.kernel, std::to_string(r.base), "blocked", r.tile,
                 table_printer::num(r.blocked_mcells), "", clone});
  }
  table.print(std::cout);
  std::cout << "(cell updates per second; GE/FW update b^3 cells per call, "
               "SW b^2; GE B/C tiles do about half a D tile's updates, so "
               "their rates read low)\n";

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
                 table_printer::num(mcells), table_printer::num(r.median_ms),
                 ""});
  }
  sweep_table.print(std::cout);

  std::cout << "\n=== kernel_bench: in-place GE sweep by tile kind (n="
            << ge_sweep_n << ", base=" << ge_sweep_base << ", blocked, "
            << ge_sweep_reps << " recursive sweeps, clone " << ge_clone
            << ") ===\n";
  table_printer ge_table({"Kind", "Tiles", "Median(ms)", "us/tile"});
  double ge_total = 0;
  for (const auto& r : ge_kinds) {
    ge_total += r.median_ms;
    ge_table.add_row({r.kind, std::to_string(r.tiles),
                      table_printer::num(r.median_ms),
                      table_printer::num(r.median_ms * 1e3 /
                                         static_cast<double>(r.tiles))});
    csv.add_row({"GE", std::to_string(ge_sweep_base), "blocked",
                 std::string("recursive-") + r.kind, "",
                 table_printer::num(r.median_ms), ge_clone});
  }
  ge_table.print(std::cout);
  std::cout << "(sum of the kinds' medians: " << table_printer::num(ge_total)
            << " ms)\n";

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
