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
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
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

  std::cout << "=== kernel_bench: exactness gate ===\n";
  if (!verify_all()) {
    std::cerr << "kernel mismatch — blocked kernels are NOT exact\n";
    return 1;
  }
  if (check_only) return 0;

  std::cout << "\n=== kernel_bench: throughput (D-kind tile, n=1024) ===\n";
  const auto rows = run_timings();
  table_printer table({"Kernel", "Base", "Scalar(Mc/s)", "Blocked(Mc/s)",
                       "Speedup"});
  csv_writer csv({"kernel", "base", "impl", "mcells_per_sec"});
  for (const auto& r : rows) {
    table.add_row({r.kernel, std::to_string(r.base),
                   table_printer::num(r.scalar_mcells),
                   table_printer::num(r.blocked_mcells),
                   table_printer::num(r.blocked_mcells / r.scalar_mcells)});
    csv.add_row({r.kernel, std::to_string(r.base), "scalar",
                 table_printer::num(r.scalar_mcells)});
    csv.add_row({r.kernel, std::to_string(r.base), "blocked",
                 table_printer::num(r.blocked_mcells)});
  }
  table.print(std::cout);
  std::cout << "(cell updates per second; GE/FW update b^3 cells per call, "
               "SW b^2)\n";

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
