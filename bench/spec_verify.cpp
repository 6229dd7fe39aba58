// Spec consistency sweep (CI): run dp::verify_spec over every benchmark
// spec across the (n, base) grid the registry's backends accept, and print
// one row per configuration. Exits 1 if any configuration reports an
// inconsistency, so a spec edit that breaks the depends/enumerate_base/
// split/gather agreement fails fast — with the validator's report, not a
// hung executor.
//
// The grid mixes power-of-two configurations (all backends; the
// split()-closure checked at r = 2 and at the full width r = n/base) and
// divisible-but-not-pow2 ones (tiled backend only; the split()-closure
// checked at r = n/base, the level the tiled row runs). The final
// per-benchmark summary shows the widest observed depends() fan-in; there
// is no fixed capacity — wide-fan-in specs (Paren: 2(T-1)) spill past the
// executors' inline storage onto the heap.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "dp/dp.hpp"
#include "support/cli.hpp"
#include "support/math_utils.hpp"
#include "support/table_printer.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

struct sweep_stats {
  std::size_t configs = 0;
  std::size_t failures = 0;
  std::size_t max_fan_in = 0;
};

/// Verify one (benchmark, n, base) configuration over scratch data (the
/// validator never runs kernels, so contents are irrelevant — and the FW
/// verification overwrites the table anyway, see the gather caveat) and
/// add a table row. Returns the report so the caller can aggregate.
verify_report verify_one(benchmark_id bm, std::size_t n, std::size_t base,
                         table_printer& table) {
  const verify_options opts;

  verify_report rep;
  switch (bm) {
    case benchmark_id::ge: {
      matrix<double> m(n, n, 1.0);
      rep = verify_spec(*make_ge_spec(m, base), opts);
      break;
    }
    case benchmark_id::sw: {
      const std::string a(n, 'A'), c(n, 'C');
      const sw_params p;
      matrix<std::int32_t> s(n + 1, n + 1, 0);
      rep = verify_spec(*make_sw_spec(s, a, c, p, base), opts);
      break;
    }
    case benchmark_id::fw: {
      matrix<double> m(n, n, 1.0);
      rep = verify_spec(*make_fw_spec(m, base), opts);
      break;
    }
    case benchmark_id::lcs: {
      const std::string a(n, 'A'), c(n, 'C');
      matrix<std::int32_t> s(n + 1, n + 1, 0);
      rep = verify_spec(*make_lcs_spec(s, a, c, lcs_mode::lcs, base), opts);
      break;
    }
    case benchmark_id::paren: {
      matrix<double> c(n, n, 0.0);
      const std::vector<double> dims(n + 1, 1.0);
      rep = verify_spec(*make_paren_spec(c, dims, base), opts);
      break;
    }
  }

  table.add_row({rep.spec_name, std::to_string(n), std::to_string(base),
                 std::to_string(rep.base_tasks),
                 std::to_string(rep.items_produced),
                 std::to_string(rep.dependency_edges),
                 std::to_string(rep.max_fan_in),
                 is_pow2(n / base) ? "r=2,T" : "r=T",
                 rep.ok() ? "ok" : "FAIL(" + std::to_string(rep.issues.size())
                                       + ")"});
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t only_n = 0, only_base = 0;
  cli_parser cli("Spec consistency sweep: dp::verify_spec over every "
                 "benchmark spec across the registry's (n, base) grid");
  cli.add_int("n", &only_n, "verify only this problem size (default: sweep "
                            "16, 32, 64, 96, 128)");
  cli.add_int("base", &only_base,
              "verify only this base size (default: every base dividing n)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::vector<std::size_t> ns = {16, 32, 64, 96, 128};
  if (only_n > 0) ns = {static_cast<std::size_t>(only_n)};

  table_printer table({"Spec", "n", "base", "tasks", "items", "edges",
                       "fan-in", "split", "result"});
  std::size_t failures = 0, configs = 0;
  sweep_stats per_bm[5];

  for (const benchmark_id bm :
       {benchmark_id::ge, benchmark_id::sw, benchmark_id::fw,
        benchmark_id::lcs, benchmark_id::paren}) {
    for (const std::size_t n : ns) {
      for (std::size_t base = 2; base <= n; base *= 2) {
        if (n % base != 0) continue;
        if (only_base > 0 && base != static_cast<std::size_t>(only_base))
          continue;
        // Skip configurations no registry backend would accept.
        const auto rows = variants_for(bm);
        const bool runnable = std::any_of(
            rows.begin(), rows.end(),
            [&](const variant* v) { return v->supports(n, base); });
        if (!runnable) continue;

        const verify_report rep = verify_one(bm, n, base, table);
        ++configs;
        auto& agg = per_bm[static_cast<std::size_t>(bm)];
        ++agg.configs;
        agg.max_fan_in = std::max(agg.max_fan_in, rep.max_fan_in);
        if (!rep.ok()) {
          ++failures;
          ++agg.failures;
          std::cerr << rep.summary() << "\n";
        }
      }
    }
  }

  table.print(std::cout);
  std::cout << "\nWidest observed dependency fan-in (inline buffer hint "
            << typical_dependency_arity << ", wider fan-ins heap-spill)\n";
  for (const benchmark_id bm :
       {benchmark_id::ge, benchmark_id::sw, benchmark_id::fw,
        benchmark_id::lcs, benchmark_id::paren}) {
    const auto& agg = per_bm[static_cast<std::size_t>(bm)];
    std::cout << "  " << to_string(bm) << ": " << agg.max_fan_in << " over "
              << agg.configs << " configurations\n";
  }

  if (failures > 0) {
    std::cerr << failures << " of " << configs
              << " configurations failed verification\n";
    return 1;
  }
  std::cout << "all " << configs << " configurations verified consistent\n";
  return 0;
}
