// Registry-driven cross-backend equivalence: every variant the registry
// advertises must produce a table bit-identical to the benchmark's loop
// oracle (ge/sw/fw/paren_loop_serial; a single-tile LCS spec for LCS), for
// every benchmark, across sizes and base cases — and every row must raise
// contract_error on a shape its own supports(n, base) rejects and on a
// malformed problem. This is the property the whole spec/executor refactor
// is built on — one recurrence spec, many lowerings, no numerical drift —
// and it runs under the sanitizer presets (LABELS runtime).
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dp/dp.hpp"
#include "forkjoin/worker_pool.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

/// The sweep: power-of-two sizes with every power-of-two base, so each
/// (n, base) pair exercises as many registry rows as possible (rway:r4
/// joins whenever n/base is a power of 4).
struct sweep_point {
  std::size_t n, base;
};

std::vector<sweep_point> sweep_points() {
  std::vector<sweep_point> pts;
  for (std::size_t n : {16u, 32u, 128u})
    for (std::size_t base = 4; base <= n; base *= 2)
      pts.push_back({n, base});
  return pts;
}

run_options options_for(std::size_t base, forkjoin::worker_pool& pool) {
  run_options opts;
  opts.base = base;
  opts.workers = 3;  // deliberately != tile counts, to shake out races
  opts.pool = &pool;
  return opts;
}

/// Runs every variant of `bm` at one point. A row whose supports(n, base)
/// holds must fill `table` bit-identically to `oracle`; any other row must
/// raise contract_error. Returns the number of rows that ran.
template <class Table, class Reset>
std::size_t check_point(benchmark_id bm, const problem_ref& prob,
                        const run_options& opts, Table& table,
                        const Table& oracle, const Reset& reset) {
  const std::size_t n = problem_size(prob);
  std::size_t ran = 0;
  for (const variant* v : variants_for(bm)) {
    reset();
    if (!v->supports(n, opts.base)) {
      EXPECT_THROW(v->run(*v, prob, opts), contract_error)
          << to_string(bm) << " × " << v->label << " ran unsupported n=" << n
          << ", base=" << opts.base;
      continue;
    }
    const run_outcome outcome = v->run(*v, prob, opts);
    EXPECT_EQ(table, oracle)
        << to_string(bm) << " × " << v->label << " diverged at n=" << n
        << ", base=" << opts.base;
    if (outcome.used_dataflow) {
      // Data-flow rows must have actually built a CnC graph.
      EXPECT_GT(outcome.info.stats.steps_executed, 0u) << v->label;
    }
    ++ran;
  }
  return ran;
}

// One instance per benchmark at (n, base), checked row by row against its
// loop oracle; each returns the number of rows that ran.

std::size_t check_ge(std::size_t n, std::size_t base,
                     forkjoin::worker_pool& pool, std::uint64_t seed) {
  const auto input = make_diag_dominant(n, seed);
  auto oracle = input;
  ge_loop_serial(oracle);
  auto m = input;
  return check_point(benchmark_id::ge, ge_problem(m),
                     options_for(base, pool), m, oracle, [&] { m = input; });
}

std::size_t check_sw(std::size_t n, std::size_t base,
                     forkjoin::worker_pool& pool) {
  const auto a = make_dna(n, 7 + n);
  const auto b = make_dna(n, 8 + base);
  const sw_params p;
  matrix<std::int32_t> oracle(n + 1, n + 1, 0);
  sw_loop_serial(oracle, a, b, p);
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  return check_point(benchmark_id::sw, sw_problem(s, a, b, p),
                     options_for(base, pool), s, oracle,
                     [&] { s = matrix<std::int32_t>(n + 1, n + 1, 0); });
}

std::size_t check_fw(std::size_t n, std::size_t base,
                     forkjoin::worker_pool& pool) {
  auto input = make_digraph(n, 0.3, 5 + base, 1e9);
  for (std::size_t i = 0; i < input.size(); ++i)
    input.data()[i] =
        static_cast<double>(static_cast<long long>(input.data()[i]));
  auto oracle = input;
  fw_loop_serial(oracle);
  auto m = input;
  return check_point(benchmark_id::fw, fw_problem(m),
                     options_for(base, pool), m, oracle, [&] { m = input; });
}

std::size_t check_lcs(std::size_t n, std::size_t base,
                      forkjoin::worker_pool& pool) {
  const auto a = make_dna(n, 11 + n);
  const auto b = make_dna(n, 13 + base);
  // LCS has no separate loop routine: a single tile (base = n) is the
  // row-by-row loop through the spec's own kernel.
  matrix<std::int32_t> oracle(n + 1, n + 1, 0);
  exec::run_forkjoin(*make_lcs_spec(oracle, a, b, lcs_mode::lcs, n), pool);
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  return check_point(benchmark_id::lcs, lcs_problem(s, a, b),
                     options_for(base, pool), s, oracle,
                     [&] { s = matrix<std::int32_t>(n + 1, n + 1, 0); });
}

std::size_t check_paren(std::size_t n, std::size_t base,
                        forkjoin::worker_pool& pool, xoshiro256& gen) {
  // Integer-valued chain dimensions keep every candidate cost exact, but
  // bit-exactness does not depend on it: min over a fixed candidate set
  // is evaluation-order-free.
  std::vector<double> dims(n + 1);
  for (double& d : dims) d = static_cast<double>(1 + gen.next() % 64);
  matrix<double> oracle(n, n, 0.0);
  paren_loop_serial(oracle, dims);
  matrix<double> c(n, n, 0.0);
  return check_point(benchmark_id::paren, paren_problem(c, dims),
                     options_for(base, pool), c, oracle,
                     [&] { c = matrix<double>(n, n, 0.0); });
}

TEST(RegistryShape, AdvertisesEveryBackendPerBenchmark) {
  for (benchmark_id bm : {benchmark_id::ge, benchmark_id::sw,
                          benchmark_id::fw, benchmark_id::lcs,
                          benchmark_id::paren}) {
    const auto rows = variants_for(bm);
    ASSERT_EQ(rows.size(), 11u) << to_string(bm);
    // Labels resolve back to their own row, and are unique per benchmark.
    for (const variant* v : rows)
      EXPECT_EQ(find_variant(bm, v->label), v) << v->label;
  }
  EXPECT_EQ(registry().size(), 55u);
  EXPECT_EQ(find_variant(benchmark_id::ge, "no-such-backend"), nullptr);
  EXPECT_NE(impl_help().find("dataflow:tuner"), std::string::npos);
  EXPECT_NE(impl_help().find("prepared:batched"), std::string::npos);
}

// Every parallel row runs on the caller's pool when it passes one, so a
// data-flow row's steps are tasks of that pool: a row that started a pool
// of its own would leave the caller's counters at zero. A step a put wakes
// on a thread may run inline there, after the producing step, instead of
// as a task of its own (steps_continued): every executed step is either a
// pool task or such a continuation.
TEST(RegistryPool, DataflowRowsRunOnTheCallersPool) {
  constexpr std::size_t n = 64, base = 8;
  forkjoin::worker_pool pool(3);
  const auto input = make_diag_dominant(n, 5);
  auto oracle = input;
  ge_loop_serial(oracle);
  std::size_t rows = 0;
  for (const variant* v : variants_for(benchmark_id::ge)) {
    if (v->backend != backend_kind::dataflow) continue;
    auto m = input;
    const std::uint64_t before = pool.stats().tasks_executed;
    const run_outcome out = v->run(*v, ge_problem(m), options_for(base, pool));
    const cnc::context_stats& s = out.info.stats;
    const std::uint64_t tiles = (n / base) * (n / base);
    // A worker counts a task after it returns, and the run may return
    // first: wait (bounded) for the pool's counters to settle.
    const auto tasks = [&] { return pool.stats().tasks_executed - before; };
    const auto settle =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while ((tasks() < tiles ||
            tasks() + s.steps_continued < s.steps_executed) &&
           std::chrono::steady_clock::now() < settle)
      std::this_thread::yield();
    const std::uint64_t ran = tasks();
    EXPECT_EQ(m, oracle) << v->label;
    // At least one pool task per base tile: every instance is queued when
    // it is first dispatched. Every executed step ran as a pool task or as
    // a continuation of one. A row on a pool of its own runs no task here
    // and fails both.
    EXPECT_GE(ran, tiles) << v->label;
    EXPECT_GE(ran + s.steps_continued, s.steps_executed) << v->label;
    ++rows;
  }
  EXPECT_EQ(rows, 4u);
}

/// The process-wide cnc.* registry metrics, read together.
struct cnc_registry_totals {
  std::uint64_t items_put, gets_ok, gets_failed, tags_put, steps_executed,
      steps_requeued;
  std::int64_t items_live;

  static cnc_registry_totals read() {
    auto& reg = obs::metrics_registry::instance();
    return {reg.get_counter("cnc.items_put").value(),
            reg.get_counter("cnc.gets_ok").value(),
            reg.get_counter("cnc.gets_failed").value(),
            reg.get_counter("cnc.tags_put").value(),
            reg.get_counter("cnc.steps_executed").value(),
            reg.get_counter("cnc.steps_requeued").value(),
            reg.get_gauge("cnc.items_live").value()};
  }
};

/// Runs every data-flow row of `bm` once and checks that the cnc.*
/// registry metrics moved by exactly the run's own context counters —
/// what counting each event as it happens records. FW's rows read the
/// final tiles back after wait() returns, so their gather gets must still
/// reach the registry.
template <class Reset>
void expect_registry_counts_each_run(benchmark_id bm, const problem_ref& prob,
                                     forkjoin::worker_pool& pool,
                                     const Reset& reset) {
  std::size_t rows = 0;
  for (const variant* v : variants_for(bm)) {
    if (v->backend != backend_kind::dataflow) continue;
    reset();
    const cnc_registry_totals before = cnc_registry_totals::read();
    const run_outcome out = v->run(*v, prob, options_for(8, pool));
    const cnc_registry_totals after = cnc_registry_totals::read();
    const cnc::context_stats& s = out.info.stats;
    const std::string row = std::string(to_string(bm)) + " × " +
                            std::string(v->label);
    EXPECT_EQ(after.items_put - before.items_put, s.items_put) << row;
    EXPECT_EQ(after.gets_ok - before.gets_ok, s.gets_ok) << row;
    EXPECT_EQ(after.gets_failed - before.gets_failed, s.gets_failed) << row;
    EXPECT_EQ(after.tags_put - before.tags_put, s.tags_put) << row;
    EXPECT_EQ(after.steps_executed - before.steps_executed, s.steps_executed)
        << row;
    EXPECT_EQ(after.steps_requeued - before.steps_requeued, s.steps_requeued)
        << row;
    EXPECT_EQ(after.items_live - before.items_live,
              static_cast<std::int64_t>(out.info.items_live_at_end))
        << row;
    ++rows;
  }
  EXPECT_EQ(rows, 4u) << to_string(bm);
}

TEST(RegistryMetrics, DataflowRowsPublishEveryEventOfTheirRun) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "metrics disabled";
  constexpr std::size_t n = 64;
  forkjoin::worker_pool pool(3);

  const auto ge_input = make_diag_dominant(n, 9);
  auto m = ge_input;
  expect_registry_counts_each_run(benchmark_id::ge, ge_problem(m), pool,
                                  [&] { m = ge_input; });

  const auto a = make_dna(n, 21), b = make_dna(n, 22);
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  expect_registry_counts_each_run(
      benchmark_id::sw, sw_problem(s, a, b, sw_params{}), pool,
      [&] { s = matrix<std::int32_t>(n + 1, n + 1, 0); });

  const auto fw_input = make_digraph(n, 0.3, 13, 1e9);
  auto d = fw_input;
  expect_registry_counts_each_run(benchmark_id::fw, fw_problem(d), pool,
                                  [&] { d = fw_input; });
}

// serial + forkjoin + tiled + 4 dataflow modes + rway:r2 + prepared +
// prepared:batched always apply on a power-of-two sweep point (10 rows);
// rway:r4 joins whenever n/base is a power of 4.
constexpr std::size_t k_min_rows = 10;

TEST(RegistryEquivalence, GeAllVariantsMatchSerial) {
  forkjoin::worker_pool pool(3);
  xoshiro256 gen(42);
  for (const sweep_point pt : sweep_points())
    EXPECT_GE(check_ge(pt.n, pt.base, pool, gen.next()), k_min_rows)
        << "registry lost variants at n=" << pt.n << ", base=" << pt.base;
}

TEST(RegistryEquivalence, SwAllVariantsMatchSerial) {
  forkjoin::worker_pool pool(3);
  for (const sweep_point pt : sweep_points())
    EXPECT_GE(check_sw(pt.n, pt.base, pool), k_min_rows)
        << "registry lost variants at n=" << pt.n << ", base=" << pt.base;
}

TEST(RegistryEquivalence, FwAllVariantsMatchSerial) {
  forkjoin::worker_pool pool(3);
  for (const sweep_point pt : sweep_points())
    EXPECT_GE(check_fw(pt.n, pt.base, pool), k_min_rows)
        << "registry lost variants at n=" << pt.n << ", base=" << pt.base;
}

TEST(RegistryEquivalence, LcsAllVariantsMatchSerial) {
  forkjoin::worker_pool pool(3);
  for (const sweep_point pt : sweep_points())
    EXPECT_GE(check_lcs(pt.n, pt.base, pool), k_min_rows)
        << "registry lost variants at n=" << pt.n << ", base=" << pt.base;
}

TEST(RegistryEquivalence, ParenAllVariantsMatchSerial) {
  forkjoin::worker_pool pool(3);
  xoshiro256 gen(17);
  for (const sweep_point pt : sweep_points())
    EXPECT_GE(check_paren(pt.n, pt.base, pool, gen), k_min_rows)
        << "registry lost variants at n=" << pt.n << ", base=" << pt.base;
}

/// Shapes off the power-of-two grid: every row either rejects the shape
/// with contract_error (its supports() is false) or runs it bit-exact.
/// At (96, 8) only the rows without a power-of-two requirement — tiled,
/// prepared, prepared:batched — accept; (64, 6) and (32, 64) (base does
/// not divide n / exceeds it) are rejected by all 55 rows.
TEST(RegistryPreconditions, EveryRowRejectsOrMatchesTheOracle) {
  forkjoin::worker_pool pool(3);
  xoshiro256 gen(5);
  struct shape {
    std::size_t n, base, accepted;
  };
  for (const shape sh : {shape{96, 8, 3}, shape{64, 6, 0}, shape{32, 64, 0}}) {
    EXPECT_EQ(check_ge(sh.n, sh.base, pool, gen.next()), sh.accepted)
        << "GE n=" << sh.n << " base=" << sh.base;
    EXPECT_EQ(check_sw(sh.n, sh.base, pool), sh.accepted)
        << "SW n=" << sh.n << " base=" << sh.base;
    EXPECT_EQ(check_fw(sh.n, sh.base, pool), sh.accepted)
        << "FW n=" << sh.n << " base=" << sh.base;
    EXPECT_EQ(check_lcs(sh.n, sh.base, pool), sh.accepted)
        << "LCS n=" << sh.n << " base=" << sh.base;
    EXPECT_EQ(check_paren(sh.n, sh.base, pool, gen), sh.accepted)
        << "Paren n=" << sh.n << " base=" << sh.base;
  }
}

/// Runs every row of `bm` on a malformed problem: each must raise
/// contract_error and leave `table` as it found it. Returns the row count.
template <class Table>
std::size_t expect_every_row_rejects(benchmark_id bm, const problem_ref& prob,
                                     const Table& table,
                                     forkjoin::worker_pool& pool,
                                     const char* what) {
  const Table before = table;
  std::size_t rows = 0;
  for (const variant* v : variants_for(bm)) {
    EXPECT_THROW(v->run(*v, prob, options_for(8, pool)), contract_error)
        << to_string(bm) << " × " << v->label << " accepted " << what;
    EXPECT_EQ(table, before)
        << to_string(bm) << " × " << v->label << " wrote to " << what;
    ++rows;
  }
  return rows;
}

/// Problems no spec can describe — a non-square GE/FW/Paren table, SW/LCS
/// sequences of unequal length, a Paren chain whose dims.size() != n + 1 —
/// are rejected by every registry row, before any write to the table. The
/// shapes pass each row's supports(n, base), so the rejection is the spec's.
TEST(RegistryPreconditions, EveryRowRejectsAMalformedProblem) {
  forkjoin::worker_pool pool(3);
  constexpr std::size_t n = 32;
  xoshiro256 gen(9);
  auto filled = [&](std::size_t rows, std::size_t cols) {
    matrix<double> m(rows, cols, 0.0);
    for (std::size_t i = 0; i < m.size(); ++i)
      m.data()[i] = static_cast<double>(1 + gen.next() % 100);
    return m;
  };

  std::size_t rows = 0;
  matrix<double> ge = filled(n, 2 * n);
  rows += expect_every_row_rejects(benchmark_id::ge, ge_problem(ge), ge, pool,
                                   "a non-square table");
  matrix<double> fw = filled(n, 2 * n);
  rows += expect_every_row_rejects(benchmark_id::fw, fw_problem(fw), fw, pool,
                                   "a non-square table");

  const std::string a = make_dna(n, 3), b = make_dna(n / 2, 4);
  const sw_params p;
  matrix<std::int32_t> sw(a.size() + 1, b.size() + 1, 7);
  rows += expect_every_row_rejects(benchmark_id::sw, sw_problem(sw, a, b, p),
                                   sw, pool, "sequences of unequal length");
  matrix<std::int32_t> lcs(a.size() + 1, b.size() + 1, 7);
  rows += expect_every_row_rejects(benchmark_id::lcs, lcs_problem(lcs, a, b),
                                   lcs, pool, "sequences of unequal length");

  const std::vector<double> dims(n + 1, 2.0);
  matrix<double> paren = filled(n, 2 * n);
  rows += expect_every_row_rejects(benchmark_id::paren,
                                   paren_problem(paren, dims), paren, pool,
                                   "a non-square table");
  EXPECT_EQ(rows, registry().size());

  for (const std::size_t len : {n, n + 2}) {
    const std::vector<double> bad_dims(len, 2.0);
    matrix<double> c = filled(n, n);
    EXPECT_EQ(expect_every_row_rejects(benchmark_id::paren,
                                       paren_problem(c, bad_dims), c, pool,
                                       "a chain with dims.size() != n + 1"),
              variants_for(benchmark_id::paren).size());
  }
}

}  // namespace
