// Correctness of Gaussian Elimination across all execution models.
//
// All variants perform the identical fused update (factor hoisted) with k
// ascending for every cell, so results must be BIT-IDENTICAL — tests use
// exact equality, which also catches any ordering bug in the recursions or
// in the data-flow dependency declarations.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "dp/dp.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

matrix<double> input(std::size_t n, std::uint64_t seed = 42) {
  return make_diag_dominant(n, seed);
}

// Independent mathematical oracle: GE without pivoting is Doolittle LU.
// After elimination, the upper triangle holds U and the strictly-lower
// entry (i,j) holds l[i][j] * u[j][j]; reconstruct L·U and compare to A.
TEST(GeOracle, LoopSerialMatchesLuReconstruction) {
  const std::size_t n = 48;
  auto a = input(n);
  auto c = a;
  ge_loop_serial(c);
  // L (unit diagonal) and U from the eliminated matrix.
  matrix<double> l(n, n), u(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    l(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) l(i, j) = c(i, j) / c(j, j);
    for (std::size_t j = i; j < n; ++j) u(i, j) = c(i, j);
  }
  double max_rel = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double lu = 0;
      for (std::size_t k = 0; k <= std::min(i, j); ++k) lu += l(i, k) * u(k, j);
      max_rel = std::max(max_rel, std::abs(lu - a(i, j)) /
                                      std::max(1.0, std::abs(a(i, j))));
    }
  EXPECT_LT(max_rel, 1e-10);
}

TEST(GeRdpSerial, BaseEqualsNIsExactlyTheLoop) {
  auto c1 = input(64);
  auto c2 = c1;
  ge_loop_serial(c1);
  exec::run_serial(*make_ge_spec(c2, 64));
  EXPECT_TRUE(c1 == c2);
}

class GeRdpSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(GeRdpSweep, SerialRecursionBitIdenticalToLoop) {
  const auto [n, base] = GetParam();
  auto oracle = input(n);
  auto c = oracle;
  ge_loop_serial(oracle);
  exec::run_serial(*make_ge_spec(c, base));
  EXPECT_TRUE(oracle == c) << "n=" << n << " base=" << base;
}

TEST_P(GeRdpSweep, ForkJoinBitIdenticalToLoop) {
  const auto [n, base] = GetParam();
  auto oracle = input(n);
  auto c = oracle;
  ge_loop_serial(oracle);
  forkjoin::worker_pool pool(4);
  exec::run_forkjoin(*make_ge_spec(c, base), pool);
  EXPECT_TRUE(oracle == c) << "n=" << n << " base=" << base;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBases, GeRdpSweep,
    ::testing::Values(std::tuple{16, 4}, std::tuple{16, 8}, std::tuple{32, 4},
                      std::tuple{32, 8}, std::tuple{32, 16},
                      std::tuple{64, 8}, std::tuple{64, 16},
                      std::tuple{64, 32}, std::tuple{128, 16},
                      std::tuple{128, 64}, std::tuple{128, 128}));

TEST(GeRdp, RejectsNonPowerOfTwo) {
  // The serial registry row checks its own supports(n, base).
  const variant* serial = find_variant(benchmark_id::ge, "serial");
  ASSERT_NE(serial, nullptr);
  matrix<double> c(48, 48, 1.0);
  EXPECT_THROW(serial->run(*serial, ge_problem(c), {.base = 8}),
               contract_error);
  matrix<double> c2(64, 64, 1.0);
  EXPECT_THROW(serial->run(*serial, ge_problem(c2), {.base = 6}),
               contract_error);
  EXPECT_THROW(serial->run(*serial, ge_problem(c2), {.base = 128}),
               contract_error);
}

TEST(GeRdp, RejectsNonSquare) {
  matrix<double> c(32, 64, 1.0);
  EXPECT_THROW(ge_loop_serial(c), contract_error);
}

// ----------------------------------------------------------- data-flow ----

class GeCncSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, cnc_variant>> {};

TEST_P(GeCncSweep, CncBitIdenticalToLoop) {
  forkjoin::worker_pool pool(4);
  const auto [n, base, variant] = GetParam();
  auto oracle = input(n);
  auto c = oracle;
  ge_loop_serial(oracle);
  const auto info =
      exec::run_dataflow(*make_ge_spec(c, base), {variant, &pool});
  EXPECT_TRUE(oracle == c)
      << "n=" << n << " base=" << base << " variant=" << to_string(variant);

  // Each base task puts exactly one output item: N(T) = (2T^3+3T^2+T)/6.
  const std::uint64_t t = n / base;
  const std::uint64_t expected_items = (2 * t * t * t + 3 * t * t + t) / 6;
  EXPECT_EQ(info.stats.items_put, expected_items);
  if (variant != cnc_variant::native) {
    EXPECT_EQ(info.stats.gets_failed, 0u) << "tuner must never abort a step";
    EXPECT_EQ(info.stats.steps_aborted, 0u);
  }
  if (variant == cnc_variant::manual) {
    // Manual enumerates exactly the base tasks, no recursive expansion.
    EXPECT_EQ(info.stats.steps_prescribed, expected_items);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesBasesVariants, GeCncSweep,
    ::testing::Combine(::testing::Values<std::size_t>(16, 32, 64),
                       ::testing::Values<std::size_t>(4, 8, 16),
                       ::testing::Values(cnc_variant::native,
                                         cnc_variant::tuner,
                                         cnc_variant::manual,
                                         cnc_variant::nonblocking)));

TEST(GeCnc, SingleTileProblem) {
  // n == base: one A task, no dependencies at all.
  forkjoin::worker_pool pool(2);
  auto oracle = input(16);
  auto c = oracle;
  ge_loop_serial(oracle);
  const auto info =
      exec::run_dataflow(*make_ge_spec(c, 16), {cnc_variant::native, &pool});
  EXPECT_TRUE(oracle == c);
  EXPECT_EQ(info.stats.items_put, 1u);
  EXPECT_EQ(info.stats.gets_failed, 0u);
}

TEST(GeCnc, NativeReportsReexecutionPressure) {
  // With several tiles and few workers, the recursive native expansion
  // must produce at least some out-of-order prescriptions. We don't
  // require aborts (scheduling may get lucky), just consistent counters.
  forkjoin::worker_pool pool(4);
  auto c = input(64);
  const auto info =
      exec::run_dataflow(*make_ge_spec(c, 8), {cnc_variant::native, &pool});
  EXPECT_EQ(info.stats.steps_aborted, info.stats.gets_failed);
  EXPECT_GT(info.stats.steps_executed, 0u);
}

TEST(GeCnc, TunerVariantsCollectAllButTheFinalItem) {
  // Get-count GC: every output item is reclaimed by its last consumer;
  // only the final A output (zero consumers) remains.
  forkjoin::worker_pool pool(4);
  for (cnc_variant v : {cnc_variant::tuner, cnc_variant::manual}) {
    auto c = input(64);
    const auto info = exec::run_dataflow(*make_ge_spec(c, 8), {v, &pool});
    EXPECT_EQ(info.items_live_at_end, 1u) << to_string(v);
  }
  // Abort-and-re-execute variants cannot use get counts: all items stay.
  auto c = input(64);
  const auto native =
      exec::run_dataflow(*make_ge_spec(c, 8), {cnc_variant::native, &pool});
  const std::uint64_t t = 64 / 8;
  EXPECT_EQ(native.items_live_at_end, (2 * t * t * t + 3 * t * t + t) / 6);
}

TEST(GeCnc, NonblockingNeverParksInstances) {
  forkjoin::worker_pool pool(2);
  auto oracle = input(64);
  auto c = oracle;
  ge_loop_serial(oracle);
  const auto info =
      exec::run_dataflow(*make_ge_spec(c, 8),
                         {cnc_variant::nonblocking, &pool});
  EXPECT_TRUE(oracle == c);
  // The non-blocking protocol polls and requeues; it never parks an
  // instance on a waiter list. (Whether requeues actually occur depends on
  // scheduling timing; the deterministic requeue test lives in test_cnc.)
  EXPECT_EQ(info.stats.steps_aborted, 0u);
  EXPECT_EQ(info.stats.gets_failed, 0u);
}

TEST(GeCnc, LargerProblemAllVariantsAgree) {
  forkjoin::worker_pool pool(4);
  auto oracle = input(128, 7);
  auto c_native = oracle, c_tuner = oracle, c_manual = oracle;
  ge_loop_serial(oracle);
  exec::run_dataflow(*make_ge_spec(c_native, 16), {cnc_variant::native, &pool});
  exec::run_dataflow(*make_ge_spec(c_tuner, 16), {cnc_variant::tuner, &pool});
  exec::run_dataflow(*make_ge_spec(c_manual, 16), {cnc_variant::manual, &pool});
  EXPECT_TRUE(oracle == c_native);
  EXPECT_TRUE(oracle == c_tuner);
  EXPECT_TRUE(oracle == c_manual);
}

}  // namespace
