// Correctness of Floyd-Warshall APSP across all execution models.
//
// Workloads use integer edge weights (exact double arithmetic) and a finite
// big-M for missing edges, so every correct schedule converges to exactly
// the same fixpoint — tests use exact equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "dp/dp.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

constexpr double kInf = 1.0e9;  // finite big-M keeps min-plus sums exact

matrix<double> input(std::size_t n, std::uint64_t seed = 42) {
  auto w = make_digraph(n, 0.25, seed, kInf);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      w(i, j) = std::floor(w(i, j));  // integer weights -> exact arithmetic
  return w;
}

// Independent oracle: min-plus matrix closure by repeated squaring.
matrix<double> minplus_closure(const matrix<double>& w) {
  const std::size_t n = w.rows();
  auto d = w;
  for (std::size_t len = 1; len < n; len *= 2) {
    matrix<double> next(n, n, 2 * kInf);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < n; ++k) {
        const double dik = d(i, k);
        if (dik >= 2 * kInf) continue;
        for (std::size_t j = 0; j < n; ++j)
          next(i, j) = std::min(next(i, j), dik + d(k, j));
      }
    d = std::move(next);
  }
  return d;
}

TEST(FwOracle, LoopSerialMatchesMinPlusClosureOnReachablePairs) {
  const std::size_t n = 32;
  auto w = input(n);
  auto fw = w;
  fw_loop_serial(fw);
  auto closure = minplus_closure(w);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (closure(i, j) < kInf) {
        EXPECT_DOUBLE_EQ(fw(i, j), closure(i, j)) << i << "," << j;
      } else {
        EXPECT_GE(fw(i, j), kInf * 0.5) << i << "," << j;
      }
    }
}

TEST(FwLoop, DiagonalStaysZeroAndTriangleInequalityHolds) {
  auto w = input(64, 3);
  fw_loop_serial(w);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(w(i, i), 0.0);
  xoshiro256 rng(9);
  for (int s = 0; s < 2000; ++s) {
    const auto i = rng.below(64), j = rng.below(64), k = rng.below(64);
    EXPECT_LE(w(i, j), w(i, k) + w(k, j) + 1e-9);
  }
}

class FwRdpSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(FwRdpSweep, SerialRecursionEqualsLoop) {
  const auto [n, base] = GetParam();
  auto oracle = input(n);
  auto c = oracle;
  fw_loop_serial(oracle);
  exec::run_serial(*make_fw_spec(c, base));
  EXPECT_TRUE(oracle == c) << "n=" << n << " base=" << base;
}

TEST_P(FwRdpSweep, ForkJoinEqualsLoop) {
  const auto [n, base] = GetParam();
  auto oracle = input(n);
  auto c = oracle;
  fw_loop_serial(oracle);
  forkjoin::worker_pool pool(4);
  exec::run_forkjoin(*make_fw_spec(c, base), pool);
  EXPECT_TRUE(oracle == c) << "n=" << n << " base=" << base;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBases, FwRdpSweep,
    ::testing::Values(std::tuple{16, 4}, std::tuple{16, 8}, std::tuple{16, 16},
                      std::tuple{32, 4}, std::tuple{32, 8},
                      std::tuple{32, 16}, std::tuple{64, 8},
                      std::tuple{64, 16}, std::tuple{64, 32},
                      std::tuple{64, 64}, std::tuple{128, 32}));

TEST(FwRdp, RejectsBadShapes) {
  // The serial registry row checks its own supports(n, base).
  const variant* serial = find_variant(benchmark_id::fw, "serial");
  ASSERT_NE(serial, nullptr);
  matrix<double> c(48, 48, 1.0);
  EXPECT_THROW(serial->run(*serial, fw_problem(c), {.base = 8}),
               contract_error);
  matrix<double> c2(64, 64, 1.0);
  EXPECT_THROW(serial->run(*serial, fw_problem(c2), {.base = 12}),
               contract_error);
}

// ----------------------------------------------------------- data-flow ----

class FwCncSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, cnc_variant>> {};

TEST_P(FwCncSweep, CncEqualsLoop) {
  forkjoin::worker_pool pool(4);
  const auto [n, base, variant] = GetParam();
  auto oracle = input(n);
  auto c = oracle;
  fw_loop_serial(oracle);
  const auto info =
      exec::run_dataflow(*make_fw_spec(c, base), {variant, &pool});
  EXPECT_TRUE(oracle == c)
      << "n=" << n << " base=" << base << " variant=" << to_string(variant);

  // Every (I,J,K) base task runs exactly once and puts one tile item;
  // the environment seeds T^2 more.
  const std::uint64_t t = n / base;
  EXPECT_EQ(info.stats.items_put, t * t * t + t * t);
  if (variant != cnc_variant::native) {
    EXPECT_EQ(info.stats.gets_failed, 0u);
    EXPECT_EQ(info.stats.steps_aborted, 0u);
  }
  if (variant == cnc_variant::manual) {
    EXPECT_EQ(info.stats.steps_prescribed, t * t * t);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesBasesVariants, FwCncSweep,
    ::testing::Combine(::testing::Values<std::size_t>(16, 32, 64),
                       ::testing::Values<std::size_t>(4, 8, 16),
                       ::testing::Values(cnc_variant::native,
                                         cnc_variant::tuner,
                                         cnc_variant::manual,
                                         cnc_variant::nonblocking)));

TEST(FwCnc, SingleTileProblem) {
  forkjoin::worker_pool pool(2);
  auto oracle = input(8);
  auto c = oracle;
  fw_loop_serial(oracle);
  const auto info =
      exec::run_dataflow(*make_fw_spec(c, 8), {cnc_variant::native, &pool});
  EXPECT_TRUE(oracle == c);
  EXPECT_EQ(info.stats.items_put, 2u);  // the seed tile + its round-0 update
}

TEST(FwCnc, DisconnectedGraphKeepsUnreachablePairsLarge) {
  // Two halves with no cross edges: the block-diagonal structure must be
  // preserved by every variant.
  forkjoin::worker_pool pool(4);
  const std::size_t n = 32;
  matrix<double> w(n, n, kInf);
  xoshiro256 rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    w(i, i) = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const bool same_half = (i < n / 2) == (j < n / 2);
      if (i != j && same_half && rng.uniform() < 0.6)
        w(i, j) = std::floor(rng.uniform(1.0, 50.0));
    }
  }
  auto c = w;
  exec::run_dataflow(*make_fw_spec(c, 8), {cnc_variant::tuner, &pool});
  for (std::size_t i = 0; i < n / 2; ++i)
    for (std::size_t j = n / 2; j < n; ++j) {
      EXPECT_GE(c(i, j), kInf * 0.5);
      EXPECT_GE(c(j, i), kInf * 0.5);
    }
}

TEST(FwCnc, TunerVariantsCollectEveryTileItem) {
  // With get-count GC (tuner/manual), every value-passing tile item is
  // reclaimed by its last consumer: memory drops from O(n^2 T) to O(n^2).
  forkjoin::worker_pool pool(4);
  auto c = input(64);
  const auto tuner =
      exec::run_dataflow(*make_fw_spec(c, 8), {cnc_variant::tuner, &pool});
  EXPECT_EQ(tuner.items_live_at_end, 0u);

  auto c2 = input(64);
  const auto manual =
      exec::run_dataflow(*make_fw_spec(c2, 8), {cnc_variant::manual, &pool});
  EXPECT_EQ(manual.items_live_at_end, 0u);

  // Native (abort-and-re-execute) cannot use get counts: everything stays.
  auto c3 = input(64);
  const auto native =
      exec::run_dataflow(*make_fw_spec(c3, 8), {cnc_variant::native, &pool});
  const std::uint64_t t = 64 / 8;
  EXPECT_EQ(native.items_live_at_end, t * t * t + t * t);
}

TEST(FwCnc, AllVariantsAgreeOnLargerProblem) {
  forkjoin::worker_pool pool(4);
  auto oracle = input(64, 11);
  auto c_native = oracle, c_tuner = oracle, c_manual = oracle;
  fw_loop_serial(oracle);
  exec::run_dataflow(*make_fw_spec(c_native, 8), {cnc_variant::native, &pool});
  exec::run_dataflow(*make_fw_spec(c_tuner, 8), {cnc_variant::tuner, &pool});
  exec::run_dataflow(*make_fw_spec(c_manual, 8), {cnc_variant::manual, &pool});
  EXPECT_TRUE(oracle == c_native);
  EXPECT_TRUE(oracle == c_tuner);
  EXPECT_TRUE(oracle == c_manual);
}

}  // namespace
