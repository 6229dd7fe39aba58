// Correctness of Smith-Waterman local alignment across execution models.
// Integer scoring => exact equality everywhere.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "dp/dp.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

matrix<std::int32_t> zero_table(std::size_t n) {
  return matrix<std::int32_t>(n + 1, n + 1, 0);
}

TEST(SwLoop, HandComputedExample) {
  // a = "GGTT", b = "GTTA", match=+2 mismatch=-1 gap=1.
  // Best local alignment: "GTT" vs "GTT" -> score 6.
  const std::string a = "GGTT", b = "GTTA";
  auto s = zero_table(4);
  sw_loop_serial(s, a, b, sw_params{});
  EXPECT_EQ(sw_best_score(s), 6);
  // Boundary row/column stays zero.
  for (std::size_t i = 0; i <= 4; ++i) {
    EXPECT_EQ(s(i, 0), 0);
    EXPECT_EQ(s(0, i), 0);
  }
}

TEST(SwLoop, IdenticalSequencesScoreFullMatch) {
  const auto a = make_dna(64, 5);
  auto s = zero_table(64);
  sw_loop_serial(s, a, a, sw_params{});
  EXPECT_EQ(sw_best_score(s), 2 * 64);
}

TEST(SwLoop, DisjointAlphabetsScoreSingleMismatchFloor) {
  // No positive-scoring pair exists: the table must be all zeros.
  const std::string a(32, 'A'), b(32, 'T');
  auto s = zero_table(32);
  sw_loop_serial(s, a, b, sw_params{});
  EXPECT_EQ(sw_best_score(s), 0);
}

TEST(SwLinearSpace, MatchesFullTableScore) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto a = make_dna(128, seed);
    const auto b = make_dna(128, seed + 100);
    auto s = zero_table(128);
    sw_loop_serial(s, a, b, sw_params{});
    EXPECT_EQ(sw_linear_space_score(a, b, sw_params{}), sw_best_score(s))
        << "seed=" << seed;
  }
}

TEST(SwLinearSpace, HandlesUnequalLengths) {
  const std::string a = "ACGTACGTAC", b = "CGT";
  sw_params p;
  // Best: exact "CGT" match -> 6.
  EXPECT_EQ(sw_linear_space_score(a, b, p), 6);
}

class SwRdpSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SwRdpSweep, SerialRecursionEqualsLoop) {
  const auto [n, base] = GetParam();
  const auto a = make_dna(n, 1), b = make_dna(n, 2);
  auto oracle = zero_table(n);
  auto s = zero_table(n);
  sw_loop_serial(oracle, a, b, sw_params{});
  exec::run_serial(*make_sw_spec(s, a, b, sw_params{}, base));
  EXPECT_TRUE(oracle == s) << "n=" << n << " base=" << base;
}

TEST_P(SwRdpSweep, ForkJoinEqualsLoop) {
  const auto [n, base] = GetParam();
  const auto a = make_dna(n, 1), b = make_dna(n, 2);
  auto oracle = zero_table(n);
  auto s = zero_table(n);
  sw_loop_serial(oracle, a, b, sw_params{});
  forkjoin::worker_pool pool(4);
  exec::run_forkjoin(*make_sw_spec(s, a, b, sw_params{}, base), pool);
  EXPECT_TRUE(oracle == s) << "n=" << n << " base=" << base;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBases, SwRdpSweep,
    ::testing::Values(std::tuple{16, 4}, std::tuple{16, 16}, std::tuple{32, 8},
                      std::tuple{64, 8}, std::tuple{64, 16},
                      std::tuple{128, 32}, std::tuple{256, 64},
                      std::tuple{256, 256}));

TEST(SwRdp, RejectsUnequalOrNonPow2) {
  // The serial registry row checks its own supports(n, base); the SW spec
  // rejects unequal sequence lengths.
  const variant* serial = find_variant(benchmark_id::sw, "serial");
  ASSERT_NE(serial, nullptr);
  const sw_params p;
  const auto a = make_dna(32, 1), b = make_dna(16, 2);
  auto s = matrix<std::int32_t>(33, 17, 0);
  EXPECT_THROW(serial->run(*serial, sw_problem(s, a, b, p), {.base = 8}),
               contract_error);
  const auto c = make_dna(48, 3);
  auto s2 = matrix<std::int32_t>(49, 49, 0);
  EXPECT_THROW(serial->run(*serial, sw_problem(s2, c, c, p), {.base = 8}),
               contract_error);
}

// ----------------------------------------------------------- data-flow ----

class SwCncSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, cnc_variant>> {};

TEST_P(SwCncSweep, CncEqualsLoop) {
  forkjoin::worker_pool pool(4);
  const auto [n, base, variant] = GetParam();
  const auto a = make_dna(n, 21), b = make_dna(n, 22);
  auto oracle = zero_table(n);
  auto s = zero_table(n);
  sw_loop_serial(oracle, a, b, sw_params{});
  const auto info =
      exec::run_dataflow(*make_sw_spec(s, a, b, sw_params{}, base),
                         {variant, &pool});
  EXPECT_TRUE(oracle == s)
      << "n=" << n << " base=" << base << " variant=" << to_string(variant);

  const std::uint64_t t = n / base;
  EXPECT_EQ(info.stats.items_put, t * t);  // one item per tile
  if (variant != cnc_variant::native) {
    EXPECT_EQ(info.stats.gets_failed, 0u);
    EXPECT_EQ(info.stats.steps_aborted, 0u);
  }
  if (variant == cnc_variant::manual) {
    EXPECT_EQ(info.stats.steps_prescribed, t * t);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesBasesVariants, SwCncSweep,
    ::testing::Combine(::testing::Values<std::size_t>(32, 64, 128),
                       ::testing::Values<std::size_t>(8, 16, 32),
                       ::testing::Values(cnc_variant::native,
                                         cnc_variant::tuner,
                                         cnc_variant::manual,
                                         cnc_variant::nonblocking)));

TEST(SwCnc, SingleTileProblem) {
  forkjoin::worker_pool pool(2);
  const auto a = make_dna(16, 9), b = make_dna(16, 10);
  auto oracle = zero_table(16);
  auto s = zero_table(16);
  sw_loop_serial(oracle, a, b, sw_params{});
  const auto info =
      exec::run_dataflow(*make_sw_spec(s, a, b, sw_params{}, 16),
                         {cnc_variant::native, &pool});
  EXPECT_TRUE(oracle == s);
  EXPECT_EQ(info.stats.items_put, 1u);
}

TEST(SwCnc, TunerVariantsCollectAllButTheCornerItem) {
  forkjoin::worker_pool pool(4);
  const auto a = make_dna(128, 51), b = make_dna(128, 52);
  for (cnc_variant v : {cnc_variant::tuner, cnc_variant::manual}) {
    auto s = zero_table(128);
    const auto info =
        exec::run_dataflow(*make_sw_spec(s, a, b, sw_params{}, 16), {v, &pool});
    // Only the bottom-right tile (no consumers) survives collection.
    EXPECT_EQ(info.items_live_at_end, 1u) << to_string(v);
  }
  auto s = zero_table(128);
  const auto native =
      exec::run_dataflow(*make_sw_spec(s, a, b, sw_params{}, 16),
                         {cnc_variant::native, &pool});
  EXPECT_EQ(native.items_live_at_end, 64u);  // 8x8 tiles, all kept
}

TEST(SwCnc, ScoresMatchLinearSpaceScorer) {
  forkjoin::worker_pool pool(4);
  const auto a = make_dna(128, 31), b = make_dna(128, 32);
  auto s = zero_table(128);
  exec::run_dataflow(*make_sw_spec(s, a, b, sw_params{}, 16),
                     {cnc_variant::tuner, &pool});
  EXPECT_EQ(sw_best_score(s), sw_linear_space_score(a, b, sw_params{}));
}

TEST(SwCnc, CustomScoringParameters) {
  forkjoin::worker_pool pool(4);
  const sw_params p{/*match=*/5, /*mismatch=*/-4, /*gap=*/2};
  const auto a = make_dna(64, 41), b = make_dna(64, 42);
  auto oracle = zero_table(64);
  auto s = zero_table(64);
  sw_loop_serial(oracle, a, b, p);
  exec::run_dataflow(*make_sw_spec(s, a, b, p, 8),
                     {cnc_variant::manual, &pool});
  EXPECT_TRUE(oracle == s);
}

}  // namespace
