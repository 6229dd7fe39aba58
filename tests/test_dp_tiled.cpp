// Tiled/blocked loop algorithms (intro refs [7-10]) against the oracles,
// including non-power-of-two tile counts (the blocked schedules have no
// 2-way restriction).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "dp/dp.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

class TiledSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(TiledSweep, GeBlockedBitIdenticalToLoop) {
  const auto [n, base] = GetParam();
  auto oracle = make_diag_dominant(n, 42);
  auto c = oracle;
  ge_loop_serial(oracle);
  forkjoin::worker_pool pool(4);
  exec::run_tiled(*make_ge_spec(c, base), pool);
  EXPECT_TRUE(oracle == c) << "n=" << n << " base=" << base;
}

TEST_P(TiledSweep, FwBlockedEqualsLoop) {
  const auto [n, base] = GetParam();
  auto oracle = make_digraph(n, 0.3, 7, 1e9);
  for (std::size_t i = 0; i < oracle.size(); ++i)
    oracle.data()[i] = std::floor(oracle.data()[i]);
  auto c = oracle;
  fw_loop_serial(oracle);
  forkjoin::worker_pool pool(4);
  exec::run_tiled(*make_fw_spec(c, base), pool);
  EXPECT_TRUE(oracle == c) << "n=" << n << " base=" << base;
}

TEST_P(TiledSweep, SwTiledWavefrontEqualsLoop) {
  const auto [n, base] = GetParam();
  const auto a = make_dna(n, 1), b = make_dna(n, 2);
  matrix<std::int32_t> oracle(n + 1, n + 1, 0);
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  sw_loop_serial(oracle, a, b, sw_params{});
  forkjoin::worker_pool pool(4);
  exec::run_tiled(*make_sw_spec(s, a, b, sw_params{}, base), pool);
  EXPECT_TRUE(oracle == s) << "n=" << n << " base=" << base;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBases, TiledSweep,
    ::testing::Values(std::tuple{32, 8}, std::tuple{64, 16},
                      std::tuple{64, 64},
                      // non-power-of-two tile counts: blocked schedules
                      // have no 2-way restriction
                      std::tuple{48, 16}, std::tuple{96, 32},
                      std::tuple{80, 16}, std::tuple{33, 11}));

TEST(Tiled, RejectsNonDividingBase) {
  // The tiled registry row checks its own supports(n, base).
  forkjoin::worker_pool pool(2);
  const run_options opts{.base = 10, .pool = &pool};
  const variant* ge = find_variant(benchmark_id::ge, "tiled");
  ASSERT_NE(ge, nullptr);
  matrix<double> c(64, 64, 1.0);
  EXPECT_THROW(ge->run(*ge, ge_problem(c), opts), contract_error);
  const variant* sw = find_variant(benchmark_id::sw, "tiled");
  ASSERT_NE(sw, nullptr);
  const sw_params p;
  const auto a = make_dna(64, 3);
  matrix<std::int32_t> s(65, 65, 0);
  EXPECT_THROW(sw->run(*sw, sw_problem(s, a, a, p), opts), contract_error);
}

TEST(Tiled, MatchesRwayAtFullWidth) {
  // The blocked schedule is the r = T degenerate case of the r-way
  // recursion: identical bits.
  auto in = make_diag_dominant(64, 9);
  auto blocked = in, rway = in;
  forkjoin::worker_pool pool(3);
  exec::run_tiled(*make_ge_spec(blocked, 8), pool);
  // 64 = 8 * 8^1: one full-width level
  exec::run_rway(*make_ge_spec(rway, 8), 8, nullptr);
  EXPECT_TRUE(blocked == rway);
}

}  // namespace
