// Parametric r-way R-DP (GE and FW): equivalence with the loop oracles for
// every r, serial and fork-join, plus precondition checks.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "dp/dp.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

matrix<double> ge_input(std::size_t n) { return make_diag_dominant(n, 42); }

matrix<double> fw_input(std::size_t n) {
  auto w = make_digraph(n, 0.3, 7, 1e9);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = std::floor(w.data()[i]);
  return w;
}

// (n, base, r) with n == base * r^L
class RwaySweep : public ::testing::TestWithParam<
                      std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(RwaySweep, GeSerialBitIdenticalToLoop) {
  const auto [n, base, r] = GetParam();
  auto oracle = ge_input(n);
  auto c = oracle;
  ge_loop_serial(oracle);
  exec::run_serial(*make_ge_spec(c, base), r);
  EXPECT_TRUE(oracle == c) << "n=" << n << " base=" << base << " r=" << r;
}

TEST_P(RwaySweep, GeForkJoinBitIdenticalToLoop) {
  const auto [n, base, r] = GetParam();
  auto oracle = ge_input(n);
  auto c = oracle;
  ge_loop_serial(oracle);
  forkjoin::worker_pool pool(4);
  exec::run_forkjoin(*make_ge_spec(c, base), pool, r);
  EXPECT_TRUE(oracle == c) << "n=" << n << " base=" << base << " r=" << r;
}

TEST_P(RwaySweep, FwSerialEqualsLoop) {
  const auto [n, base, r] = GetParam();
  auto oracle = fw_input(n);
  auto c = oracle;
  fw_loop_serial(oracle);
  exec::run_serial(*make_fw_spec(c, base), r);
  EXPECT_TRUE(oracle == c) << "n=" << n << " base=" << base << " r=" << r;
}

TEST_P(RwaySweep, FwForkJoinEqualsLoop) {
  const auto [n, base, r] = GetParam();
  auto oracle = fw_input(n);
  auto c = oracle;
  fw_loop_serial(oracle);
  forkjoin::worker_pool pool(4);
  exec::run_forkjoin(*make_fw_spec(c, base), pool, r);
  EXPECT_TRUE(oracle == c) << "n=" << n << " base=" << base << " r=" << r;
}

INSTANTIATE_TEST_SUITE_P(
    SizesBasesWays, RwaySweep,
    ::testing::Values(std::tuple{32, 8, 2},    // r=2 reduces to classic
                      std::tuple{64, 4, 2},
                      std::tuple{36, 4, 3},    // r=3: 4*3^2
                      std::tuple{108, 4, 3},   // 4*3^3
                      std::tuple{64, 4, 4},    // 4*4^2
                      std::tuple{128, 8, 4},   // 8*4^2
                      std::tuple{125, 5, 5},   // 5^3, base 5
                      std::tuple{64, 8, 8},    // single level of 8-way
                      std::tuple{64, 64, 2})); // base == n: kernel only

TEST_P(RwaySweep, SwSerialEqualsLoop) {
  const auto [n, base, r] = GetParam();
  const auto a = make_dna(n, 13), b = make_dna(n, 14);
  matrix<std::int32_t> oracle(n + 1, n + 1, 0);
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  sw_loop_serial(oracle, a, b, sw_params{});
  exec::run_serial(*make_sw_spec(s, a, b, sw_params{}, base), r);
  EXPECT_TRUE(oracle == s) << "n=" << n << " base=" << base << " r=" << r;
}

TEST_P(RwaySweep, SwForkJoinEqualsLoop) {
  const auto [n, base, r] = GetParam();
  const auto a = make_dna(n, 13), b = make_dna(n, 14);
  matrix<std::int32_t> oracle(n + 1, n + 1, 0);
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  sw_loop_serial(oracle, a, b, sw_params{});
  forkjoin::worker_pool pool(4);
  exec::run_forkjoin(*make_sw_spec(s, a, b, sw_params{}, base), pool, r);
  EXPECT_TRUE(oracle == s) << "n=" << n << " base=" << base << " r=" << r;
}

TEST(Rway, MatchesTwoWayRecursionExactly) {
  // r = 2 must produce the same bits as the dedicated 2-way code path.
  auto a = ge_input(128);
  auto b = a;
  exec::run_serial(*make_ge_spec(a, 16));
  exec::run_serial(*make_ge_spec(b, 16), 2);
  EXPECT_TRUE(a == b);
}

TEST(Rway, RejectsNonConformingSizes) {
  matrix<double> c(64, 64, 1.0);
  // 64 != 8*3^L
  EXPECT_THROW(exec::run_serial(*make_ge_spec(c, 8), 3),
               contract_error);
  // r < 2
  EXPECT_THROW(exec::run_serial(*make_ge_spec(c, 8), 1),
               contract_error);
  // 48 != 8*2^L: the rway:r2 registry row checks its own supports().
  const variant* r2 = find_variant(benchmark_id::fw, "rway:r2");
  ASSERT_NE(r2, nullptr);
  matrix<double> d(48, 48, 1.0);
  EXPECT_THROW(r2->run(*r2, fw_problem(d), {.base = 8, .workers = 2}),
               contract_error);
}

TEST(Rway, DifferentWaysGiveIdenticalGeResults) {
  // 64 = 4*2^4 = 4*4^2 = 64*...: r=2 vs r=4 vs r=8 on the same input.
  auto base_case = ge_input(64);
  auto r2 = base_case, r4 = base_case, r8 = base_case;
  exec::run_serial(*make_ge_spec(r2, 4), 2);
  exec::run_serial(*make_ge_spec(r4, 4), 4);
  // 64 = 8 * 8^1: one 8-way level
  exec::run_serial(*make_ge_spec(r8, 8), 8);
  EXPECT_TRUE(r2 == r4);
  EXPECT_TRUE(r2 == r8);
}

}  // namespace
