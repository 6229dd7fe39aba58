// Cross-module integration and property tests:
//  * both runtimes sharing one worker pool,
//  * concurrent graphs / concurrent benchmarks,
//  * phased (wait-put-wait) graph execution,
//  * mathematical properties of the DP results that hold for EVERY
//    execution model (idempotence, symmetry, invariance, monotonicity).
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "cnc/cnc.hpp"
#include "dp/dp.hpp"
#include "exec/prepared_graph.hpp"
#include "forkjoin/task_group.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

// ------------------------------------------------ shared-pool integration ----

struct pooled_ctx;
struct pooled_step {
  int execute(int tag, pooled_ctx& ctx) const;
};
struct pooled_ctx : cnc::context<pooled_ctx> {
  cnc::step_collection<pooled_ctx, pooled_step, int> steps{*this, "s"};
  cnc::tag_collection<int> tags{*this, "t"};
  cnc::item_collection<int, int> items{*this, "i"};
  explicit pooled_ctx(forkjoin::worker_pool& pool)
      : cnc::context<pooled_ctx>(pool) {
    tags.prescribe(steps);
  }
};
int pooled_step::execute(int tag, pooled_ctx& ctx) const {
  ctx.items.put(tag, tag * 3);
  return 0;
}

TEST(SharedPool, CncContextBorrowsForkJoinPool) {
  forkjoin::worker_pool pool(2);
  // Fork-join work and a CnC graph interleaved on the same workers.
  pooled_ctx ctx(pool);
  std::atomic<int> fj_sum{0};
  forkjoin::task_group g(pool);
  for (int i = 0; i < 100; ++i)
    g.spawn([&fj_sum, i] { fj_sum.fetch_add(i, std::memory_order_relaxed); });
  for (int t = 0; t < 100; ++t) ctx.tags.put(t);
  g.wait();
  ctx.wait();
  EXPECT_EQ(fj_sum.load(), 4950);
  int v = 0;
  ctx.items.get(99, v);
  EXPECT_EQ(v, 297);
}

TEST(SharedPool, TwoContextsShareOnePool) {
  forkjoin::worker_pool pool(2);
  pooled_ctx a(pool), b(pool);
  for (int t = 0; t < 64; ++t) {
    a.tags.put(t);
    b.tags.put(t);
  }
  a.wait();
  b.wait();
  EXPECT_EQ(a.stats().steps_executed, 64u);
  EXPECT_EQ(b.stats().steps_executed, 64u);
}

TEST(SharedPool, PhasedExecutionWaitPutWait) {
  forkjoin::worker_pool pool(2);
  pooled_ctx ctx(pool);
  ctx.tags.put(1);
  ctx.wait();
  EXPECT_EQ(ctx.stats().steps_executed, 1u);
  ctx.tags.put(2);  // a second wave after quiescence
  ctx.tags.put(3);
  ctx.wait();
  EXPECT_EQ(ctx.stats().steps_executed, 3u);
  int v = 0;
  ctx.items.get(3, v);
  EXPECT_EQ(v, 9);
}

TEST(SharedPool, ConcurrentBenchmarksFromTwoThreads) {
  // GE on the fork-join runtime and SW on the data-flow runtime running
  // simultaneously from different environment threads, each with its own
  // pool — nothing shared but the allocator and the machine.
  auto ge_in = make_diag_dominant(128, 3);
  auto ge_oracle = ge_in;
  ge_loop_serial(ge_oracle);
  const auto a = make_dna(128, 4), b = make_dna(128, 5);
  matrix<std::int32_t> sw_oracle(129, 129, 0);
  sw_loop_serial(sw_oracle, a, b, sw_params{});

  bool ge_ok = false, sw_ok = false;
  std::thread t1([&] {
    forkjoin::worker_pool pool(2);
    auto m = ge_in;
    exec::run_forkjoin(*make_ge_spec(m, 16), pool);
    ge_ok = (m == ge_oracle);
  });
  std::thread t2([&] {
    forkjoin::worker_pool pool(2);
    matrix<std::int32_t> s(129, 129, 0);
    exec::run_dataflow(*make_sw_spec(s, a, b, sw_params{}, 16),
                       {cnc_variant::native, &pool});
    sw_ok = (s == sw_oracle);
  });
  t1.join();
  t2.join();
  EXPECT_TRUE(ge_ok);
  EXPECT_TRUE(sw_ok);
}

// ----------------------------------------------------- result properties ----

class GeVariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeVariantSweep, AllSixVariantsAgreeOnRandomInstances) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 64, base = 8;
  auto in = make_diag_dominant(n, seed);
  auto oracle = in;
  ge_loop_serial(oracle);

  auto m1 = in;
  exec::run_serial(*make_ge_spec(m1, base));
  EXPECT_TRUE(m1 == oracle);

  auto m2 = in;
  forkjoin::worker_pool pool(3);
  exec::run_forkjoin(*make_ge_spec(m2, base), pool);
  EXPECT_TRUE(m2 == oracle);

  for (cnc_variant v : {cnc_variant::native, cnc_variant::tuner,
                        cnc_variant::manual, cnc_variant::nonblocking}) {
    auto m = in;
    exec::run_dataflow(*make_ge_spec(m, base), {v, &pool});
    EXPECT_TRUE(m == oracle) << to_string(v) << " seed=" << seed;
  }

  auto m3 = in;
  const auto spec = make_ge_spec(m3, base);
  exec::prepared_graph::freeze_batched(*spec, 3).execute(*spec, pool);
  EXPECT_TRUE(m3 == oracle) << "prepared:batched seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeVariantSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Properties, GeLeavesUpperTriangularInputUnchanged) {
  // If nothing lies below the diagonal, every multiplier is zero and the
  // elimination is the identity — in every execution model.
  const std::size_t n = 64;
  matrix<double> u(n, n, 0.0);
  xoshiro256 rng(17);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) u(i, j) = rng.uniform(1.0, 2.0);
  auto m = u;
  exec::run_serial(*make_ge_spec(m, 16));
  EXPECT_TRUE(m == u);
  auto m2 = u;
  forkjoin::worker_pool pool(2);
  exec::run_dataflow(*make_ge_spec(m2, 16), {cnc_variant::tuner, &pool});
  EXPECT_TRUE(m2 == u);
}

TEST(Properties, FwIsIdempotent) {
  // APSP distances are a fixpoint: running FW again must not change them.
  auto w = make_digraph(64, 0.3, 23, 1e9);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = std::floor(w.data()[i]);
  exec::run_serial(*make_fw_spec(w, 8));
  auto again = w;
  // Different base, same fixpoint.
  exec::run_serial(*make_fw_spec(again, 16));
  EXPECT_TRUE(again == w);
  auto cnc_again = w;
  forkjoin::worker_pool pool(2);
  exec::run_dataflow(*make_fw_spec(cnc_again, 8), {cnc_variant::manual, &pool});
  EXPECT_TRUE(cnc_again == w);
}

TEST(Properties, FwCompleteUnitGraph) {
  // Complete digraph with unit weights: every off-diagonal distance is 1.
  const std::size_t n = 32;
  matrix<double> w(n, n, 1.0);
  for (std::size_t i = 0; i < n; ++i) w(i, i) = 0.0;
  forkjoin::worker_pool pool(2);
  exec::run_dataflow(*make_fw_spec(w, 8), {cnc_variant::native, &pool});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_DOUBLE_EQ(w(i, j), i == j ? 0.0 : 1.0);
}

TEST(Properties, SwScoreIsSymmetric) {
  // The scoring scheme is symmetric, so score(a,b) == score(b,a).
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto a = make_dna(128, seed), b = make_dna(128, seed + 50);
    EXPECT_EQ(sw_linear_space_score(a, b, sw_params{}),
              sw_linear_space_score(b, a, sw_params{}));
  }
}

TEST(Properties, SwScoreMonotoneInMatchBonus) {
  const auto a = make_dna(128, 61), b = make_dna(128, 62);
  std::int32_t prev = -1;
  for (std::int32_t match = 1; match <= 5; ++match) {
    const sw_params p{match, -1, 1};
    const auto s = sw_linear_space_score(a, b, p);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

TEST(Properties, SwSubstringAlignsPerfectly) {
  // b is a substring of a: best local alignment scores 2*|b| under the
  // default scheme, in the data-flow model too.
  const auto a = make_dna(256, 71);
  const auto b = a.substr(64, 64);
  matrix<std::int32_t> s(a.size() + 1, b.size() + 1, 0);
  sw_loop_serial(s, a, b, sw_params{});
  EXPECT_EQ(sw_best_score(s), 2 * 64);
}

TEST(Properties, GeIsDeterministicAcrossRepeatedParallelRuns) {
  const auto in = make_diag_dominant(64, 77);
  auto first = in;
  forkjoin::worker_pool pool(4);
  exec::run_dataflow(*make_ge_spec(first, 8), {cnc_variant::native, &pool});
  for (int rep = 0; rep < 3; ++rep) {
    auto m = in;
    exec::run_dataflow(*make_ge_spec(m, 8), {cnc_variant::native, &pool});
    EXPECT_TRUE(m == first) << "rep " << rep;
  }
}

TEST(Properties, FwCncAgreesWithForkJoinOnDenseGraph) {
  auto w = make_digraph(64, 0.9, 31, 1e9);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = std::floor(w.data()[i]);
  auto fj = w, df = w;
  forkjoin::worker_pool pool(3);
  exec::run_forkjoin(*make_fw_spec(fj, 16), pool);
  exec::run_dataflow(*make_fw_spec(df, 16), {cnc_variant::nonblocking, &pool});
  EXPECT_TRUE(fj == df);
}

}  // namespace
