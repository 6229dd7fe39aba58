// Parenthesization (matrix-chain multiplication) — the variable-arity
// recurrence of ISSUE 10: tile (I,J) of the upper-triangular cost table
// needs every (I,K) to its left and every (K,J) below it, 2(J-I) keys in
// all, so no fixed dependency capacity can hold it. These tests pin the
// serial spec against the textbook bottom-up loop (and the classic CLRS
// instance), then sweep the recursive/fork-join/tiled/r-way backends for
// bit-identical tables.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dp/dp.hpp"
#include "exec/backend.hpp"
#include "exec/dag.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/rng.hpp"
#include "support/small_vector.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

std::vector<double> random_dims(std::size_t n, std::uint64_t seed) {
  xoshiro256 gen(seed);
  std::vector<double> dims(n + 1);
  for (double& d : dims) d = static_cast<double>(1 + gen.next() % 100);
  return dims;
}

TEST(DpParen, ClrsExampleCostIs15125) {
  // CLRS 3rd ed., §15.2: chain dimensions (30,35,15,5,10,20,25) — the
  // optimal full-product cost is 15125 scalar multiplications.
  const std::vector<double> dims = {30, 35, 15, 5, 10, 20, 25};
  const std::size_t n = dims.size() - 1;
  matrix<double> c(n, n, 0.0);
  paren_loop_serial(c, dims);
  EXPECT_EQ(c(0, n - 1), 15125.0);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(c(i, i), 0.0);
}

TEST(DpParen, SpecSerialMatchesLoopReference) {
  for (const std::size_t n : {8u, 16u, 32u, 64u}) {
    for (std::size_t base = 2; base <= n; base *= 2) {
      const auto dims = random_dims(n, 100 + n + base);
      matrix<double> expect(n, n, 0.0);
      paren_loop_serial(expect, dims);

      matrix<double> c(n, n, 0.0);
      const auto spec = make_paren_spec(c, dims, base);
      exec::run_serial(*spec);
      EXPECT_EQ(c, expect) << "n=" << n << " base=" << base;
    }
  }
}

TEST(DpParen, AllRecursiveBackendsMatchLoop) {
  forkjoin::worker_pool pool(3);
  const std::size_t n = 64;
  const auto dims = random_dims(n, 7);
  matrix<double> expect(n, n, 0.0);
  paren_loop_serial(expect, dims);

  for (const std::size_t base : {4u, 8u, 16u}) {
    {
      matrix<double> c(n, n, 0.0);
      exec::run_forkjoin(*make_paren_spec(c, dims, base), pool);
      EXPECT_EQ(c, expect) << "forkjoin base=" << base;
    }
    {
      matrix<double> c(n, n, 0.0);
      exec::run_forkjoin(*make_paren_spec(c, dims, base), pool, n / base);
      EXPECT_EQ(c, expect) << "tiled base=" << base;
    }
    for (const std::size_t r : {2u, 4u}) {
      if (!splits_evenly(n, base, r)) continue;  // as the rway:r4 row
      matrix<double> c(n, n, 0.0);
      exec::run_forkjoin(*make_paren_spec(c, dims, base), pool, r);
      EXPECT_EQ(c, expect) << "rway r=" << r << " base=" << base;
    }
  }
  // Non-pow2 tiled configuration (diagonal rounds need only base | n).
  {
    const std::size_t odd_n = 60, base = 12;
    const auto odd_dims = random_dims(odd_n, 9);
    matrix<double> loop(odd_n, odd_n, 0.0);
    paren_loop_serial(loop, odd_dims);
    matrix<double> c(odd_n, odd_n, 0.0);
    exec::run_forkjoin(*make_paren_spec(c, odd_dims, base), pool,
                       odd_n / base);
    EXPECT_EQ(c, loop);
  }
}

TEST(DpParen, SpecDeclaresVariableArity) {
  const std::size_t n = 32, base = 4, tiles = n / base;
  matrix<double> c(n, n, 0.0);
  const auto dims = random_dims(n, 21);
  const auto spec = make_paren_spec(c, dims, base);

  EXPECT_EQ(spec->structure(), structure_kind::diagonal_3way);
  // Tile (I,J) reads 2(J-I) keys — diagonal tiles none, the corner
  // (0,T-1) the most.
  const exec::tile_dag dag = exec::derive_tile_dag(*spec);
  ASSERT_EQ(dag.tile_count(), tiles * (tiles + 1) / 2);
  std::size_t widest = 0;
  for (std::uint32_t t = 0; t < dag.tile_count(); ++t) {
    const tile4& tag = dag.tags[t];
    const std::size_t fan_in = dag.deps(t).size();
    EXPECT_EQ(fan_in, 2 * static_cast<std::size_t>(tag.j - tag.i))
        << "tile (" << tag.i << "," << tag.j << ")";
    widest = std::max(widest, fan_in);
  }
  EXPECT_EQ(widest, 2 * (tiles - 1));
}

// The executors' dependency buffers spill past their inline storage for
// exactly this spec; pin the support type's contract here too.
TEST(SmallVector, InlineAndHeapTransitions) {
  rdp::small_vector<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) v.push_back(i);
  const int* inline_data = v.data();
  for (int i = 4; i < 100; ++i) v.push_back(i);  // forces the heap spill
  EXPECT_EQ(v.size(), 100u);
  EXPECT_NE(v.data(), inline_data);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);

  v.clear();
  EXPECT_TRUE(v.empty());
  v.assign_default(7);
  EXPECT_EQ(v.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(v[i], 0);

  rdp::small_vector<double, 8> w;
  w.reserve(3);
  w.assign_default(8);  // exactly the inline capacity
  EXPECT_EQ(w.size(), 8u);
  w.push_back(1.5);  // first element past the inline buffer
  EXPECT_EQ(w.back(), 1.5);
  EXPECT_EQ(w.size(), 9u);
}

}  // namespace
