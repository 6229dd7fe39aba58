// Band fusion: the band plans of the wavefront and diagonal specs, and the
// band-fused prepared graph — hand-computed chunk count for a known GE
// instance and bit-exactness against the serial reference. Runs under the
// sanitizer presets (LABELS runtime).
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dp/dp.hpp"
#include "dp/spec/specs.hpp"
#include "exec/banding.hpp"
#include "exec/dag.hpp"
#include "exec/prepared_graph.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

/// GE at n=64, base=4, 4 workers: T = 16 tiles per side. Round k has an A
/// band of 1 tile, a B∥C band of 2(T-1-k) tiles and a D band of (T-1-k)²
/// tiles; each band is chunked to at most min(|band|, workers) fused nodes.
///   chunks = Σ_{k=0..13} (1+4+4) + (1+2+1) + 1            = 131
///   tiles  = Σ_{k=0..15} (1 + 2(15-k) + (15-k)²) = Σ_{m=1..16} m² = 1496
TEST(PreparedBatched, GeGraphIsAtLeastFourTimesCoarserAndBitExact) {
  const std::size_t n = 64, base = 4;
  const auto input = make_diag_dominant(n, 21);
  auto serial = input;
  exec::run_serial(*make_ge_spec(serial, base));

  auto m = input;
  const auto spec = make_ge_spec(m, base);
  const exec::prepared_graph g = exec::prepared_graph::freeze_batched(*spec, 4);
  EXPECT_EQ(g.tile_count(), 1496u);
  EXPECT_EQ(g.node_count(), 131u);
  EXPECT_GE(g.tile_count(), 4 * g.node_count());

  forkjoin::worker_pool pool(4);
  g.execute(*spec, pool);
  EXPECT_TRUE(m == serial);
}

TEST(PreparedBatched, FwSeededValuePassingMatchesSerial) {
  const std::size_t n = 32, base = 8;
  auto input = make_digraph(n, 0.25, 17, 1e9);
  for (std::size_t i = 0; i < input.size(); ++i)
    input.data()[i] =
        static_cast<double>(static_cast<long long>(input.data()[i]));
  auto serial = input;
  exec::run_serial(*make_fw_spec(serial, base));

  auto m = input;
  const auto spec = make_fw_spec(m, base);
  const exec::prepared_graph g = exec::prepared_graph::freeze_batched(*spec, 3);
  EXPECT_GT(g.seed_slot_count(), 0u);  // environment-fed round -1 snapshots
  EXPECT_LT(g.node_count(), g.tile_count());

  forkjoin::worker_pool pool(3);
  g.execute(*spec, pool);
  EXPECT_TRUE(m == serial);
}

/// Wavefront banding: SW's bands are the anti-diagonals of the tile grid —
/// 2T-1 bands, band d holding the tiles with i+j == d.
TEST(BandPlan, SwBandsAreAntidiagonals) {
  const std::size_t n = 64, base = 8, tiles = n / base;
  const auto a = make_dna(n, 7);
  const auto b = make_dna(n, 8);
  const sw_params p;
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  const auto spec = make_sw_spec(s, a, b, p, base);

  const exec::tile_dag dag = exec::derive_tile_dag(*spec);
  const exec::band_plan plan = exec::build_band_plan(dag, spec->structure());
  EXPECT_EQ(dag.tile_count(), tiles * tiles);
  EXPECT_EQ(plan.band_count, 2 * tiles - 1);
  EXPECT_EQ(plan.in_degree[0], 0u);
  for (std::uint32_t d = 0; d < plan.band_count; ++d) {
    const std::uint32_t expect =
        d < tiles ? d + 1 : static_cast<std::uint32_t>(2 * tiles - 1 - d);
    EXPECT_EQ(plan.member_count(d), expect) << "band " << d;
    if (d > 0) {
      EXPECT_GT(plan.in_degree[d], 0u) << "band " << d;
    }
  }
  // Chunking never exceeds the band size or the parallelism.
  const exec::chunk_table chunks = exec::build_chunks(plan, 4);
  for (std::uint32_t d = 0; d < plan.band_count; ++d)
    EXPECT_EQ(chunks.chunk_count(d),
              std::min<std::uint32_t>(plan.member_count(d), 4u))
        << "band " << d;
}

TEST(BandPlan, LcsBandsMatchSwWavefrontShape) {
  // The LCS spec shares SW's wavefront structure, so its band plan must
  // have the same anti-diagonal shape: 2T-1 bands, band d holding
  // min(d+1, 2T-1-d) tiles.
  const std::size_t n = 64, base = 8, tiles = n / base;
  const auto a = make_dna(n, 3);
  const auto b = make_dna(n, 4);
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  const auto spec = make_lcs_spec(s, a, b, lcs_mode::lcs, base);

  const exec::tile_dag dag = exec::derive_tile_dag(*spec);
  const exec::band_plan plan = exec::build_band_plan(dag, spec->structure());
  EXPECT_EQ(dag.tile_count(), tiles * tiles);
  EXPECT_EQ(plan.band_count, 2 * tiles - 1);
  for (std::uint32_t d = 0; d < plan.band_count; ++d) {
    const std::uint32_t expect =
        d < tiles ? d + 1 : static_cast<std::uint32_t>(2 * tiles - 1 - d);
    EXPECT_EQ(plan.member_count(d), expect) << "band " << d;
  }
}

TEST(BandPlan, ParenBandsAreDiagonalsOfShrinkingWidth) {
  // diagonal_3way banding keys tile (I,J) by J-I: T bands, band d holding
  // the T-d tiles of diagonal d. Every band past the first depends on
  // earlier bands (a length-d chain splits at every k), and the band graph
  // edges all point strictly forward — the property batching rests on.
  const std::size_t n = 64, base = 8, tiles = n / base;
  matrix<double> c(n, n, 0.0);
  const std::vector<double> dims(n + 1, 1.0);
  const auto spec = make_paren_spec(c, dims, base);

  const exec::tile_dag dag = exec::derive_tile_dag(*spec);
  const exec::band_plan plan = exec::build_band_plan(dag, spec->structure());
  EXPECT_EQ(dag.tile_count(), tiles * (tiles + 1) / 2);
  EXPECT_EQ(plan.band_count, tiles);
  EXPECT_EQ(plan.in_degree[0], 0u);
  for (std::uint32_t d = 0; d < plan.band_count; ++d) {
    EXPECT_EQ(plan.member_count(d),
              static_cast<std::uint32_t>(tiles - d)) << "band " << d;
    // Band members really sit on diagonal d.
    for (std::uint32_t m = plan.band_begin[d]; m < plan.band_begin[d + 1];
         ++m) {
      const dp::tile4& t = dag.tags[plan.members[m]];
      EXPECT_EQ(t.j - t.i, static_cast<std::int32_t>(d));
    }
    if (d > 0) {
      EXPECT_GT(plan.in_degree[d], 0u) << "band " << d;
    }
  }
  // A diagonal-d tile reads every shorter diagonal 0..d-1: band d's
  // predecessor set is exactly the d earlier bands, so successor lists
  // must fan out to every later band.
  for (std::uint32_t d = 0; d + 1 < plan.band_count; ++d)
    EXPECT_EQ(plan.succ_begin[d + 1] - plan.succ_begin[d],
              plan.band_count - 1 - d)
        << "band " << d;

  const exec::chunk_table chunks = exec::build_chunks(plan, 4);
  for (std::uint32_t d = 0; d < plan.band_count; ++d)
    EXPECT_EQ(chunks.chunk_count(d),
              std::min<std::uint32_t>(plan.member_count(d), 4u))
        << "band " << d;
}

}  // namespace
