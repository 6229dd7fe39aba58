// Tests for wavefront DPs defined by a cell functor (cell_wavefront.hpp):
// LCS, edit distance and Needleman-Wunsch against independent references,
// across every execution model, plus boundary handling and re-use.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "cell_wavefront.hpp"
#include "dp/dp.hpp"
#include "exec/prepared_graph.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;
using rdp::test::boundary_table;
using rdp::test::cell_spec;
using rdp::test::fill_loop;

// ---------------------------- cell functors --------------------------------

/// Longest common subsequence length.
struct lcs_cell {
  std::string_view a, b;
  std::int32_t operator()(std::int32_t nw, std::int32_t north,
                          std::int32_t west, std::size_t i,
                          std::size_t j) const {
    return a[i - 1] == b[j - 1] ? nw + 1 : std::max(north, west);
  }
};

/// Levenshtein edit distance (boundary must be initialised to i and j).
struct edit_distance_cell {
  std::string_view a, b;
  std::int32_t operator()(std::int32_t nw, std::int32_t north,
                          std::int32_t west, std::size_t i,
                          std::size_t j) const {
    const std::int32_t subst = nw + (a[i - 1] == b[j - 1] ? 0 : 1);
    return std::min({subst, north + 1, west + 1});
  }
};

/// Needleman-Wunsch global alignment (linear gap; boundary -gap·i / -gap·j).
struct nw_cell {
  std::string_view a, b;
  std::int32_t match = 2, mismatch = -1, gap = 1;
  std::int32_t operator()(std::int32_t nw, std::int32_t north,
                          std::int32_t west, std::size_t i,
                          std::size_t j) const {
    const std::int32_t diag =
        nw + (a[i - 1] == b[j - 1] ? match : mismatch);
    return std::max({diag, north - gap, west - gap});
  }
};

/// Boundary functions: i / j for edit distance, -i / -j for global
/// alignment.
std::int32_t index_boundary(std::size_t k) {
  return static_cast<std::int32_t>(k);
}
std::int32_t gap_boundary(std::size_t k) {
  return -static_cast<std::int32_t>(k);
}

template <class Cell>
using int_spec = cell_spec<std::int32_t, Cell>;

// ------------------------------ references --------------------------------

std::int32_t lcs_reference(std::string_view a, std::string_view b) {
  std::vector<std::int32_t> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  for (std::size_t i = 1; i <= a.size(); ++i) {
    for (std::size_t j = 1; j <= b.size(); ++j)
      cur[j] = a[i - 1] == b[j - 1] ? prev[j - 1] + 1
                                    : std::max(prev[j], cur[j - 1]);
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::int32_t edit_reference(std::string_view a, std::string_view b) {
  std::vector<std::int32_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j)
    prev[j] = static_cast<std::int32_t>(j);
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<std::int32_t>(i);
    for (std::size_t j = 1; j <= b.size(); ++j)
      cur[j] = std::min({prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1),
                         prev[j] + 1, cur[j - 1] + 1});
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

// ------------------------------- LCS ---------------------------------------

TEST(Wavefront, LcsHandExample) {
  const std::string a = "ABCBDAB", b = "BDCABA";  // classic CLRS example
  auto t = boundary_table<std::int32_t>(a.size(), b.size());
  fill_loop(t, lcs_cell{a, b});
  EXPECT_EQ(t(a.size(), b.size()), 4);  // "BCBA"
}

class WavefrontModels
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(WavefrontModels, LcsAgreesAcrossAllModels) {
  const auto [n, base] = GetParam();
  const auto a = make_dna(n, 81);
  const auto b = make_dna(n, 82);
  const auto expected = lcs_reference(a, b);
  const lcs_cell cell{a, b};

  auto loop_table = boundary_table<std::int32_t>(n, n);
  fill_loop(loop_table, cell);
  EXPECT_EQ(loop_table(n, n), expected);

  auto t = boundary_table<std::int32_t>(n, n);
  int_spec<lcs_cell> spec(t, cell, base);
  exec::run_serial(spec);
  EXPECT_TRUE(t == loop_table);

  t = boundary_table<std::int32_t>(n, n);
  forkjoin::worker_pool pool(4);
  exec::run_forkjoin(spec, pool);
  EXPECT_TRUE(t == loop_table);

  for (cnc_variant v : {cnc_variant::native, cnc_variant::tuner,
                        cnc_variant::manual, cnc_variant::nonblocking}) {
    t = boundary_table<std::int32_t>(n, n);
    const auto info = exec::run_dataflow(spec, {v, &pool});
    EXPECT_TRUE(t == loop_table) << to_string(v);
    const std::uint64_t tiles = n / base;
    EXPECT_EQ(info.stats.items_put, tiles * tiles);
    if (v == cnc_variant::tuner || v == cnc_variant::manual) {
      EXPECT_EQ(info.items_live_at_end, 1u);  // get-count GC
    }
  }

  t = boundary_table<std::int32_t>(n, n);
  exec::prepared_graph::freeze_batched(spec, 4).execute(spec, pool);
  EXPECT_TRUE(t == loop_table) << "prepared:batched";
}

INSTANTIATE_TEST_SUITE_P(SizesAndBases, WavefrontModels,
                         ::testing::Values(std::tuple{32, 8},
                                           std::tuple{64, 8},
                                           std::tuple{64, 16},
                                           std::tuple{128, 32},
                                           std::tuple{128, 128}));

// --------------------------- edit distance ---------------------------------

TEST(Wavefront, EditDistanceHandExamples) {
  auto dist = [](std::string_view a, std::string_view b) {
    auto t = boundary_table<std::int32_t>(a.size(), b.size(), index_boundary,
                                          index_boundary);
    fill_loop(t, edit_distance_cell{a, b});
    return t(a.size(), b.size());
  };
  EXPECT_EQ(dist("kitten", "sitting"), 3);
  EXPECT_EQ(dist("", "abc"), 3);
  EXPECT_EQ(dist("abc", ""), 3);
  EXPECT_EQ(dist("same", "same"), 0);
}

TEST(Wavefront, EditDistanceAllModelsMatchReference) {
  forkjoin::worker_pool pool(4);
  const std::size_t n = 64;
  const auto a = make_dna(n, 91), b = make_dna(n, 92);
  const auto expected = edit_reference(a, b);

  auto t = boundary_table<std::int32_t>(n, n, index_boundary, index_boundary);
  int_spec<edit_distance_cell> spec(t, edit_distance_cell{a, b}, 8);
  exec::run_serial(spec);
  EXPECT_EQ(t(n, n), expected);

  t = boundary_table<std::int32_t>(n, n, index_boundary, index_boundary);
  const auto info = exec::run_dataflow(spec, {cnc_variant::tuner, &pool});
  EXPECT_EQ(t(n, n), expected);
  EXPECT_EQ(info.stats.gets_failed, 0u);
}

// ------------------------ Needleman-Wunsch ---------------------------------

TEST(Wavefront, GlobalAlignmentOfIdenticalSequencesIsPerfect) {
  forkjoin::worker_pool pool(2);
  const auto a = make_dna(64, 7);
  auto t = boundary_table<std::int32_t>(64, 64, gap_boundary, gap_boundary);
  int_spec<nw_cell> spec(t, nw_cell{a, a}, 16);
  exec::run_dataflow(spec, {cnc_variant::manual, &pool});
  EXPECT_EQ(t(64, 64), 2 * 64);  // all matches, no gaps
}

TEST(Wavefront, GlobalVsLocalAlignmentRelationship) {
  // SW (local) score is always >= NW (global) score for the same scheme.
  const auto a = make_dna(128, 15), b = make_dna(128, 16);
  auto global =
      boundary_table<std::int32_t>(128, 128, gap_boundary, gap_boundary);
  fill_loop(global, nw_cell{a, b});
  const auto local = sw_linear_space_score(a, b, sw_params{});
  EXPECT_GE(local, global(128, 128));
}

// --------------------------- cell-functor specs ----------------------------

TEST(Wavefront, SmithWatermanExpressedInTheFramework) {
  // The dedicated SW implementation and a cell-functor spec must agree.
  forkjoin::worker_pool pool(4);
  const auto a = make_dna(64, 3), b = make_dna(64, 4);
  const sw_params params;
  struct sw_cell_fn {
    std::string_view a, b;
    sw_params p;
    std::int32_t operator()(std::int32_t nw, std::int32_t north,
                            std::int32_t west, std::size_t i,
                            std::size_t j) const {
      return std::max({0, nw + p.sigma(a[i - 1], b[j - 1]), north - p.gap,
                       west - p.gap});
    }
  };
  auto t = boundary_table<std::int32_t>(64, 64);
  int_spec<sw_cell_fn> spec(t, sw_cell_fn{a, b, params}, 8);
  exec::run_dataflow(spec, {cnc_variant::native, &pool});

  matrix<std::int32_t> dedicated(65, 65, 0);
  sw_loop_serial(dedicated, a, b, params);
  EXPECT_TRUE(t == dedicated);
}

TEST(Wavefront, RectangularLoopFill) {
  const std::string a = "ACGT", b = "ACGTACGT";
  auto t = boundary_table<std::int32_t>(a.size(), b.size());
  fill_loop(t, lcs_cell{a, b});
  EXPECT_EQ(t(a.size(), b.size()), 4);
  // Tiled execution refuses rectangles: the cell spec and the LCS spec.
  EXPECT_THROW(int_spec<lcs_cell>(t, lcs_cell{a, b}, 2), contract_error);
  EXPECT_THROW(make_lcs_spec(t, a, b, lcs_mode::lcs, 2), contract_error);
}

TEST(Wavefront, ResetKeepsBoundary) {
  // Re-running a spec over an already-filled table rewrites only the
  // interior: the boundary stays and the result is reproduced.
  const std::string a = "AACA", b = "AAAA";
  auto t = boundary_table<std::int32_t>(4, 4, index_boundary, index_boundary);
  int_spec<edit_distance_cell> spec(t, edit_distance_cell{a, b}, 2);
  exec::run_serial(spec);
  const auto first = t;
  EXPECT_EQ(t(4, 4), 1);
  exec::run_serial(spec);
  EXPECT_EQ(t(0, 3), 3);  // boundary intact
  EXPECT_TRUE(t == first);
}

}  // namespace
