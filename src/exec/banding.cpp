#include "exec/banding.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "support/assertions.hpp"

namespace rdp::exec {

namespace {

/// Raw (sparse) band key of one base tile. abcd rounds interleave three
/// phases — the pivot A, the B∥C band it unblocks, the D band those unblock
/// — so round k maps to keys 3k/3k+1/3k+2; triangular specs simply never
/// emit some of them (GE's last round is A-only). Wavefront tiles become
/// ready along anti-diagonals; diagonal_3way tiles along the diagonals
/// j - i of the upper-triangular grid (every dependency of tile (I,J) —
/// the (I,K)/(K,J) segments — sits on a strictly shorter diagonal).
std::int64_t raw_band_key(dp::structure_kind kind, const dp::tile4& t) {
  if (kind == dp::structure_kind::wavefront)
    return static_cast<std::int64_t>(t.i) + t.j;
  if (kind == dp::structure_kind::diagonal_3way)
    return static_cast<std::int64_t>(t.j) - t.i;
  switch (dp::classify(t.i, t.j, t.k)) {
    case dp::task_kind::A: return 3 * static_cast<std::int64_t>(t.k);
    case dp::task_kind::B:
    case dp::task_kind::C: return 3 * static_cast<std::int64_t>(t.k) + 1;
    case dp::task_kind::D: return 3 * static_cast<std::int64_t>(t.k) + 2;
  }
  return 0;
}

}  // namespace

band_plan build_band_plan(const tile_dag& dag, dp::structure_kind kind) {
  band_plan plan;
  const std::uint32_t tile_count = dag.tile_count();

  // Dense band numbering: sparse structural keys → observed-key rank. The
  // sort order of the raw keys IS the topological order (validated below).
  std::vector<std::int64_t> raw(tile_count);
  std::vector<std::int64_t> distinct;
  for (std::uint32_t idx = 0; idx < tile_count; ++idx) {
    raw[idx] = raw_band_key(kind, dag.tags[idx]);
    distinct.push_back(raw[idx]);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  plan.band_count = static_cast<std::uint32_t>(distinct.size());
  plan.tile_band.resize(tile_count);
  for (std::uint32_t idx = 0; idx < tile_count; ++idx)
    plan.tile_band[idx] = static_cast<std::uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), raw[idx]) -
        distinct.begin());

  // Members grouped by band (counting sort keeps enumerate order in-band).
  plan.band_begin.assign(plan.band_count + 1, 0);
  for (std::uint32_t idx = 0; idx < tile_count; ++idx)
    ++plan.band_begin[plan.tile_band[idx] + 1];
  for (std::uint32_t b = 0; b < plan.band_count; ++b)
    plan.band_begin[b + 1] += plan.band_begin[b];
  plan.members.resize(tile_count);
  {
    std::vector<std::uint32_t> cursor(plan.band_begin.begin(),
                                      plan.band_begin.end() - 1);
    for (std::uint32_t idx = 0; idx < tile_count; ++idx)
      plan.members[cursor[plan.tile_band[idx]]++] = idx;
  }

  // Band-level edges from the tile-level dependency slots. Every edge must
  // point strictly forward — that is precisely what makes in-band tiles
  // mutually independent and one counter per band sufficient.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t idx = 0; idx < tile_count; ++idx) {
    for (const std::uint32_t slot : dag.deps(idx)) {
      if (slot >= tile_count) continue;  // environment seed: no band edge
      const std::uint32_t from = plan.tile_band[slot];
      const std::uint32_t to = plan.tile_band[idx];
      RDP_REQUIRE_MSG(from < to,
                      std::string(dp::to_string(kind)) +
                          " banding disagrees with depends() (edge does not "
                          "point to a later band) — spec cannot be batched");
      edges.emplace_back(from, to);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  plan.succ_begin.assign(plan.band_count + 1, 0);
  plan.in_degree.assign(plan.band_count, 0);
  for (const auto& [from, to] : edges) {
    ++plan.succ_begin[from + 1];
    ++plan.in_degree[to];
  }
  for (std::uint32_t b = 0; b < plan.band_count; ++b)
    plan.succ_begin[b + 1] += plan.succ_begin[b];
  plan.succ.resize(edges.size());
  {
    std::vector<std::uint32_t> cursor(plan.succ_begin.begin(),
                                      plan.succ_begin.end() - 1);
    for (const auto& [from, to] : edges) plan.succ[cursor[from]++] = to;
  }

  return plan;
}

chunk_table build_chunks(const band_plan& plan, std::uint32_t parallelism) {
  if (parallelism == 0) parallelism = 1;
  chunk_table table;
  table.first_chunk.assign(plan.band_count + 1, 0);
  for (std::uint32_t b = 0; b < plan.band_count; ++b) {
    table.first_chunk[b] = static_cast<std::uint32_t>(table.chunks.size());
    const std::uint32_t begin = plan.band_begin[b];
    const std::uint32_t count = plan.member_count(b);
    const std::uint32_t chunks = std::min(count, parallelism);
    for (std::uint32_t c = 0; c < chunks; ++c) {
      // Near-equal split: chunk c covers [c*count/chunks, (c+1)*count/chunks).
      const std::uint32_t lo =
          begin + static_cast<std::uint32_t>(
                      (static_cast<std::uint64_t>(count) * c) / chunks);
      const std::uint32_t hi =
          begin + static_cast<std::uint32_t>(
                      (static_cast<std::uint64_t>(count) * (c + 1)) / chunks);
      table.chunks.push_back({b, lo, hi});
    }
  }
  table.first_chunk[plan.band_count] =
      static_cast<std::uint32_t>(table.chunks.size());
  return table;
}

}  // namespace rdp::exec
