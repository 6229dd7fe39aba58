// Banding: the fusion analysis behind prepared_graph::freeze_batched.
//
// A *band* is a maximal set of base tiles that (a) are mutually independent
// and (b) become ready together: one pivot round's A, its B∥C band, its D
// band (abcd specs), or one anti-diagonal (wavefront specs). The band
// structure is derived once at lowering time from the spec's
// structure_kind and the dependency slots of its tile_dag
// (exec::derive_tile_dag, the one dependence walk — the same information
// every per-tile backend rediscovers on each run) and validated against
// those edges, so a spec whose depends() disagrees with its declared
// structure is rejected at build instead of deadlocking.
//
// prepared_graph::freeze_batched consumes the plan to coarsen its CSR nodes
// from tiles to band chunks. Chunking (build_chunks) splits each band into
// at most `parallelism` contiguous runs so fusing never serialises a band
// that used to run wide.
#pragma once

#include <cstdint>
#include <vector>

#include "dp/spec/spec.hpp"
#include "exec/dag.hpp"

namespace rdp::exec {

/// The frozen band structure of one spec instance. Tile indices are the
/// tile_dag's (enumerate_base() emission order, same as prepared_graph and
/// manual-CnC pre-declaration). Bands are numbered in topological order:
/// every dependency edge goes from a lower band to a strictly higher one
/// (validated at build), so tiles within a band are mutually independent.
struct band_plan {
  std::uint32_t band_count = 0;
  std::vector<std::uint32_t> tile_band;   // band of tile idx
  std::vector<std::uint32_t> members;     // tile indices grouped by band
  std::vector<std::uint32_t> band_begin;  // into members, band_count+1
  std::vector<std::uint32_t> succ;        // band-level edges, deduped
  std::vector<std::uint32_t> succ_begin;  // into succ, band_count+1
  std::vector<std::uint32_t> in_degree;   // distinct predecessor bands

  std::uint32_t member_count(std::uint32_t band) const {
    return band_begin[band + 1] - band_begin[band];
  }
};

/// Derive the band structure of a walked spec whose structure_kind is
/// `kind`. Seed slots add no edge. Throws contract_error when an edge does
/// not point to a later band.
band_plan build_band_plan(const tile_dag& dag, dp::structure_kind kind);

/// One fused step: a contiguous run of a band's members.
struct chunk_ref {
  std::uint32_t band = 0;
  std::uint32_t member_begin = 0, member_end = 0;  // into plan.members
};

struct chunk_table {
  std::vector<chunk_ref> chunks;
  std::vector<std::uint32_t> first_chunk;  // per band, band_count+1

  std::uint32_t chunk_count(std::uint32_t band) const {
    return first_chunk[band + 1] - first_chunk[band];
  }
};

/// Split every band into min(member_count, parallelism) contiguous chunks
/// of near-equal size, so a fused band still occupies the whole pool.
chunk_table build_chunks(const band_plan& plan, std::uint32_t parallelism);

}  // namespace rdp::exec
