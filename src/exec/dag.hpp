// The one dependence walk over a dp::recurrence, and the task DAGs built
// from it. The two schedules the paper compares are the DAGs the
// discrete-event simulator (sim/experiment.hpp) prices and the work/span
// analysis (trace::analyze_work_span) measures.
//
//   derive_tile_dag — enumerate_base() once and depends() once per base
//                  tile, into a tile_dag. The only place the spec's
//                  dependence contract is checked, and the source of
//                  dataflow_dag, prepared_graph's frozen CSR and the band
//                  plan of freeze_batched (exec/banding.hpp).
//   consumer_counts — each item's get count for the data-flow tuners'
//                  get-count GC, counted over the same two hooks.
//   dataflow_dag — true dependencies only: the tile_dag renumbered into
//                  (k, i, j) node order, one edge per dependency on a
//                  produced key. These are the constraints run_dataflow
//                  and prepared_graph enforce.
//   forkjoin_dag — the split() recursion from root() as run_forkjoin
//                  executes it at branching factor r (2 by default; the
//                  r-way ablation prices wider r): a stage with one child
//                  is inlined, a stage with more gets a zero-work fork
//                  node and join node, and successive stages run in
//                  sequence. Every join edge that
//                  is not also a data dependency is an artificial
//                  dependency in the paper's sense.
//
// Base-task nodes carry rec.base_work(tile, b) — `b` is the tile side to
// price, so a tile-scale spec (n/base tiles of side 1) yields the DAG of
// the (n, base) instance: a spec's tile structure depends only on n/base.
// b == 0 leaves every node's work at 0 (the shape alone, for specs without
// a base_work hook). Abcd specs label nodes with their A/B/C/D kind;
// every other structure labels them D.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "dp/common.hpp"
#include "dp/spec/spec.hpp"
#include "support/small_vector.hpp"
#include "trace/task_graph.hpp"

namespace rdp::exec {

/// Dependency keys of one base task, in depends() order (the walk's and the
/// CnC base step's collector). Wide lists (Paren's 2(J-I)) spill to the
/// heap.
struct dep_list {
  rdp::small_vector<dp::tile3, dp::typical_dependency_arity> keys;

  void operator()(const dp::tile3& k) { keys.push_back(k); }
};

/// A box of tile coordinates (inclusive bounds), laid out densely in
/// lexicographic (k, i, j) order: the geometry of tile_index and the key
/// space of the data-flow lowering's item store (cnc::dense_slots).
class tile_box {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  tile_box() = default;  // empty
  /// The bounding box of the base tags `rec` enumerates (at least one).
  explicit tile_box(const dp::recurrence& rec);

  bool empty() const noexcept { return hi_.i < lo_.i; }
  /// Grow the box to cover t.
  void include(const dp::tile3& t) noexcept {
    if (empty()) {
      lo_ = hi_ = t;
      return;
    }
    lo_ = {std::min(lo_.i, t.i), std::min(lo_.j, t.j), std::min(lo_.k, t.k)};
    hi_ = {std::max(hi_.i, t.i), std::max(hi_.j, t.j), std::max(hi_.k, t.k)};
  }

  /// This box with `layers` extra k-layers below it.
  tile_box widened_below(std::int32_t layers) const {
    tile_box b = *this;
    b.lo_.k -= layers;
    return b;
  }

  const dp::tile3& lo() const noexcept { return lo_; }
  const dp::tile3& hi() const noexcept { return hi_; }

  bool contains(const dp::tile3& t) const noexcept {
    return t.i >= lo_.i && t.i <= hi_.i && t.j >= lo_.j && t.j <= hi_.j &&
           t.k >= lo_.k && t.k <= hi_.k;
  }
  /// Number of coordinates in the box.
  std::size_t size() const noexcept {
    if (empty()) return 0;
    return extent(lo_.k, hi_.k) * extent(lo_.i, hi_.i) *
           extent(lo_.j, hi_.j);
  }
  /// Position of t in (k, i, j) order, or npos outside the box.
  std::size_t offset(const dp::tile3& t) const noexcept {
    return contains(t) ? offset_inside(t) : npos;
  }
  std::size_t offset_inside(const dp::tile3& t) const noexcept {
    return (static_cast<std::size_t>(t.k - lo_.k) * extent(lo_.i, hi_.i) +
            static_cast<std::size_t>(t.i - lo_.i)) *
               extent(lo_.j, hi_.j) +
           static_cast<std::size_t>(t.j - lo_.j);
  }

 private:
  static std::size_t extent(std::int32_t lo, std::int32_t hi) noexcept {
    return static_cast<std::size_t>(hi - lo + 1);
  }

  dp::tile3 lo_{}, hi_{-1, -1, -1};  // default: empty
};

/// The key box the data-flow lowering sizes its item store for: the
/// bounding box of enumerate_base(), plus one k-layer below for a
/// value-passing spec (FW's k = -1 environment seeds). Every base tag,
/// depends() key and seed key of a consistent spec lies inside it
/// (dp::verify_spec checks this).
tile_box item_box(const dp::recurrence& rec);

/// Get count of every item key in `box`, indexed by box.offset(key): the
/// get-count GC input of the data-flow tuners. A key's count is the number
/// of depends() edges naming it; a value-passing spec adds one get for each
/// base tile's final version — the item no base tile at the same (i, j)
/// reads, which gather_values() collects. A count of 0 keeps the item
/// forever. Keys outside the box are skipped.
std::vector<std::uint32_t> consumer_counts(const dp::recurrence& rec,
                                           const tile_box& box);

/// Dense key -> tile map over the bounding box of a spec's base tags, laid
/// out in lexicographic (k, i, j) order. Keys outside the box (FW's k = -1
/// seeds) or on no tag map to npos.
class tile_index {
 public:
  static constexpr std::uint32_t npos = 0xFFFFFFFFu;

  tile_index() = default;
  /// An index over `box`, every slot npos.
  explicit tile_index(const tile_box& box)
      : box_(box), ids_(box.size(), npos) {}

  std::uint32_t& at(const dp::tile3& t) { return ids_[box_.offset_inside(t)]; }

  std::uint32_t find(const dp::tile3& t) const {
    return box_.contains(t) ? ids_[box_.offset_inside(t)] : npos;
  }

  /// Visit every indexed tile in (k, i, j) key order.
  template <class F>
  void for_each(F&& f) const {
    for (const std::uint32_t id : ids_)
      if (id != npos) f(id);
  }

 private:
  tile_box box_;
  std::vector<std::uint32_t> ids_;
};

/// The base-tile dependence DAG of one spec instance. A tile's id is its
/// position in enumerate_base() order (== manual-CnC pre-declaration order)
/// and also its value slot in a prepared graph's value plane; the seed keys
/// take the slots after the tiles, numbered by first use.
struct tile_dag {
  std::vector<dp::tile4> tags;           // enumerate_base() order
  std::vector<std::uint32_t> dep_begin;  // into dep_slots, tile_count()+1
  /// Each tile's dependencies in depends() order: a slot < tile_count() is
  /// the producing tile, one >= tile_count() an environment seed slot.
  std::vector<std::uint32_t> dep_slots;
  /// Keys no base task produces (value-passing specs only) -> seed slot.
  std::unordered_map<dp::tile3, std::uint32_t> seed_slot;
  tile_index index;  // produced key -> tile id

  std::uint32_t tile_count() const {
    return static_cast<std::uint32_t>(tags.size());
  }
  /// Tile t's dependency slots, in depends() order.
  std::span<const std::uint32_t> deps(std::uint32_t t) const {
    return {dep_slots.data() + dep_begin[t],
            dep_slots.data() + dep_begin[t + 1]};
  }
  /// Value slot of an item key: its producer tile, its seed slot, or
  /// tile_index::npos for a key the graph never touches.
  std::uint32_t slot_of(const dp::tile3& key) const {
    const std::uint32_t tile = index.find(key);
    if (tile != tile_index::npos) return tile;
    const auto it = seed_slot.find(key);
    return it == seed_slot.end() ? tile_index::npos : it->second;
  }
};

/// Walk `rec` once into its tile_dag. Throws contract_error when the spec
/// emits no base tiles or a tile twice, a token spec depends on a key no
/// base task produces, or depends() forms a cycle.
tile_dag derive_tile_dag(const dp::recurrence& rec);

/// Data-flow DAG of rec. Nodes are numbered in lexicographic (k, i, j) tag
/// order, so pivot rounds come first and ties in the simulator's ready
/// queue break by round. Environment seeds get no edge; a malformed spec
/// throws what derive_tile_dag throws.
trace::task_graph dataflow_dag(const dp::recurrence& rec, std::size_t b = 0);

/// Fork-join DAG of rec: its r-way split() recursion with fork/join nodes.
/// Requires a tile count of r^L (r = 2: a power of two; r = n/base: the
/// tiled schedule's one level).
trace::task_graph forkjoin_dag(const dp::recurrence& rec, std::size_t b = 0,
                               std::size_t r = 2);

}  // namespace rdp::exec
