// Shared wavefront recurrence: everything a wavefront-structured spec
// (SW, LCS/edit-distance, any one-off cell-rule DP) has in common — the
// R00; {R01 ∥ R10}; R11 split, the NW/N/W dependency function with tight
// per-tile arity, consumer counts and enumeration order. Derived classes
// supply only name() and the base-case kernel (see DESIGN.md §15).
#pragma once

#include <cstddef>

#include "dp/spec/spec.hpp"
#include "support/assertions.hpp"

namespace rdp::dp {

class wavefront_recurrence : public recurrence {
 public:
  wavefront_recurrence(std::size_t n, std::size_t base)
      : n_(n), base_(base) {
    RDP_REQUIRE_MSG(base > 0 && n % base == 0, "base size must divide n");
  }

  structure_kind structure() const override {
    return structure_kind::wavefront;
  }
  std::size_t size() const override { return n_; }
  std::size_t base() const override { return base_; }

  /// R(X): R00; {R01 ∥ R10}; R11 — the joins that serialise anti-diagonals
  /// and destroy wavefront parallelism (§IV-B).
  split_plan split(const tile4& t) const override {
    const std::int32_t h = t.b / 2;
    const std::int32_t i2 = 2 * t.i, j2 = 2 * t.j;
    split_plan plan;
    plan.stage({{i2, j2, 0, h}});
    plan.stage({{i2, j2 + 1, 0, h}, {i2 + 1, j2, 0, h}});
    plan.stage({{i2 + 1, j2 + 1, 0, h}});
    return plan;
  }

  void depends(const tile3& t, const dep_sink& need) const override {
    if (t.i > 0 && t.j > 0) need({t.i - 1, t.j - 1, 0});
    if (t.i > 0) need({t.i - 1, t.j, 0});
    if (t.j > 0) need({t.i, t.j - 1, 0});
  }

  /// Tight: the three wavefront neighbours, attained by any interior tile;
  /// a single-tile instance has no dependencies at all.
  std::size_t max_dependencies() const override {
    return n_ / base_ <= 1 ? 0 : 3;
  }

  std::size_t dependency_bound(const tile3& t) const override {
    return static_cast<std::size_t>(t.i > 0 && t.j > 0) +
           static_cast<std::size_t>(t.i > 0) +
           static_cast<std::size_t>(t.j > 0);
  }

  /// Consumers of tile (I,J): its east, south and south-east neighbours
  /// (those inside the tiling). Zero (the bottom-right tile) keeps it.
  std::uint32_t consumer_count(const tile3& t) const override {
    const auto n_tiles = static_cast<std::int32_t>(n_ / base_);
    std::uint32_t gets = 0;
    if (t.i + 1 < n_tiles) ++gets;
    if (t.j + 1 < n_tiles) ++gets;
    if (t.i + 1 < n_tiles && t.j + 1 < n_tiles) ++gets;
    return gets;
  }

  void enumerate_base(const tag_sink& emit) const override {
    const auto n_tiles = static_cast<std::int32_t>(n_ / base_);
    const auto b = static_cast<std::int32_t>(base_);
    for (std::int32_t i = 0; i < n_tiles; ++i)
      for (std::int32_t j = 0; j < n_tiles; ++j) emit({i, j, 0, b});
  }

  /// One cell-rule evaluation per cell of the tile.
  std::uint64_t base_work(const tile3&, std::uint64_t b) const override {
    return b * b;
  }

 protected:
  std::size_t n_;
  std::size_t base_;
};

}  // namespace rdp::dp
