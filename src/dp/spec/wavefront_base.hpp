// Shared wavefront recurrence: everything a wavefront-structured spec
// (SW, LCS/edit-distance, any one-off cell-rule DP) has in common — the
// NW/N/W dependency function and enumeration order; its split is the wavefront rule (spec/split.cpp).
// Derived classes supply only name() and the base-case kernel (see
// DESIGN.md §15).
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

  void depends(const tile3& t, const dep_sink& need) const override {
    if (t.i > 0 && t.j > 0) need({t.i - 1, t.j - 1, 0});
    if (t.i > 0) need({t.i - 1, t.j, 0});
    if (t.j > 0) need({t.i, t.j - 1, 0});
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
