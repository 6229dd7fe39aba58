// The one split rule of the recursive backends (§I-A): r-way recursion is
// the same R-DP algorithm with a wider branching factor, so each
// structure_kind states its decomposition once, for any r. A region of side
// t.b splits into r×r (×r) sub-regions of side h = t.b / r; child tile
// coordinates are the parent's times r plus the sub-region offset.
//
// At r = 2 the rules emit the classic plans child for child and stage for
// stage: GE's funcA A; {B ∥ C}; D; A (Listing 3), FW's 8-child 6-stage
// funcA with its backward sweep, SW's R00; {R01 ∥ R10}; R11 and Paren's
// diagonal/off-diagonal phases. At r = n/base one level reaches the base
// tiles: per pivot round A; {B ∥ C}; {D}, one stage per anti-diagonal, or
// one stage per diagonal — the blocked schedules of refs [7-10].
#include "dp/common.hpp"
#include "dp/spec/spec.hpp"
#include "support/assertions.hpp"

namespace rdp::dp {

namespace {

/// A/B/C/D recursion. `triangular` (GE) prunes the sub-blocks before the
/// pivot round, which GE's update guards leave untouched; FW
/// (abcd_full) updates every sub-block in every round, so its funcA also
/// runs the backward half of each round.
void split_abcd(const tile4& t, std::int32_t r, bool triangular,
                split_plan& plan) {
  const std::int32_t h = t.b / r;
  const std::int32_t i0 = t.i * r, j0 = t.j * r, k0 = t.k * r;
  // Whether sub-block x (a row or column offset) is updated in round kk.
  auto active = [triangular](std::int32_t x, std::int32_t kk) {
    return x != kk && !(triangular && x < kk);
  };
  switch (classify(t.i, t.j, t.k)) {
    case task_kind::A:  // i0 == j0 == k0
      for (std::int32_t kk = 0; kk < r; ++kk) {
        plan.add({k0 + kk, k0 + kk, k0 + kk, h});
        plan.end_stage();
        // Row band (B) and column band (C) of this pivot round.
        for (std::int32_t jj = 0; jj < r; ++jj)
          if (active(jj, kk)) plan.add({k0 + kk, k0 + jj, k0 + kk, h});
        for (std::int32_t ii = 0; ii < r; ++ii)
          if (active(ii, kk)) plan.add({k0 + ii, k0 + kk, k0 + kk, h});
        plan.end_stage();
        for (std::int32_t ii = 0; ii < r; ++ii)
          for (std::int32_t jj = 0; jj < r; ++jj)
            if (active(ii, kk) && active(jj, kk))
              plan.add({k0 + ii, k0 + jj, k0 + kk, h});
        plan.end_stage();
      }
      break;
    case task_kind::B:  // i0 == k0
      for (std::int32_t kk = 0; kk < r; ++kk) {
        for (std::int32_t jj = 0; jj < r; ++jj)
          plan.add({k0 + kk, j0 + jj, k0 + kk, h});
        plan.end_stage();
        for (std::int32_t ii = 0; ii < r; ++ii)
          for (std::int32_t jj = 0; jj < r; ++jj)
            if (active(ii, kk)) plan.add({i0 + ii, j0 + jj, k0 + kk, h});
        plan.end_stage();
      }
      break;
    case task_kind::C:  // j0 == k0
      for (std::int32_t kk = 0; kk < r; ++kk) {
        for (std::int32_t ii = 0; ii < r; ++ii)
          plan.add({i0 + ii, k0 + kk, k0 + kk, h});
        plan.end_stage();
        for (std::int32_t jj = 0; jj < r; ++jj)
          for (std::int32_t ii = 0; ii < r; ++ii)
            if (active(jj, kk)) plan.add({i0 + ii, j0 + jj, k0 + kk, h});
        plan.end_stage();
      }
      break;
    case task_kind::D:
      for (std::int32_t kk = 0; kk < r; ++kk) {
        for (std::int32_t ii = 0; ii < r; ++ii)
          for (std::int32_t jj = 0; jj < r; ++jj)
            plan.add({i0 + ii, j0 + jj, k0 + kk, h});
        plan.end_stage();
      }
      break;
  }
}

/// Wavefront: the r×r sub-regions along their 2r-1 anti-diagonals; those
/// on one anti-diagonal are mutually independent.
void split_wavefront(const tile4& t, std::int32_t r, split_plan& plan) {
  const std::int32_t h = t.b / r;
  for (std::int32_t d = 0; d <= 2 * (r - 1); ++d) {
    for (std::int32_t ii = 0; ii < r; ++ii)
      if (d - ii >= 0 && d - ii < r)
        plan.add({t.i * r + ii, t.j * r + d - ii, 0, h});
    plan.end_stage();
  }
}

/// Upper-triangular diagonal recursion. A diagonal region splits into its
/// r sub-diagonals (one stage, their row and column bands are disjoint),
/// then the off-diagonal sub-regions by offset, shortest first (regions of
/// one offset are independent). An off-diagonal region splits into its r×r
/// sub-regions along 2r-1 anti-diagonal phases with rows reversed —
/// bottom-left first — since (a, b) reads row a to its left and column b
/// below it.
void split_diagonal(const tile4& t, std::int32_t r, split_plan& plan) {
  const std::int32_t h = t.b / r;
  const std::int32_t i0 = t.i * r, j0 = t.j * r;
  if (t.i == t.j) {
    for (std::int32_t o = 0; o < r; ++o) {
      for (std::int32_t a = 0; a + o < r; ++a)
        plan.add({i0 + a, i0 + a + o, 0, h});
      plan.end_stage();
    }
    return;
  }
  for (std::int32_t p = 0; p <= 2 * (r - 1); ++p) {
    // Sub-regions (a, b) with (r-1-a) + b == p.
    for (std::int32_t a = 0; a < r; ++a) {
      const std::int32_t b = p + a + 1 - r;
      if (b >= 0 && b < r) plan.add({i0 + a, j0 + b, 0, h});
    }
    plan.end_stage();
  }
}

}  // namespace

split_plan recurrence::split(const tile4& t, std::size_t r) const {
  RDP_REQUIRE_MSG(r >= 2 && t.b > 0 && static_cast<std::size_t>(t.b) % r == 0,
                  "split: r must be >= 2 and divide the region side");
  const auto ri = static_cast<std::int32_t>(r);
  split_plan plan;
  switch (structure()) {
    case structure_kind::abcd_triangular:
      split_abcd(t, ri, /*triangular=*/true, plan);
      break;
    case structure_kind::abcd_full:
      split_abcd(t, ri, /*triangular=*/false, plan);
      break;
    case structure_kind::wavefront:
      split_wavefront(t, ri, plan);
      break;
    case structure_kind::diagonal_3way:
      split_diagonal(t, ri, plan);
      break;
  }
  return plan;
}

}  // namespace rdp::dp
