// Smith-Waterman local alignment (SW) — benchmark 2 of §IV.
//
// Scoring table S is (n+1)×(m+1) with zero boundary row/column:
//   S[i][j] = max(0,
//                 S[i-1][j-1] + sigma(a[i-1], b[j-1]),
//                 S[i-1][j]   - gap,
//                 S[i][j-1]   - gap)
//
// The 2-way R-DP recursion is R(X): R(X00); {R(X01) ∥ R(X10)}; R(X11) —
// exactly the structure whose joins serialise anti-diagonals and destroy
// wavefront parallelism (the paper's explanation for data-flow winning on
// SW even at large sizes). The data-flow version instead runs each tile as
// soon as its west/north/north-west neighbours are done.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "support/matrix.hpp"

namespace rdp::dp {

/// Linear-gap scoring parameters (DNA defaults).
struct sw_params {
  std::int32_t match = 2;
  std::int32_t mismatch = -1;
  std::int32_t gap = 1;  // subtracted per gap column/row

  std::int32_t sigma(char x, char y) const noexcept {
    return x == y ? match : mismatch;
  }
};

/// Row-by-row loop fill of the whole table. `s` must be
/// (a.size()+1) × (b.size()+1) and zero-initialised. The oracle.
void sw_loop_serial(matrix<std::int32_t>& s, std::string_view a,
                    std::string_view b, const sw_params& p);

/// Base-case kernel: fill the tile of table cells
/// rows [i0+1, i0+1+bsz) × cols [j0+1, j0+1+bsz) (1-based table indices),
/// reading the already-complete halo row/column above/left of the tile.
void sw_base_kernel(std::int32_t* s, std::size_t ld, std::string_view a,
                    std::string_view b, const sw_params& p, std::size_t i0,
                    std::size_t j0, std::size_t bsz);

/// O(n)-space scorer (§IV-A: "we optimised the algorithm to consume O(n)
/// space"): returns the maximum local-alignment score without materialising
/// the table. Used to cross-check the table-filling variants.
std::int32_t sw_linear_space_score(std::string_view a, std::string_view b,
                                   const sw_params& p);

/// Maximum value in a filled SW table (the local alignment score).
std::int32_t sw_best_score(const matrix<std::int32_t>& s);

}  // namespace rdp::dp
