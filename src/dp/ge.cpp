#include "dp/ge.hpp"

#include <algorithm>

#include "dp/kernels.hpp"
#include "support/assertions.hpp"

namespace rdp::dp {

// NOTE on the update guard: the paper's Listing 2 prints the guard as
// (i > k && j >= k). Taken literally, the j == k iteration zeroes the
// multiplier C[i][k] *before* the j > k iterations read it, which destroys
// the elimination. We use the guard of the cache-oblivious GE paradigm the
// paper builds on (Chowdhury & Ramachandran [12, 35]): i > k && j > k, which
// preserves the multiplier column. The update itself is
//     C[i][j] -= (C[i][k] / C[k][k]) * C[k][j]
// with the quotient hoisted out of the innermost loop ("eliminating
// branches in the innermost loop", §IV-A) — every variant uses this exact
// expression so results are bit-identical across execution orders.

void ge_base_kernel(double* c, std::size_t n, std::size_t i0, std::size_t j0,
                    std::size_t k0, std::size_t b) {
  RDP_REQUIRE_MSG(i0 + b <= n && j0 + b <= n && k0 + b <= n,
                  "base tile exceeds the table");
  const std::size_t k_end = std::min(k0 + b, n - 1);
  for (std::size_t k = k0; k < k_end; ++k) {
    const double pivot = c[k * n + k];
    const double* row_k = c + k * n;
    const std::size_t i_lo = std::max(i0, k + 1);
    const std::size_t j_lo = std::max(j0, k + 1);
    const std::size_t i_hi = i0 + b;
    const std::size_t j_hi = j0 + b;
    for (std::size_t i = i_lo; i < i_hi; ++i) {
      double* row_i = c + i * n;
      const double factor = row_i[k] / pivot;
      for (std::size_t j = j_lo; j < j_hi; ++j)
        row_i[j] -= factor * row_k[j];
    }
  }
}

void ge_loop_serial(matrix<double>& m) {
  RDP_REQUIRE(m.rows() == m.cols());
  // One whole-matrix "tile" through the kernel dispatch — one code path
  // keeps the floating-point evaluation order of all variants aligned, and
  // RDP_KERNELS governs the looping baseline too.
  ge_kernel(m.data(), m.rows(), 0, 0, 0, m.rows());
}

}  // namespace rdp::dp
