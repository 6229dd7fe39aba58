// Gaussian Elimination without pivoting (GE) — the paper's running example.
//
//   * ge_loop_serial      — the triply-nested loop of Listing 2 (oracle).
//   * ge_base_kernel      — base-case kernel over one (i0,j0,k0,b) region
//                           with the global guards i>k, j>=k (Listing 3's
//                           base part, branch-hoisted).
//
// The recursive, fork-join, tiled, r-way and data-flow executions run the
// GE spec (make_ge_spec, dp/spec/specs.hpp) through the registry
// (dp/registry.hpp) or a src/exec backend; all of them update the matrix in
// place bit-identically to ge_loop_serial (the recursion reorders only
// independent updates).
#pragma once

#include <cstddef>

#include "support/matrix.hpp"

namespace rdp::dp {

/// Listing 2: for k < N-1, for i > k, for j >= k:
///   C[i][j] -= C[i][k] * C[k][j] / C[k][k].
void ge_loop_serial(matrix<double>& c);

/// The base-case kernel: apply the GE update for k in [k0, k0+b),
/// i in [i0, i0+b), j in [j0, j0+b), subject to the global guards
/// k < n-1, i > k, j >= k. Works for all of A/B/C/D: the guards prune
/// exactly the right sub-triangles depending on the region's position.
void ge_base_kernel(double* c, std::size_t n, std::size_t i0, std::size_t j0,
                    std::size_t k0, std::size_t b);

}  // namespace rdp::dp
