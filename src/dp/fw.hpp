// Floyd-Warshall all-pairs shortest path (FW-APSP) — benchmark 3 of §IV.
//
//   C[i][j] = min(C[i][j], C[i][k] + C[k][j])   for k, i, j in 0..n
//
// The 2-way R-DP decomposition has exactly the A/B/C/D shape of GE (§IV-B:
// "the analytical model described for GE also applies to FW-APSP since both
// have the same computational complexity and similar data access patterns"),
// with a min-plus update and no pivot division. The base kernel keeps k as
// the outermost loop; relaxations may observe values that are *more* relaxed
// than the strict loop schedule, which is safe for min-plus (monotone
// convergence to the shortest-path fixpoint).
#pragma once

#include <cstddef>

#include "support/matrix.hpp"

namespace rdp::dp {

/// Classic triple loop (k outer). The oracle for all other variants.
void fw_loop_serial(matrix<double>& c);

/// Base-case kernel: relax k in [k0,k0+b), i in [i0,i0+b), j in [j0,j0+b).
void fw_base_kernel(double* c, std::size_t n, std::size_t i0, std::size_t j0,
                    std::size_t k0, std::size_t b);

}  // namespace rdp::dp
