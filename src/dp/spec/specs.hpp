// Spec factories for the repo's benchmarks (the paper's three plus the
// variable-arity additions LCS and Paren). Each returns a cheap view over
// the caller's problem data implementing dp::recurrence, ready for any
// src/exec backend. The spec encodes the recurrence and checks the
// problem's shape; each registry row (dp/registry.hpp) additionally checks
// its backend's (n, base) preconditions before handing the spec over.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "dp/spec/spec.hpp"
#include "dp/sw.hpp"  // sw_params
#include "support/matrix.hpp"

namespace rdp::dp {

/// Gaussian Elimination: abcd_triangular over an n×n table updated in
/// place; boolean signalling items (a GE tile is never written after it is
/// read). Requires base to divide m.rows().
std::unique_ptr<recurrence> make_ge_spec(matrix<double>& m,
                                         std::size_t base);

/// Smith-Waterman: wavefront over the (n+1)×(n+1) scoring table (equal
/// length sequences); boolean signalling items (each tile written once).
std::unique_ptr<recurrence> make_sw_spec(matrix<std::int32_t>& s,
                                         std::string_view a,
                                         std::string_view b,
                                         const sw_params& p,
                                         std::size_t base);

/// Floyd-Warshall APSP: abcd_full over an n×n table. In-place hooks drive
/// serial/fork-join/tiled/r-way; the data-flow lowering is value-passing
/// (every tile is rewritten every pivot round, so signalling booleans over
/// a shared table would race — see the spec's comments).
std::unique_ptr<recurrence> make_fw_spec(matrix<double>& m,
                                         std::size_t base);

/// Parenthesization (matrix-chain): diagonal_3way over the upper triangle
/// of an n×n cost table with the n+1 chain dimensions `dims`; fan-in
/// 2(J-I) per tile — the variable-arity recurrence. Boolean signalling
/// items (each tile written once). The spec only reads `dims`; the caller
/// keeps it alive.
std::unique_ptr<recurrence> make_paren_spec(matrix<double>& c,
                                            const std::vector<double>& dims,
                                            std::size_t base);

/// Reference bottom-up loop (chain-length major) for Parenthesization —
/// bit-identical to the spec under every backend (same per-cell candidate
/// expression, min is evaluation-order-free).
void paren_loop_serial(matrix<double>& c, const std::vector<double>& dims);

/// Cell rule selector for the string-wavefront spec below.
enum class lcs_mode { lcs, edit_distance };

/// LCS / edit distance: wavefront over the (n+1)×(n+1) scoring table
/// (equal-length sequences); boolean signalling items. The constructor
/// (re)initialises the boundary row/column for the chosen mode.
std::unique_ptr<recurrence> make_lcs_spec(matrix<std::int32_t>& s,
                                          std::string_view a,
                                          std::string_view b, lcs_mode mode,
                                          std::size_t base);

}  // namespace rdp::dp
