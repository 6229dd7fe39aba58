// Optimised base-case kernels for the three DP benchmarks, plus the runtime
// dispatch that routes every hot path through them.
//
// The paper's crossover analysis (F1/F2) is driven by two constants the
// reference kernels leave large: per-cell arithmetic cost and per-task
// scheduling overhead. This module attacks the first: register-blocked,
// `__restrict`-annotated, vectorizable formulations of the GE update, the
// FW min-plus update and the SW wavefront fill. Each blocked kernel is
// bit-exact against its reference kernel (see the per-kernel notes in
// kernels.cpp), so the dispatch is a pure performance knob — every variant
// of every benchmark still produces identical tables.
//
// GE has a fast path per tile kind of the blocked schedule (D: packed
// pivot-row panel under a 4×8 register tile; B: row-ordered with 32-column
// register chunks; C: 4-row blocks sharing each pivot-row load) and is
// compiled for three ISAs (baseline, AVX2, x86-64-v4); SW and FW for two
// (baseline, AVX2). The loader picks the widest clone the host supports;
// ge_kernel_clone() names the GE one.
//
// Dispatch: `ge_kernel` / `fw_kernel` / `sw_kernel` consult the process-wide
// kernel_impl selection, which defaults to `blocked` and can be forced with
// set_kernel_impl() or the RDP_KERNELS environment variable
// (RDP_KERNELS=scalar reverts every hot path to the reference kernels).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rdp::dp {

struct sw_params;

/// Which base-case kernel implementation the hot paths use.
enum class kernel_impl : std::uint8_t {
  scalar,   ///< reference triple loops (ge/fw/sw_base_kernel)
  blocked,  ///< register-blocked vectorizable kernels (this module)
};

const char* to_string(kernel_impl k) noexcept;

/// Process-wide selection. First use reads RDP_KERNELS ("scalar"/"blocked",
/// default blocked); set_kernel_impl overrides it (tests, benches, CLI).
kernel_impl active_kernel_impl() noexcept;
void set_kernel_impl(kernel_impl k) noexcept;

// ---- blocked kernels (same contracts as the reference kernels) ----------

/// Blocked GE update over region (i0,j0,k0,b), bit-identical to
/// ge_base_kernel (see it for the region contract): every element keeps its
/// reference subtraction chain, k ascending with the same factors; only the
/// visiting order of independent elements changes. Tiles of the blocked
/// schedule with b <= 256 take one of three fast paths:
///   D (i0, j0 >= k0+b): the pivot-row panel is packed into contiguous
///     8-column strips and a 4×8 register tile runs over it, k innermost;
///   B (i0 == k0, j0 >= k0+b): row by row, each row accumulating the final
///     rows above it in 32-column register chunks;
///   C (j0 == k0, i0 >= k0+b): blocks of 4 independent rows sharing each
///     pivot-row load.
/// The A (diagonal) tile and every other geometry keep the reference loop
/// order with a vectorized inner loop. No heap allocation in steady state:
/// the D path's panel is a per-thread buffer of at most 256² doubles.
void ge_base_kernel_blocked(double* c, std::size_t n, std::size_t i0,
                            std::size_t j0, std::size_t k0, std::size_t b);

/// The clone of the GE kernels this host runs: "x86-64-v4", "avx2" or
/// "default" (gcc's ifunc resolver order), or "none (clones disabled)" in
/// sanitizer and non-x86 builds.
const char* ge_kernel_clone() noexcept;

/// Blocked FW min-plus update. Tiles whose row and column ranges are both
/// disjoint from the pivot range [k0,k0+b) — the D-kind tiles, which
/// dominate the tile count — use a GEMM-style i×j register tile with k
/// innermost; min is exact (order-free) so the result is bit-identical.
/// Aliased tiles (A/B/C kinds) keep the reference loop order with a
/// vectorized inner loop.
void fw_base_kernel_blocked(double* c, std::size_t n, std::size_t i0,
                            std::size_t j0, std::size_t k0, std::size_t b);

/// Blocked FW min-plus update of one contiguous b×b tile (row-major,
/// leading dimension b — the item value of the value-passing data-flow
/// graph):
///     x[i][j] = min(x[i][j], u[i][k] + v[k][j]),  k outer
/// with u = x for A/C-kind tiles and v = x for A/B-kind tiles (the caller
/// passes x itself). Tiles with u and v both distinct from x (the D kind)
/// use the GEMM-style register tile with k innermost — min is exact
/// (order-free over an ascending chain), so the result is bit-identical.
/// Aliased tiles keep the reference loop order with a vectorized inner
/// loop.
void fw_tile_kernel_blocked(double* x, const double* u, const double* v,
                            std::size_t b);

/// Scalar reference for the contiguous-tile FW update (the exact loop
/// order of the value-passing data-flow formulation).
void fw_tile_kernel_scalar(double* x, const double* u, const double* v,
                           std::size_t b);

/// Blocked SW tile fill. Per output row, the anti-diagonal-safe two-pass
/// formulation: a vectorizable pass computes e[j] = max(0, diag, up) from
/// the (already final) previous row, then a short scalar scan resolves the
/// serial left-dependency row[j] = max(e[j], row[j-1] - gap). Identical
/// cell values to sw_base_kernel (integer arithmetic, same recurrences).
void sw_base_kernel_blocked(std::int32_t* s, std::size_t ld,
                            std::string_view a, std::string_view b,
                            const sw_params& p, std::size_t i0,
                            std::size_t j0, std::size_t bsz);

// ---- dispatchers (drop-in replacements for the reference kernels) -------

void ge_kernel(double* c, std::size_t n, std::size_t i0, std::size_t j0,
               std::size_t k0, std::size_t b);
void fw_kernel(double* c, std::size_t n, std::size_t i0, std::size_t j0,
               std::size_t k0, std::size_t b);
void sw_kernel(std::int32_t* s, std::size_t ld, std::string_view a,
               std::string_view b, const sw_params& p, std::size_t i0,
               std::size_t j0, std::size_t bsz);
void fw_tile_kernel(double* x, const double* u, const double* v,
                    std::size_t b);

}  // namespace rdp::dp
