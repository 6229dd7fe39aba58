#include "dp/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "dp/fw.hpp"
#include "dp/ge.hpp"
#include "dp/sw.hpp"
#include "support/assertions.hpp"

// This translation unit is compiled with -fopenmp-simd (the pragmas below
// assert lane independence the alias analysis cannot prove) and with
// -ffp-contract=off: FMA contraction would round ge's a-b*c differently on
// the AVX2 clone than on the default clone and break bit-exactness against
// the reference kernel.
//
// RDP_KERNEL_CLONES compiles each hot function twice (baseline + AVX2) with
// gcc's target_clones; the dynamic linker picks the widest supported clone
// at first call (ifunc). RDP_GE_CLONES adds an x86-64-v4 (AVX-512) clone
// for the GE kernels only, so SW and FW run the same code on every host.
// Disabled under sanitizers (ifunc resolvers run before the sanitizer
// runtimes initialise) and on non-x86 targets, where the plain definition
// remains — the scalar fallback is always available through the
// dispatchers regardless.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define RDP_CLONES_ENABLED 1
#define RDP_KERNEL_CLONES __attribute__((target_clones("default", "avx2")))
#define RDP_GE_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#else
#define RDP_CLONES_ENABLED 0
#define RDP_KERNEL_CLONES
#define RDP_GE_CLONES
#endif

namespace rdp::dp {

// ------------------------------------------------------------ dispatch ----

const char* to_string(kernel_impl k) noexcept {
  switch (k) {
    case kernel_impl::scalar: return "scalar";
    case kernel_impl::blocked: return "blocked";
  }
  return "?";
}

namespace {

kernel_impl impl_from_env() noexcept {
  const char* e = std::getenv("RDP_KERNELS");
  if (e != nullptr && std::strcmp(e, "scalar") == 0)
    return kernel_impl::scalar;
  return kernel_impl::blocked;
}

std::atomic<kernel_impl>& impl_slot() noexcept {
  static std::atomic<kernel_impl> slot{impl_from_env()};
  return slot;
}

}  // namespace

kernel_impl active_kernel_impl() noexcept {
  return impl_slot().load(std::memory_order_relaxed);
}

void set_kernel_impl(kernel_impl k) noexcept {
  impl_slot().store(k, std::memory_order_relaxed);
}

// ------------------------------------------------------------------ GE ----

// Three fast regimes for the tile kinds of the blocked schedule, all
// bit-exact: each element (i,j) still receives its reference subtraction
// chain c[i][j] -= f(i,k) * c[k][j] for k ascending, with the same factor
// f(i,k) = c[i][k] / c[k][k] (a division, never a reciprocal), and this
// translation unit forbids FMA contraction. Only the order in which
// independent elements are visited changes.
//
//  * D tiles (i0 >= k0+b AND j0 >= k0+b): the update guard never clamps,
//    and the pivots, the multiplier column k and the pivot rows all lie
//    outside the written region, so every factor is invariant for the whole
//    kernel: GEMM structure. The pivot-row panel c[k0..k_end)[j0..j0+b) is
//    first packed into contiguous 8-column strips (at n = 1024 its rows are
//    8 KB apart and all fall into one L1 set), then a 4×8 register tile runs
//    over each strip with k innermost, reading one sequential stream.
//
//  * B tiles (i0 == k0, j0 >= k0+b): row i is updated by the rows k < i of
//    the same tile, and row k is final once its own updates are done. So the
//    tile is filled row by row: row i accumulates -f(i,k)·row_k for k
//    ascending over the (final) rows above it, 32 columns at a time in
//    registers. The factors read column k < k0+b <= j0, which the tile
//    never writes.
//
//  * C tiles (j0 == k0, i0 >= k0+b): every row is updated only by the
//    pivot rows k in [k0,k0+b) (constant, above the tile) and by its own
//    column k, so rows are independent. Blocks of 4 rows go outermost, k in
//    the middle, and each pivot-row load is shared by the 4 rows.
//
//  * Everything else — the A (diagonal) tile, off-grid geometries and bases
//    above k_ge_kmax — keeps the reference loop order (k outer) with only
//    the inner j loop vectorized. Rows being updated are all > k, so the
//    pivot row is never written and __restrict holds.
//
// The GE functions carry the third, x86-64-v4 clone (RDP_GE_CLONES): a row
// of the 4×8 tile is one zmm register there. Each kernel body sits inside
// its own cloned function; a helper called from a clone is compiled for the
// baseline ISA unless it is inlined.

namespace {

constexpr std::size_t k_ge_ri = 4;      // register-tile rows (D, C)
constexpr std::size_t k_ge_rj = 8;      // register-tile cols = strip width (D)
constexpr std::size_t k_ge_bj = 32;     // register chunk of a B-tile row
constexpr std::size_t k_ge_kmax = 256;  // largest base on a fast path

// D tile. `panel` holds (k_end-k0) * b doubles: at most k_ge_kmax^2
// (512 KiB), supplied by the caller.
RDP_GE_CLONES
void ge_dtile(double* c, std::size_t n, std::size_t i0, std::size_t j0,
              std::size_t k0, std::size_t b, double* __restrict panel) {
  const std::size_t kl = std::min(k0 + b, n - 1) - k0;
  double pivot[k_ge_kmax];
  for (std::size_t kk = 0; kk < kl; ++kk)
    pivot[kk] = c[(k0 + kk) * n + k0 + kk];
  // panel[(s * kl + kk) * 8 + q] = c[k0+kk][j0 + 8s + q]
  for (std::size_t kk = 0; kk < kl; ++kk) {
    const double* __restrict src = c + (k0 + kk) * n + j0;
    for (std::size_t s = 0; s < b / k_ge_rj; ++s)
#pragma omp simd
      for (std::size_t q = 0; q < k_ge_rj; ++q)
        panel[(s * kl + kk) * k_ge_rj + q] = src[s * k_ge_rj + q];
  }
  double f[k_ge_ri][k_ge_kmax];  // f[r][kk] = c[i+r][k0+kk] / c[k][k]
  for (std::size_t i = i0; i < i0 + b; i += k_ge_ri) {
    for (std::size_t r = 0; r < k_ge_ri; ++r) {
      const double* __restrict row = c + (i + r) * n + k0;
#pragma omp simd
      for (std::size_t kk = 0; kk < kl; ++kk) f[r][kk] = row[kk] / pivot[kk];
    }
    for (std::size_t s = 0; s < b / k_ge_rj; ++s) {
      const double* __restrict strip = panel + s * kl * k_ge_rj;
      const std::size_t j = j0 + s * k_ge_rj;
      double acc[k_ge_ri][k_ge_rj];
      for (std::size_t r = 0; r < k_ge_ri; ++r)
#pragma omp simd
        for (std::size_t q = 0; q < k_ge_rj; ++q)
          acc[r][q] = c[(i + r) * n + j + q];
      for (std::size_t kk = 0; kk < kl; ++kk) {
        const double* __restrict row_k = strip + kk * k_ge_rj;
        for (std::size_t r = 0; r < k_ge_ri; ++r) {
          const double fr = f[r][kk];
#pragma omp simd
          for (std::size_t q = 0; q < k_ge_rj; ++q)
            acc[r][q] -= fr * row_k[q];
        }
      }
      for (std::size_t r = 0; r < k_ge_ri; ++r)
#pragma omp simd
        for (std::size_t q = 0; q < k_ge_rj; ++q)
          c[(i + r) * n + j + q] = acc[r][q];
    }
  }
}

// B tile: row-ordered, 32-column register chunks, then the b % 32 tail
// columns in memory.
RDP_GE_CLONES
void ge_btile(double* c, std::size_t n, std::size_t j0, std::size_t k0,
              std::size_t b) {
  const std::size_t k_end = std::min(k0 + b, n - 1);
  const std::size_t j_full = b - b % k_ge_bj;
  double pivot[k_ge_kmax];
  for (std::size_t k = k0; k < k_end; ++k) pivot[k - k0] = c[k * n + k];
  double f[k_ge_kmax];
  for (std::size_t i = k0 + 1; i < k0 + b; ++i) {
    const std::size_t kl = std::min(i, k_end) - k0;  // rows k0..k0+kl-1
    const double* __restrict col = c + i * n + k0;
#pragma omp simd
    for (std::size_t kk = 0; kk < kl; ++kk) f[kk] = col[kk] / pivot[kk];
    double* __restrict row_i = c + i * n + j0;
    for (std::size_t jc = 0; jc < j_full; jc += k_ge_bj) {
      double acc[k_ge_bj];
#pragma omp simd
      for (std::size_t q = 0; q < k_ge_bj; ++q) acc[q] = row_i[jc + q];
      for (std::size_t kk = 0; kk < kl; ++kk) {
        const double* __restrict row_k = c + (k0 + kk) * n + j0 + jc;
        const double fk = f[kk];
#pragma omp simd
        for (std::size_t q = 0; q < k_ge_bj; ++q) acc[q] -= fk * row_k[q];
      }
#pragma omp simd
      for (std::size_t q = 0; q < k_ge_bj; ++q) row_i[jc + q] = acc[q];
    }
    for (std::size_t kk = 0; kk < kl; ++kk) {
      const double* __restrict row_k = c + (k0 + kk) * n + j0;
      const double fk = f[kk];
#pragma omp simd
      for (std::size_t j = j_full; j < b; ++j) row_i[j] -= fk * row_k[j];
    }
  }
}

// C tile: blocks of 4 independent rows outermost, each pivot-row load
// shared by the block; the b % 4 tail rows one at a time.
RDP_GE_CLONES
void ge_ctile(double* c, std::size_t n, std::size_t i0, std::size_t k0,
              std::size_t b) {
  const std::size_t k_end = std::min(k0 + b, n - 1);
  const std::size_t j_end = k0 + b;
  const std::size_t i_full = i0 + (b - b % k_ge_ri);
  std::size_t i = i0;
  for (; i < i_full; i += k_ge_ri) {
    double* __restrict r0 = c + i * n;
    double* __restrict r1 = c + (i + 1) * n;
    double* __restrict r2 = c + (i + 2) * n;
    double* __restrict r3 = c + (i + 3) * n;
    for (std::size_t k = k0; k < k_end; ++k) {
      const double* __restrict row_k = c + k * n;
      const double pivot = row_k[k];
      const double f0 = r0[k] / pivot, f1 = r1[k] / pivot;
      const double f2 = r2[k] / pivot, f3 = r3[k] / pivot;
#pragma omp simd
      for (std::size_t j = k + 1; j < j_end; ++j) {
        const double p = row_k[j];
        r0[j] -= f0 * p;
        r1[j] -= f1 * p;
        r2[j] -= f2 * p;
        r3[j] -= f3 * p;
      }
    }
  }
  for (; i < i0 + b; ++i) {
    double* __restrict row_i = c + i * n;
    for (std::size_t k = k0; k < k_end; ++k) {
      const double* __restrict row_k = c + k * n;
      const double fk = row_i[k] / row_k[k];
#pragma omp simd
      for (std::size_t j = k + 1; j < j_end; ++j) row_i[j] -= fk * row_k[j];
    }
  }
}

RDP_GE_CLONES
void ge_reference_order_simd(double* c, std::size_t n, std::size_t i0,
                             std::size_t j0, std::size_t k0, std::size_t b) {
  const std::size_t k_end = std::min(k0 + b, n - 1);
  for (std::size_t k = k0; k < k_end; ++k) {
    const double pivot = c[k * n + k];
    const double* __restrict row_k = c + k * n;
    const std::size_t i_lo = std::max(i0, k + 1);
    const std::size_t j_lo = std::max(j0, k + 1);
    for (std::size_t i = i_lo; i < i0 + b; ++i) {
      double* __restrict row_i = c + i * n;
      const double factor = row_i[k] / pivot;
#pragma omp simd
      for (std::size_t j = j_lo; j < j0 + b; ++j)
        row_i[j] -= factor * row_k[j];
    }
  }
}

}  // namespace

void ge_base_kernel_blocked(double* c, std::size_t n, std::size_t i0,
                            std::size_t j0, std::size_t k0, std::size_t b) {
  // Spec-boundary input (the tile a spec's split/enumerate emitted):
  // always-on, or a broken spec scribbles out of bounds in Release.
  RDP_REQUIRE_MSG(i0 + b <= n && j0 + b <= n && k0 + b <= n,
                  "base tile exceeds the table");
  const bool rows_below = i0 >= k0 + b;
  const bool cols_right = j0 >= k0 + b;
  if (b <= k_ge_kmax) {
    if (rows_below && cols_right && b % k_ge_rj == 0) {
      // Per-thread packed panel; it grows to the largest D tile this
      // thread has run (at most k_ge_kmax^2 doubles) and is then reused,
      // so steady-state calls allocate nothing.
      thread_local std::vector<double> panel;
      if (panel.size() < b * b) panel.resize(b * b);
      ge_dtile(c, n, i0, j0, k0, b, panel.data());
      return;
    }
    if (i0 == k0 && cols_right) {
      ge_btile(c, n, j0, k0, b);
      return;
    }
    if (j0 == k0 && rows_below) {
      ge_ctile(c, n, i0, k0, b);
      return;
    }
  }
  ge_reference_order_simd(c, n, i0, j0, k0, b);
}

const char* ge_kernel_clone() noexcept {
#if RDP_CLONES_ENABLED
  // The same tests, in the same priority order, as the resolver gcc
  // emits for RDP_GE_CLONES.
  if (__builtin_cpu_supports("x86-64-v4")) return "x86-64-v4";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "default";
#else
  return "none (clones disabled)";
#endif
}

// ------------------------------------------------------------------ FW ----

// Two regimes, both bit-exact:
//
//  * No-alias (D-kind) tiles: rows [i0,i0+b) and cols [j0,j0+b) are both
//    disjoint from the pivot range [k0,k0+b), so row_i[k] and row_k[j] are
//    constants for the whole kernel and the k loop can move innermost. The
//    micro-kernel accumulates a 4×8 register tile over k *in ascending
//    order*, i.e. the exact min-chain of the reference kernel per element.
//
//  * Aliased (A/B/C-kind) tiles: the tile overlaps the pivot row band or
//    column band, so the reference loop order is load-bearing. We keep it
//    (k outer, i middle, j inner) and only vectorize the j loop — safe even
//    when row_i IS row_k: lane j reads element j before writing it, exactly
//    like the scalar loop.
namespace {

constexpr std::size_t k_fw_ri = 4;  // register-tile rows
constexpr std::size_t k_fw_rj = 8;  // register-tile cols

RDP_KERNEL_CLONES
void fw_minplus_tile(double* c, std::size_t n, std::size_t i0, std::size_t j0,
                     std::size_t k0, std::size_t b) {
  for (std::size_t i = i0; i < i0 + b; i += k_fw_ri) {
    for (std::size_t j = j0; j < j0 + b; j += k_fw_rj) {
      double acc[k_fw_ri][k_fw_rj];
      for (std::size_t r = 0; r < k_fw_ri; ++r)
#pragma omp simd
        for (std::size_t q = 0; q < k_fw_rj; ++q)
          acc[r][q] = c[(i + r) * n + j + q];
      for (std::size_t k = k0; k < k0 + b; ++k) {
        const double* __restrict row_k = c + k * n + j;
        for (std::size_t r = 0; r < k_fw_ri; ++r) {
          const double via = c[(i + r) * n + k];
#pragma omp simd
          for (std::size_t q = 0; q < k_fw_rj; ++q)
            acc[r][q] = std::min(acc[r][q], via + row_k[q]);
        }
      }
      for (std::size_t r = 0; r < k_fw_ri; ++r)
#pragma omp simd
        for (std::size_t q = 0; q < k_fw_rj; ++q)
          c[(i + r) * n + j + q] = acc[r][q];
    }
  }
}

RDP_KERNEL_CLONES
void fw_reference_order_simd(double* c, std::size_t n, std::size_t i0,
                             std::size_t j0, std::size_t k0, std::size_t b) {
  for (std::size_t k = k0; k < k0 + b; ++k) {
    const double* row_k = c + k * n;
    for (std::size_t i = i0; i < i0 + b; ++i) {
      double* row_i = c + i * n;
      const double via = row_i[k];
#pragma omp simd
      for (std::size_t j = j0; j < j0 + b; ++j)
        row_i[j] = std::min(row_i[j], via + row_k[j]);
    }
  }
}

}  // namespace

void fw_base_kernel_blocked(double* c, std::size_t n, std::size_t i0,
                            std::size_t j0, std::size_t k0, std::size_t b) {
  RDP_REQUIRE_MSG(i0 + b <= n && j0 + b <= n && k0 + b <= n,
                  "base tile exceeds the table");
  const bool rows_alias = i0 < k0 + b && k0 < i0 + b;
  const bool cols_alias = j0 < k0 + b && k0 < j0 + b;
  if (!rows_alias && !cols_alias && b % k_fw_ri == 0 && b % k_fw_rj == 0) {
    fw_minplus_tile(c, n, i0, j0, k0, b);
    return;
  }
  fw_reference_order_simd(c, n, i0, j0, k0, b);
}

// ---------------------------------------------------- FW (tile items) ----

// The contiguous-tile variant of the FW update used by the value-passing
// data-flow graph. Same two regimes (and the same bit-exactness arguments)
// as fw_base_kernel_blocked, but aliasing is decided by pointer identity:
// u == x / v == x is exactly the A/B/C-kind overlap of the strided kernel.
namespace {

RDP_KERNEL_CLONES
void fw_tile_minplus(double* __restrict x, const double* __restrict u,
                     const double* __restrict v, std::size_t b) {
  for (std::size_t i = 0; i < b; i += k_fw_ri) {
    for (std::size_t j = 0; j < b; j += k_fw_rj) {
      double acc[k_fw_ri][k_fw_rj];
      for (std::size_t r = 0; r < k_fw_ri; ++r)
#pragma omp simd
        for (std::size_t q = 0; q < k_fw_rj; ++q)
          acc[r][q] = x[(i + r) * b + j + q];
      for (std::size_t k = 0; k < b; ++k) {
        const double* __restrict row_k = v + k * b + j;
        for (std::size_t r = 0; r < k_fw_ri; ++r) {
          const double via = u[(i + r) * b + k];
#pragma omp simd
          for (std::size_t q = 0; q < k_fw_rj; ++q)
            acc[r][q] = std::min(acc[r][q], via + row_k[q]);
        }
      }
      for (std::size_t r = 0; r < k_fw_ri; ++r)
#pragma omp simd
        for (std::size_t q = 0; q < k_fw_rj; ++q)
          x[(i + r) * b + j + q] = acc[r][q];
    }
  }
}

RDP_KERNEL_CLONES
void fw_tile_reference_simd(double* x, const double* u, const double* v,
                            std::size_t b) {
  // Reference loop order; the inner loop is safe to vectorize even when
  // v == x and the pivot row is the row being updated: lane j reads its
  // own element before writing it, exactly like the scalar loop.
  for (std::size_t k = 0; k < b; ++k) {
    const double* row_k = v + k * b;
    for (std::size_t i = 0; i < b; ++i) {
      double* row_i = x + i * b;
      const double via = u[i * b + k];
#pragma omp simd
      for (std::size_t j = 0; j < b; ++j)
        row_i[j] = std::min(row_i[j], via + row_k[j]);
    }
  }
}

}  // namespace

void fw_tile_kernel_scalar(double* x, const double* u, const double* v,
                           std::size_t b) {
  for (std::size_t k = 0; k < b; ++k)
    for (std::size_t i = 0; i < b; ++i) {
      const double via = u[i * b + k];
      for (std::size_t j = 0; j < b; ++j)
        x[i * b + j] = std::min(x[i * b + j], via + v[k * b + j]);
    }
}

void fw_tile_kernel_blocked(double* x, const double* u, const double* v,
                            std::size_t b) {
  if (u != x && v != x && b % k_fw_ri == 0 && b % k_fw_rj == 0) {
    fw_tile_minplus(x, u, v, b);
    return;
  }
  fw_tile_reference_simd(x, u, v, b);
}

// ------------------------------------------------------------------ SW ----

// Per output row the reference recurrence
//   row[j] = max(0, diag + sigma, up - gap, row[j-1] - gap)
// splits into a lane-independent part e[j] = max(0, diag + sigma, up - gap)
// (reads only the previous, already-final row — vectorizable) and the
// serial left-scan row[j] = max(e[j], row[j-1] - gap). Splitting is an
// identity, so cell values (not just the best score) match the reference.
//
// Each output row of a tile lies in its own table row (ld apart), so in a
// table larger than the cache every row of a tile is a cold line, and the
// stores to them would miss one after another. The kernel therefore issues
// write-intent prefetches for the row k_sw_prefetch_rows ahead of the one it
// computes (on the first row, for every row up to that distance), covering
// at most the first k_sw_prefetch_cols columns of each row: a tile-sized
// row is covered whole, while a whole-table call (sw_loop_serial, bsz = n)
// streams its long rows through the hardware prefetcher, which whole-row
// requests only slow down. Prefetches never fault and stay inside the
// tile's own rows. The arithmetic is untouched.
namespace {

constexpr std::size_t k_sw_prefetch_rows = 8;
constexpr std::size_t k_sw_prefetch_cols = 64;
constexpr std::uintptr_t k_cache_line = 64;

RDP_KERNEL_CLONES
void sw_blocked_impl(std::int32_t* s, std::size_t ld, const char* a,
                     const char* b, std::int32_t match, std::int32_t mismatch,
                     std::int32_t gap, std::size_t i0, std::size_t j0,
                     std::size_t bsz, std::int32_t* __restrict e) {
  const char* __restrict bs = b + j0;
  // Bytes of row[0..bsz] (the cell left of the tile, then its bsz outputs)
  // that a prefetch covers, and the last row that exists to prefetch.
  const std::uintptr_t pf_bytes =
      std::min(bsz + 1, k_sw_prefetch_cols) * sizeof(std::int32_t);
  const std::size_t last = i0 + bsz;
  for (std::size_t i = i0 + 1; i <= last; ++i) {
    // Row i + D; on the first row, every row from i up to i + D.
    for (std::size_t r = (i == i0 + 1 ? i : i + k_sw_prefetch_rows);
         r <= std::min(i + k_sw_prefetch_rows, last); ++r) {
      const auto first = reinterpret_cast<std::uintptr_t>(s + r * ld + j0);
      for (std::uintptr_t line = first & ~(k_cache_line - 1);
           line < first + pf_bytes; line += k_cache_line)
        __builtin_prefetch(reinterpret_cast<const void*>(line), 1, 3);
    }
    const char ai = a[i - 1];
    const std::int32_t* __restrict above = s + (i - 1) * ld + j0;
    std::int32_t* __restrict row = s + i * ld + j0;
#pragma omp simd
    for (std::size_t t = 0; t < bsz; ++t) {
      const std::int32_t diag = above[t] + (ai == bs[t] ? match : mismatch);
      const std::int32_t up = above[t + 1] - gap;
      std::int32_t v = diag > up ? diag : up;
      e[t] = v > 0 ? v : 0;
    }
    std::int32_t left = row[0];
    for (std::size_t t = 0; t < bsz; ++t) {
      left -= gap;
      if (e[t] > left) left = e[t];
      row[t + 1] = left;
    }
  }
}

}  // namespace

void sw_base_kernel_blocked(std::int32_t* s, std::size_t ld,
                            std::string_view a, std::string_view b,
                            const sw_params& p, std::size_t i0,
                            std::size_t j0, std::size_t bsz) {
  RDP_REQUIRE_MSG(i0 + bsz <= a.size() && j0 + bsz <= b.size(),
                  "base tile exceeds the sequences");
  // Scratch for the lane-independent pass; per-thread so concurrent base
  // tasks never share it.
  thread_local std::vector<std::int32_t> scratch;
  if (scratch.size() < bsz) scratch.resize(bsz);
  sw_blocked_impl(s, ld, a.data(), b.data(), p.match, p.mismatch, p.gap, i0,
                  j0, bsz, scratch.data());
}

// --------------------------------------------------------- dispatchers ----

void ge_kernel(double* c, std::size_t n, std::size_t i0, std::size_t j0,
               std::size_t k0, std::size_t b) {
  if (active_kernel_impl() == kernel_impl::blocked)
    ge_base_kernel_blocked(c, n, i0, j0, k0, b);
  else
    ge_base_kernel(c, n, i0, j0, k0, b);
}

void fw_kernel(double* c, std::size_t n, std::size_t i0, std::size_t j0,
               std::size_t k0, std::size_t b) {
  if (active_kernel_impl() == kernel_impl::blocked)
    fw_base_kernel_blocked(c, n, i0, j0, k0, b);
  else
    fw_base_kernel(c, n, i0, j0, k0, b);
}

void sw_kernel(std::int32_t* s, std::size_t ld, std::string_view a,
               std::string_view b, const sw_params& p, std::size_t i0,
               std::size_t j0, std::size_t bsz) {
  if (active_kernel_impl() == kernel_impl::blocked)
    sw_base_kernel_blocked(s, ld, a, b, p, i0, j0, bsz);
  else
    sw_base_kernel(s, ld, a, b, p, i0, j0, bsz);
}

void fw_tile_kernel(double* x, const double* u, const double* v,
                    std::size_t b) {
  if (active_kernel_impl() == kernel_impl::blocked)
    fw_tile_kernel_blocked(x, u, v, b);
  else
    fw_tile_kernel_scalar(x, u, v, b);
}

}  // namespace rdp::dp
