// Property tests: the register-blocked base kernels must be exact drop-in
// replacements for the reference kernels — bit-identical tables for GE/FW
// (FP order preserved or provably order-free) and identical tables for SW —
// over randomized tile geometries: non-power-of-two offsets, tiny and odd
// base sizes (b == 1 included), aliased pivot regions, and through the full
// serial recursions via the runtime dispatch.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "dp/dp.hpp"
#include "dp/kernels.hpp"
#include "dp/tuning.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

template <class T>
bool bit_equal(const matrix<T>& a, const matrix<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Random tile geometry with i0+b <= n (offsets deliberately NOT rounded to
/// powers of two or multiples of the block size).
std::size_t random_offset(xoshiro256& rng, std::size_t n, std::size_t b) {
  return static_cast<std::size_t>(rng.below(n - b + 1));
}

TEST(BlockedKernels, GeMatchesReferenceOnRandomTiles) {
  xoshiro256 rng(42);
  const std::size_t n = 97;  // non-power-of-two table
  const auto input = make_diag_dominant(n, 5);
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t b = 1 + static_cast<std::size_t>(rng.below(40));
    const std::size_t i0 = random_offset(rng, n, b);
    const std::size_t j0 = random_offset(rng, n, b);
    const std::size_t k0 = random_offset(rng, n, b);
    auto ref = input;
    auto blk = input;
    ge_base_kernel(ref.data(), n, i0, j0, k0, b);
    ge_base_kernel_blocked(blk.data(), n, i0, j0, k0, b);
    ASSERT_TRUE(bit_equal(ref, blk))
        << "GE tile i0=" << i0 << " j0=" << j0 << " k0=" << k0 << " b=" << b;
  }
}

TEST(BlockedKernels, FwMatchesReferenceOnRandomTiles) {
  xoshiro256 rng(43);
  const std::size_t n = 101;
  const auto input = make_digraph(n, 0.35, 7, 1e9);
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t b = 1 + static_cast<std::size_t>(rng.below(40));
    const std::size_t i0 = random_offset(rng, n, b);
    const std::size_t j0 = random_offset(rng, n, b);
    const std::size_t k0 = random_offset(rng, n, b);
    auto ref = input;
    auto blk = input;
    fw_base_kernel(ref.data(), n, i0, j0, k0, b);
    fw_base_kernel_blocked(blk.data(), n, i0, j0, k0, b);
    ASSERT_TRUE(bit_equal(ref, blk))
        << "FW tile i0=" << i0 << " j0=" << j0 << " k0=" << k0 << " b=" << b;
  }
}

// The FW fast path is only legal when the updated tile aliases neither the
// pivot row-block nor column-block; pin the aliased geometries explicitly
// (they take the reference-order path and must still be bit-exact).
TEST(BlockedKernels, FwAliasedTilesStayExact) {
  const std::size_t n = 128;
  const auto input = make_digraph(n, 0.35, 11, 1e9);
  const std::size_t configs[][4] = {
      {0, 0, 0, 64},    // diagonal: tile IS the pivot block (funcA)
      {0, 64, 0, 64},   // row aliased (funcB)
      {64, 0, 0, 64},   // column aliased (funcC)
      {32, 32, 32, 32}, // diagonal again, offset
  };
  for (const auto& c : configs) {
    auto ref = input;
    auto blk = input;
    fw_base_kernel(ref.data(), n, c[0], c[1], c[2], c[3]);
    fw_base_kernel_blocked(blk.data(), n, c[0], c[1], c[2], c[3]);
    ASSERT_TRUE(bit_equal(ref, blk))
        << "FW aliased tile i0=" << c[0] << " j0=" << c[1] << " k0=" << c[2];
  }
}

TEST(BlockedKernels, SwMatchesReferenceOnRandomTiles) {
  xoshiro256 rng(44);
  const std::size_t n = 103;
  const auto a = make_dna(n, 19);
  const auto bs = make_dna(n, 23);
  const sw_params p;
  // Arbitrary boundary/table contents: the identity behind the blocked
  // kernel's two-pass split holds for any int32 inputs, so equivalence must
  // too (the recursion only ever feeds it rows/cols of real scores, but the
  // kernel contract is the loop nest, not the provenance of the halo).
  matrix<std::int32_t> input(n + 1, n + 1, 0);
  for (std::size_t i = 0; i < input.size(); ++i)
    input.data()[i] = static_cast<std::int32_t>(rng.below(201)) - 100;
  auto check = [&](std::size_t i0, std::size_t j0, std::size_t b) {
    auto ref = input;
    auto blk = input;
    sw_base_kernel(ref.data(), n + 1, a, bs, p, i0, j0, b);
    sw_base_kernel_blocked(blk.data(), n + 1, a, bs, p, i0, j0, b);
    return bit_equal(ref, blk);
  };
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t b = 1 + static_cast<std::size_t>(rng.below(40));
    const std::size_t i0 = random_offset(rng, n, b);
    const std::size_t j0 = random_offset(rng, n, b);
    ASSERT_TRUE(check(i0, j0, b))
        << "SW tile i0=" << i0 << " j0=" << j0 << " b=" << b;
  }
  // The shapes the kernel's write prefetch treats differently: tiles with
  // fewer rows than the prefetch distance (8), rows wider than its 64-column
  // cap, each on the table's last row, last column or both, and the whole
  // table (b = n, sw_loop_serial's single call).
  for (std::size_t b : {1, 2, 7, 8, 9, 33, 63, 64, 65, 100, 103}) {
    const std::size_t edge = n - b;
    const std::size_t geometries[][2] = {
        {edge, edge}, {edge, 0}, {0, edge}, {edge / 2, edge}};
    for (const auto& g : geometries)
      ASSERT_TRUE(check(g[0], g[1], b))
          << "SW tile i0=" << g[0] << " j0=" << g[1] << " b=" << b;
  }
}

/// RAII guard: tests must not leak a scalar-pinned dispatch into others.
struct impl_guard {
  kernel_impl saved = active_kernel_impl();
  ~impl_guard() { set_kernel_impl(saved); }
};

TEST(BlockedKernels, DispatchSwitchIsObservable) {
  impl_guard guard;
  set_kernel_impl(kernel_impl::scalar);
  EXPECT_EQ(active_kernel_impl(), kernel_impl::scalar);
  set_kernel_impl(kernel_impl::blocked);
  EXPECT_EQ(active_kernel_impl(), kernel_impl::blocked);
}

TEST(BlockedKernels, SerialRecursionsAgreeAcrossImpls) {
  impl_guard guard;
  // base == 1 drives every tile kind through the kernels' smallest shape.
  for (std::size_t base : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    auto run_ge = [base](kernel_impl impl) {
      set_kernel_impl(impl);
      auto m = make_diag_dominant(64, 31);
      exec::run_serial(*make_ge_spec(m, base));
      return m;
    };
    auto run_fw = [base](kernel_impl impl) {
      set_kernel_impl(impl);
      auto m = make_digraph(64, 0.3, 37, 1e9);
      exec::run_serial(*make_fw_spec(m, base));
      return m;
    };
    auto run_sw = [base](kernel_impl impl) {
      set_kernel_impl(impl);
      const auto a = make_dna(64, 41);
      const auto b = make_dna(64, 43);
      matrix<std::int32_t> s(65, 65, 0);
      exec::run_serial(*make_sw_spec(s, a, b, sw_params{}, base));
      return s;
    };
    EXPECT_TRUE(bit_equal(run_ge(kernel_impl::scalar),
                          run_ge(kernel_impl::blocked)))
        << "GE base=" << base;
    EXPECT_TRUE(bit_equal(run_fw(kernel_impl::scalar),
                          run_fw(kernel_impl::blocked)))
        << "FW base=" << base;
    EXPECT_TRUE(bit_equal(run_sw(kernel_impl::scalar),
                          run_sw(kernel_impl::blocked)))
        << "SW base=" << base;
  }
  // Production SW grains on a table larger than one tile: at base 32 the
  // write prefetch covers each tile row whole, at base 64 (65 cells a row
  // with the left halo) it takes the 64-column cap.
  for (std::size_t base : {std::size_t{32}, std::size_t{64}}) {
    auto run_sw = [base](kernel_impl impl) {
      set_kernel_impl(impl);
      const auto a = make_dna(256, 47);
      const auto b = make_dna(256, 53);
      matrix<std::int32_t> s(257, 257, 0);
      exec::run_serial(*make_sw_spec(s, a, b, sw_params{}, base));
      return s;
    };
    EXPECT_TRUE(bit_equal(run_sw(kernel_impl::scalar),
                          run_sw(kernel_impl::blocked)))
        << "SW n=256 base=" << base;
  }
}

// ------------------------------------------------------ grain tuning ----

TEST(GrainTuning, CalibrationPicksACandidateWithinRange) {
  const auto r = calibrate_base(tune_target::ge, 128);
  EXPECT_LE(r.base, 128u);
  EXPECT_GE(r.base, k_tune_candidates[0]);
  EXPECT_EQ(r.probe_n, 128u);
  EXPECT_GT(r.best_seconds, 0.0);
  bool is_candidate = false;
  for (std::size_t c : k_tune_candidates) is_candidate |= (c == r.base);
  EXPECT_TRUE(is_candidate);
}

TEST(GrainTuning, TunedBaseIsCachedAndClamped) {
  const std::size_t first = tuned_base(tune_target::fw, 256);
  const std::size_t second = tuned_base(tune_target::fw, 256);
  EXPECT_EQ(first, second);  // cached, not re-probed
  EXPECT_LE(tuned_base(tune_target::fw, 16), 16u);  // clamped to n
}

TEST(GrainTuning, ResolveBaseOption) {
  EXPECT_EQ(resolve_base_option("", tune_target::ge, 512, 64), 64u);
  EXPECT_EQ(resolve_base_option("32", tune_target::ge, 512, 64), 32u);
  const std::size_t autod = resolve_base_option("auto", tune_target::ge, 512, 64);
  EXPECT_GE(autod, k_tune_candidates[0]);
  EXPECT_LE(autod, 512u);
  EXPECT_THROW(resolve_base_option("7", tune_target::ge, 512, 64),
               std::runtime_error);
  EXPECT_THROW(resolve_base_option("0", tune_target::ge, 512, 64),
               std::runtime_error);
  EXPECT_THROW(resolve_base_option("1024", tune_target::ge, 512, 64),
               std::runtime_error);
  EXPECT_THROW(resolve_base_option("abc", tune_target::ge, 512, 64),
               std::runtime_error);
  EXPECT_THROW(resolve_base_option("64x", tune_target::ge, 512, 64),
               std::runtime_error);
}

}  // namespace
