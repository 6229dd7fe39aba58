// Heap allocations of the executors' per-step paths, counted
// deterministically: this binary replaces the global operator new with a
// counting one and runs Smith-Waterman solves on a borrowed pool.
//
// Data flow: the item store, the waiter lists, the step instances and the
// context counters allocate nothing per step (instances come from the
// fork-join task arena), so the whole dataflow:native solve — context
// construction included — must stay below one global allocation per base
// step. A hash node per item, a waiter vector per park or a heap instance
// per step each break the bound on their own.
//
// The 2-way walk of run_serial/run_forkjoin: every split_plan of r = 2
// fits its inline capacity, so the serial walk allocates nothing at all and
// the fork-join walk (spawned tasks come from the arena) less than once
// per split. A plan that spilled to the heap would cost one allocation per
// split or more.
//
// The blocked GE kernel allocates nothing per call once its thread's
// packing buffer is warm.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "dp/dp.hpp"
#include "dp/kernels.hpp"
#include "exec/backend.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/rng.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace rdp;
using namespace rdp::dp;

/// Global allocations made while `f` runs.
template <class F>
std::uint64_t allocations_of(F&& f) {
  g_news.store(0);
  g_counting.store(true);
  f();
  g_counting.store(false);
  return g_news.load();
}

TEST(DataflowAllocations, NativeSolveAllocatesLessThanOncePerBaseStep) {
  const std::size_t n = 512, base = 16;
  const std::string a = make_dna(n, 1), b = make_dna(n, 2);
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  const auto spec = make_sw_spec(s, a, b, sw_params{}, base);
  forkjoin::worker_pool pool(3);
  const exec::dataflow_options opts{cnc_variant::native, &pool};

  // A first solve warms what is built once per thread or process: arena
  // slabs, deque buffers, metric and trace-name registrations.
  exec::run_dataflow(*spec, opts);

  cnc_run_info info;
  const std::uint64_t allocations =
      allocations_of([&] { info = exec::run_dataflow(*spec, opts); });

  const std::uint64_t base_steps = (n / base) * (n / base);
  ASSERT_EQ(info.stats.items_put, base_steps);
  std::printf("dataflow:native SW %zu/%zu: %llu global allocations for %llu "
              "base steps (%llu executions, %llu aborts)\n",
              n, base, static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(base_steps),
              static_cast<unsigned long long>(info.stats.steps_executed),
              static_cast<unsigned long long>(info.stats.steps_aborted));
  EXPECT_LT(allocations, base_steps);
}

/// Whether every 2-way plan below region t stays in its inline storage.
bool two_way_plans_inline(const recurrence& rec, const tile4& t) {
  if (rec.is_base(t)) return true;
  const split_plan plan = rec.split(t, 2);
  if (!plan.children.is_inline() || !plan.stage_end.is_inline()) return false;
  for (const tile4& child : plan.children)
    if (!two_way_plans_inline(rec, child)) return false;
  return true;
}

TEST(RecursionAllocations, EveryTwoWayPlanIsInline) {
  // Eight tiles per side reach every A/B/C/D kind (and both Paren region
  // kinds) below the root.
  for (const benchmark_id bm :
       {benchmark_id::ge, benchmark_id::sw, benchmark_id::fw,
        benchmark_id::lcs, benchmark_id::paren}) {
    const auto rec = make_tile_scale_spec(bm, 8);
    EXPECT_TRUE(two_way_plans_inline(*rec, rec->root())) << to_string(bm);
  }
}

TEST(RecursionAllocations, TwoWayWalkAllocatesNothingPerSplit) {
  const std::size_t n = 512, base = 16;
  const std::string a = make_dna(n, 1), b = make_dna(n, 2);
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  const auto spec = make_sw_spec(s, a, b, sw_params{}, base);
  // Every non-base region of the quad tree splits once: (4^L - 1) / 3.
  const std::size_t tiles = (n / base) * (n / base);
  const std::uint64_t splits = (tiles - 1) / 3;

  // A first solve warms what is built once per process (the kernel
  // dispatch, metric registrations).
  exec::run_serial(*spec);
  const std::uint64_t serial =
      allocations_of([&] { exec::run_serial(*spec); });
  std::printf("serial SW %zu/%zu: %llu global allocations for %llu "
              "splits\n",
              n, base, static_cast<unsigned long long>(serial),
              static_cast<unsigned long long>(splits));
  EXPECT_EQ(serial, 0u);

  forkjoin::worker_pool pool(3);
  exec::run_forkjoin(*spec, pool);  // warm the arena and deque buffers
  const std::uint64_t forkjoin =
      allocations_of([&] { exec::run_forkjoin(*spec, pool); });
  std::printf("forkjoin SW %zu/%zu: %llu global allocations for %llu "
              "splits\n",
              n, base, static_cast<unsigned long long>(forkjoin),
              static_cast<unsigned long long>(splits));
  EXPECT_LT(forkjoin, splits);
}

// The blocked GE kernel's D-tile path packs its pivot-row panel into a
// per-thread buffer that grows to the largest tile the thread has run; once
// warm, no tile kind allocates. A panel allocated per call would cost one
// allocation per D tile.
TEST(KernelAllocations, GeTilesAllocateNothingOnceWarm) {
  const std::size_t n = 256, b = 64;
  auto m = make_diag_dominant(n, 3);
  // A (diagonal), B (pivot row band), C (pivot column band), D (the rest).
  const std::size_t tiles[][2] = {{0, 0}, {0, b}, {b, 0}, {b, b}, {b, 3 * b}};
  ge_base_kernel_blocked(m.data(), n, b, b, 0, b);  // warm the panel
  const std::uint64_t allocations = allocations_of([&] {
    for (std::size_t base : {b, b / 2})
      for (const auto& t : tiles)
        ge_base_kernel_blocked(m.data(), n, t[0] / b * base, t[1] / b * base,
                               0, base);
  });
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
