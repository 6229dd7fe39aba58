// Heap allocations of the data-flow executor's per-step path, counted
// deterministically: this binary replaces the global operator new with a
// counting one and runs a dataflow:native Smith-Waterman solve on a
// borrowed pool. The item store, the waiter lists, the step instances and
// the context counters allocate nothing per step (instances come from the
// fork-join task arena), so the whole solve — context construction
// included — must stay below one global allocation per base step. A hash
// node per item, a waiter vector per park or a heap instance per step each
// break the bound on their own.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "dp/dp.hpp"
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

  g_news.store(0);
  g_counting.store(true);
  const cnc_run_info info = exec::run_dataflow(*spec, opts);
  g_counting.store(false);
  const std::uint64_t allocations = g_news.load();

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

}  // namespace
