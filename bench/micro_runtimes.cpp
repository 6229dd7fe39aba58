// E-M1: microbenchmarks of the two runtimes (google-benchmark).
//
// These are the numbers that calibrate the simulator's runtime_costs: task
// spawn/join cost of the fork-join pool, item put/get and tag-prescription
// cost of the data-flow runtime, abort/re-execute overhead of blocking
// gets, and the raw concurrent-container costs underneath — plus the cost
// of building a spec's dependence graph (freeze, freeze_batched and the
// priced data-flow DAG), which the prepared executor pays once per shape.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "cnc/cnc.hpp"
#include "concurrent/chase_lev_deque.hpp"
#include "concurrent/mpmc_queue.hpp"
#include "concurrent/striped_hash_map.hpp"
#include "dp/dp.hpp"
#include "exec/dag.hpp"
#include "exec/prepared_graph.hpp"
#include "forkjoin/task_group.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;

// ---------------------------------------------------------- containers ----

void BM_DequePushPop(benchmark::State& state) {
  concurrent::chase_lev_deque<int*> d;
  int x = 0;
  for (auto _ : state) {
    d.push(&x);
    benchmark::DoNotOptimize(d.pop());
  }
}
BENCHMARK(BM_DequePushPop);

void BM_DequeSteal(benchmark::State& state) {
  concurrent::chase_lev_deque<int*> d;
  int x = 0;
  for (auto _ : state) {
    d.push(&x);
    benchmark::DoNotOptimize(d.steal());
  }
}
BENCHMARK(BM_DequeSteal);

void BM_MpmcPushPop(benchmark::State& state) {
  concurrent::mpmc_queue<int> q(1024);
  for (auto _ : state) {
    q.try_push(1);
    benchmark::DoNotOptimize(q.try_pop());
  }
}
BENCHMARK(BM_MpmcPushPop);

void BM_StripedMapInsertFind(benchmark::State& state) {
  concurrent::striped_hash_map<int, int> m;
  int key = 0;
  for (auto _ : state) {
    m.insert(key, key);
    benchmark::DoNotOptimize(m.find(key));
    ++key;
  }
}
BENCHMARK(BM_StripedMapInsertFind);

// ----------------------------------------------------------- fork-join ----

// Pure allocate→execute→destroy round trip of one task node, no scheduler:
// this is the slice of per-spawn overhead the task arena targets. The
// /heap variant routes the same payload through operator new/delete (it
// captures an over-aligned dummy so make_task takes the arena's heap
// fallback), giving the before/after on one build.
void BM_TaskNodeRoundTrip(benchmark::State& state) {
  std::atomic<int> sink{0};
  for (auto _ : state) {
    auto* t = forkjoin::make_task(
        [&sink] { sink.fetch_add(1, std::memory_order_relaxed); }, nullptr);
    t->execute_and_destroy(t);
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TaskNodeRoundTrip);

void BM_TaskNodeRoundTripHeap(benchmark::State& state) {
  struct alignas(64) padded {
    int v = 0;
  };
  std::atomic<int> sink{0};
  padded pad;
  for (auto _ : state) {
    auto* t = forkjoin::make_task(
        [&sink, pad] {
          sink.fetch_add(1 + pad.v, std::memory_order_relaxed);
        },
        nullptr);
    t->execute_and_destroy(t);
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TaskNodeRoundTripHeap);

void BM_ForkJoinSpawnWait(benchmark::State& state) {
  forkjoin::worker_pool pool(2);
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::atomic<int> sink{0};
    forkjoin::task_group g(pool);
    for (int i = 0; i < batch; ++i)
      g.spawn([&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
    g.wait();
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ForkJoinSpawnWait)->Arg(16)->Arg(256);

void BM_ForkJoinNestedRecursion(benchmark::State& state) {
  forkjoin::worker_pool pool(2);
  // Depth-8 binary recursion: 255 groups, 255 spawns.
  struct rec {
    static void go(forkjoin::worker_pool& p, int depth) {
      if (depth == 0) return;
      forkjoin::task_group g(p);
      g.spawn([&p, depth] { go(p, depth - 1); });
      go(p, depth - 1);
      g.wait();
    }
  };
  for (auto _ : state) {
    pool.run([&] { rec::go(pool, 8); });
  }
}
BENCHMARK(BM_ForkJoinNestedRecursion);

// ----------------------------------------------------------- data-flow ----

struct bench_ctx;
struct bench_step {
  int execute(int tag, bench_ctx& ctx) const;
};
struct bench_ctx : cnc::context<bench_ctx> {
  cnc::step_collection<bench_ctx, bench_step, int> steps{*this, "s"};
  cnc::tag_collection<int> tags{*this, "t", false};
  cnc::item_collection<int, int> items{*this, "i"};
  explicit bench_ctx(forkjoin::worker_pool& pool)
      : cnc::context<bench_ctx>(pool) {
    tags.prescribe(steps);
  }
};
int bench_step::execute(int tag, bench_ctx& ctx) const {
  ctx.items.put(tag, tag);
  return 0;
}

void BM_CncItemPut(benchmark::State& state) {
  forkjoin::worker_pool pool(2);
  bench_ctx ctx(pool);
  int key = 0;
  for (auto _ : state) ctx.items.put(1'000'000 + key++, 7);
}
BENCHMARK(BM_CncItemPut);

void BM_CncItemTryGet(benchmark::State& state) {
  forkjoin::worker_pool pool(2);
  bench_ctx ctx(pool);
  for (int i = 0; i < 1024; ++i) ctx.items.put(i, i);
  int key = 0, v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.items.try_get(key & 1023, v));
    ++key;
  }
}
BENCHMARK(BM_CncItemTryGet);

void BM_CncTagToStepThroughput(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  int tag_base = 0;
  forkjoin::worker_pool pool(2);
  for (auto _ : state) {
    state.PauseTiming();
    bench_ctx ctx(pool);  // fresh graph per batch (single-assignment items)
    state.ResumeTiming();
    for (int i = 0; i < batch; ++i) ctx.tags.put(tag_base + i);
    ctx.wait();
    tag_base += batch;
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CncTagToStepThroughput)->Arg(256);

// Chain with reverse tag order: native pays aborts + re-executions,
// preschedule pays dependency registration. The per-item gap between these
// two is the df_abort_penalty knob of the simulator.
struct chain_ctx2;
struct chain_step2 {
  int execute(int tag, chain_ctx2& ctx) const;
  void depends(int tag, chain_ctx2& ctx, cnc::dependency_collector& dc) const;
};
struct chain_ctx2 : cnc::context<chain_ctx2> {
  cnc::step_collection<chain_ctx2, chain_step2, int> steps;
  cnc::tag_collection<int> tags{*this, "t", false};
  cnc::item_collection<int, int> items{*this, "i"};
  chain_ctx2(forkjoin::worker_pool& pool, cnc::schedule_policy p)
      : cnc::context<chain_ctx2>(pool), steps(*this, "s", chain_step2{}, p) {
    tags.prescribe(steps);
  }
};
int chain_step2::execute(int tag, chain_ctx2& ctx) const {
  int prev = 0;
  // The data-flow executor's park: a miss returns false, no throw.
  if (tag > 0 && !ctx.items.get_or_park(tag - 1, prev)) return 0;
  ctx.items.put(tag, prev + 1);
  return 0;
}
void chain_step2::depends(int tag, chain_ctx2& ctx,
                          cnc::dependency_collector& dc) const {
  if (tag > 0) dc.require(ctx.items, tag - 1);
}

void BM_CncChain(benchmark::State& state) {
  const bool preschedule = state.range(0) != 0;
  constexpr int kLen = 128;
  forkjoin::worker_pool pool(2);
  for (auto _ : state) {
    state.PauseTiming();
    chain_ctx2 ctx(pool, preschedule ? cnc::schedule_policy::preschedule
                                     : cnc::schedule_policy::spawn_immediately);
    state.ResumeTiming();
    for (int i = kLen - 1; i >= 0; --i) ctx.tags.put(i);  // worst case order
    ctx.wait();
  }
  state.SetItemsProcessed(state.iterations() * kLen);
  state.SetLabel(preschedule ? "preschedule" : "blocking-get");
}
BENCHMARK(BM_CncChain)->Arg(0)->Arg(1);

// --------------------------------------------------------- item stores ----

// The two slot stores of cnc::item_collection over one 16x16x16 box of
// tile3 keys: range(0) picks the operation, each timed over all 4096 keys —
// 0 put into a fresh collection; 1 a step's get_or_park hitting every
// (present) key; 2 park then resume: one step per key parks on its absent
// item, then the environment puts every item and each step re-executes.
constexpr int kStoreSide = 16;
constexpr int kStoreKeys = kStoreSide * kStoreSide * kStoreSide;

dp::tile3 store_key(int k) {
  return {k % kStoreSide, (k / kStoreSide) % kStoreSide,
          k / (kStoreSide * kStoreSide)};
}

using hashed_store = cnc::hashed_slots<dp::tile3, int>;
using dense_store = cnc::dense_slots<dp::tile3, int, exec::tile_box>;

template <class Store>
struct store_ctx;
template <class Store>
struct store_step {
  /// Tag -1 gets every key in one step; tag k gets key k.
  int execute(int tag, store_ctx<Store>& ctx) const {
    int v = 0;
    if (tag >= 0) {
      (void)ctx.items.get_or_park(store_key(tag), v);  // parks on a miss
      return 0;
    }
    for (int k = 0; k < kStoreKeys; ++k)
      benchmark::DoNotOptimize(ctx.items.get_or_park(store_key(k), v));
    return 0;
  }
};
template <class Store>
struct store_ctx : cnc::context<store_ctx<Store>> {
  cnc::step_collection<store_ctx, store_step<Store>, int> steps{*this, "s"};
  cnc::tag_collection<int> tags{*this, "t", false};
  cnc::item_collection<dp::tile3, int, Store> items;
  template <class... StoreArgs>
  store_ctx(forkjoin::worker_pool& pool, StoreArgs&&... store_args)
      : cnc::context<store_ctx>(pool),
        items(*this, "i", std::forward<StoreArgs>(store_args)...) {
    this->tags.prescribe(steps);
  }
};

template <class Store>
std::unique_ptr<store_ctx<Store>> make_store_ctx(forkjoin::worker_pool& pool) {
  if constexpr (std::is_same_v<Store, dense_store>) {
    exec::tile_box box;
    box.include(store_key(0));
    box.include(store_key(kStoreKeys - 1));
    return std::make_unique<store_ctx<Store>>(pool, box);
  } else {
    return std::make_unique<store_ctx<Store>>(pool);
  }
}

template <class Store>
void BM_CncItemStore(benchmark::State& state) {
  const auto op = state.range(0);
  forkjoin::worker_pool pool(2);
  for (auto _ : state) {
    state.PauseTiming();
    auto ctx = make_store_ctx<Store>(pool);
    if (op == 1)
      for (int k = 0; k < kStoreKeys; ++k) ctx->items.put(store_key(k), k);
    state.ResumeTiming();
    if (op == 0) {
      for (int k = 0; k < kStoreKeys; ++k) ctx->items.put(store_key(k), k);
    } else if (op == 1) {
      ctx->tags.put(-1);
      ctx->wait();
    } else {
      for (int k = 0; k < kStoreKeys; ++k) ctx->tags.put(k);
      while (ctx->suspended_count() < kStoreKeys)
        if (!pool.try_run_one()) std::this_thread::yield();
      for (int k = 0; k < kStoreKeys; ++k) ctx->items.put(store_key(k), k);
      ctx->wait();
    }
    state.PauseTiming();
    ctx.reset();
    state.ResumeTiming();
  }
  static const char* const ops[] = {"put", "get hit", "park+resume"};
  state.SetLabel(ops[op]);
  state.SetItemsProcessed(state.iterations() * kStoreKeys);
}
BENCHMARK_TEMPLATE(BM_CncItemStore, hashed_store)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_TEMPLATE(BM_CncItemStore, dense_store)->Arg(0)->Arg(1)->Arg(2);

// ---------------------------------------------------------- graph build ----

// Graph construction from a spec: range(0) picks the builder (0 freeze,
// 1 freeze_batched at 4-way chunking, 2 dataflow_dag), range(1) the shape
// (0 SW 2048/32 — 4096 tiles, 1 GE 1024/64 — 1496 tiles). No kernel runs.
void BM_FreezeGraph(benchmark::State& state) {
  const bool sw = state.range(1) == 0;
  const std::size_t n = sw ? 2048 : 1024, base = sw ? 32 : 64;
  const std::string a = make_dna(n, 1), b = make_dna(n, 2);
  const dp::sw_params p;
  matrix<std::int32_t> s(sw ? n + 1 : 1, sw ? n + 1 : 1, 0);
  matrix<double> m(sw ? 1 : n, sw ? 1 : n, 1.0);
  const std::unique_ptr<dp::recurrence> rec =
      sw ? dp::make_sw_spec(s, a, b, p, base) : dp::make_ge_spec(m, base);
  for (auto _ : state) {
    switch (state.range(0)) {
      case 0:
        benchmark::DoNotOptimize(exec::prepared_graph::freeze(*rec));
        break;
      case 1:
        benchmark::DoNotOptimize(
            exec::prepared_graph::freeze_batched(*rec, 4));
        break;
      default:
        benchmark::DoNotOptimize(exec::dataflow_dag(*rec));
    }
  }
  static const char* const builders[] = {"freeze", "freeze_batched",
                                         "dataflow_dag"};
  state.SetLabel(std::string(builders[state.range(0)]) +
                 (sw ? " sw2048/32" : " ge1024/64"));
}
BENCHMARK(BM_FreezeGraph)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
