// Tests for the data-flow (CnC) runtime: graph wiring, blocking gets with
// abort-and-re-execute, dynamic single assignment, deadlock detection, the
// pre-scheduling tuner, tag memoisation, and environment interaction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bounded_wait.hpp"
#include "cnc/cnc.hpp"
#include "forkjoin/task_arena.hpp"

namespace {

using namespace rdp::cnc;
using rdp::forkjoin::worker_pool;

// ---------------------------------------------------------------- hello ----

struct hello_ctx;
struct hello_step {
  int execute(int tag, hello_ctx& ctx) const;
};
struct hello_ctx : context<hello_ctx> {
  step_collection<hello_ctx, hello_step, int> steps{*this, "hello"};
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, double> data{*this, "data"};
  explicit hello_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int hello_step::execute(int tag, hello_ctx& ctx) const {
  ctx.data.put(tag, tag * 2.5);
  return 0;
}

TEST(Cnc, HelloGraphProducesItem) {
  worker_pool pool(2);
  hello_ctx ctx(pool);
  ctx.tags.put(4);
  ctx.wait();
  double v = 0;
  ctx.data.get(4, v);
  EXPECT_DOUBLE_EQ(v, 10.0);
  EXPECT_EQ(ctx.stats().steps_executed, 1u);
}

TEST(Cnc, EnvironmentBlockingGetHelpsUntilAvailable) {
  worker_pool pool(2);
  hello_ctx ctx(pool);
  ctx.tags.put(7);
  // No wait(): the environment get itself must drive execution to completion.
  double v = 0;
  ctx.data.get(7, v);
  EXPECT_DOUBLE_EQ(v, 17.5);
  ctx.wait();
}

TEST(Cnc, TryGetDoesNotBlock) {
  worker_pool pool(2);
  hello_ctx ctx(pool);
  double v = 0;
  EXPECT_FALSE(ctx.data.try_get(1, v));
  ctx.tags.put(1);
  ctx.wait();
  EXPECT_TRUE(ctx.data.try_get(1, v));
  EXPECT_DOUBLE_EQ(v, 2.5);
}

// ---------------------------------------------------------------- chain ----
// Step k (k > 0) consumes item k-1 and produces item k; step 0 seeds.
// Putting tags in REVERSE order forces every step except the seed to abort
// on an unmet get at least once under the Native (spawn-immediately) policy.

struct chain_ctx;
struct chain_step {
  int execute(int tag, chain_ctx& ctx) const;
  void depends(int tag, chain_ctx& ctx, dependency_collector& dc) const;
};
struct chain_ctx : context<chain_ctx> {
  step_collection<chain_ctx, chain_step, int> steps;
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, std::uint64_t> values{*this, "values"};
  chain_ctx(worker_pool& pool, schedule_policy policy)
      : context(pool), steps(*this, "chain", chain_step{}, policy) {
    tags.prescribe(steps);
  }
};
int chain_step::execute(int tag, chain_ctx& ctx) const {
  if (tag == 0) {
    ctx.values.put(0, 1);
    return 0;
  }
  std::uint64_t prev = 0;
  ctx.values.get(tag - 1, prev);  // blocking data dependency
  ctx.values.put(tag, prev + static_cast<std::uint64_t>(tag));
  return 0;
}
void chain_step::depends(int tag, chain_ctx& ctx,
                         dependency_collector& dc) const {
  if (tag > 0) dc.require(ctx.values, tag - 1);
}

TEST(Cnc, ChainWithRetriesComputesPrefixSums) {
  worker_pool pool(2);
  chain_ctx ctx(pool, schedule_policy::spawn_immediately);
  constexpr int kN = 64;
  for (int i = kN - 1; i >= 0; --i) ctx.tags.put(i);  // worst-case order
  ctx.wait();
  std::uint64_t v = 0;
  ctx.values.get(kN - 1, v);
  // value(k) = 1 + sum_{i=1..k} i
  EXPECT_EQ(v, 1u + static_cast<std::uint64_t>(kN - 1) * kN / 2);
  const auto s = ctx.stats();
  EXPECT_EQ(s.steps_executed, static_cast<std::uint64_t>(kN));
  EXPECT_GT(s.gets_failed, 0u);   // reverse order must cause aborts
  EXPECT_EQ(s.steps_aborted, s.gets_failed);
}

TEST(Cnc, PrescheduleTunerAvoidsAllReexecutions) {
  worker_pool pool(2);
  chain_ctx ctx(pool, schedule_policy::preschedule);
  constexpr int kN = 64;
  for (int i = kN - 1; i >= 0; --i) ctx.tags.put(i);
  ctx.wait();
  std::uint64_t v = 0;
  ctx.values.get(kN - 1, v);
  EXPECT_EQ(v, 1u + static_cast<std::uint64_t>(kN - 1) * kN / 2);
  const auto s = ctx.stats();
  EXPECT_EQ(s.steps_executed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.gets_failed, 0u);   // the whole point of the tuner
  EXPECT_EQ(s.steps_aborted, 0u);
  EXPECT_GT(s.preschedule_deferrals, 0u);
}

// ---------------------------------------------------------- single assign ----

TEST(Cnc, DuplicatePutFromEnvironmentThrows) {
  worker_pool pool(2);
  hello_ctx ctx(pool);
  ctx.data.put(100, 1.0);
  EXPECT_THROW(ctx.data.put(100, 2.0), dsa_violation);
  double v = 0;
  ctx.data.get(100, v);
  EXPECT_DOUBLE_EQ(v, 1.0);  // original value preserved
}

struct dup_ctx;
struct dup_step {
  int execute(int tag, dup_ctx& ctx) const;
};
struct dup_ctx : context<dup_ctx> {
  step_collection<dup_ctx, dup_step, int> steps{*this, "dup"};
  tag_collection<int> tags{*this, "ctrl", /*memoize=*/false};
  item_collection<int, int> data{*this, "data"};
  explicit dup_ctx(worker_pool& pool) : context(pool) { tags.prescribe(steps); }
};
int dup_step::execute(int, dup_ctx& ctx) const {
  ctx.data.put(0, 1);  // every instance writes the same key
  return 0;
}

TEST(Cnc, DuplicatePutFromStepSurfacesAtWait) {
  worker_pool pool(2);
  dup_ctx ctx(pool);
  ctx.tags.put(1);
  ctx.tags.put(2);  // second instance violates single assignment
  EXPECT_THROW(ctx.wait(), dsa_violation);
}

// -------------------------------------------------------------- deadlock ----

struct stuck_ctx;
struct stuck_step {
  int execute(int tag, stuck_ctx& ctx) const;
};
struct stuck_ctx : context<stuck_ctx> {
  step_collection<stuck_ctx, stuck_step, int> steps{*this, "stuck"};
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, int> data{*this, "data"};
  explicit stuck_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int stuck_step::execute(int, stuck_ctx& ctx) const {
  int v = 0;
  ctx.data.get(12345, v);  // nobody ever produces this item
  return 0;
}

TEST(Cnc, QuiescedGraphWithParkedStepsReportsDeadlock) {
  worker_pool pool(2);
  stuck_ctx ctx(pool);
  ctx.tags.put(0);
  EXPECT_THROW(ctx.wait(), unsatisfied_dependency);
  // The parked instance is freed when its item collection is destroyed
  // (Cnc.DestroyedContextReclaimsEveryParkedInstance counts that).
}

TEST(Cnc, DeadlockReportCountsParkedInstances) {
  worker_pool pool(2);
  stuck_ctx ctx(pool);
  ctx.tags.put(0);
  ctx.tags.put(1);
  ctx.tags.put(2);
  try {
    ctx.wait();
    FAIL() << "expected unsatisfied_dependency";
  } catch (const unsatisfied_dependency& e) {
    EXPECT_NE(std::string(e.what()).find("3"), std::string::npos);
  }
}

// ------------------------------------------------------------ memoisation ----

struct count_ctx;
struct count_step {
  int execute(int tag, count_ctx& ctx) const;
};
struct count_ctx : context<count_ctx> {
  std::atomic<int> executions{0};
  step_collection<count_ctx, count_step, int> steps{*this, "count"};
  tag_collection<int> tags{*this, "ctrl"};  // memoising (default)
  explicit count_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int count_step::execute(int, count_ctx& ctx) const {
  ctx.executions.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

TEST(Cnc, TagCollectionMemoisesDuplicateTags) {
  worker_pool pool(2);
  count_ctx ctx(pool);
  for (int rep = 0; rep < 5; ++rep) ctx.tags.put(3);
  ctx.tags.put(4);
  ctx.wait();
  EXPECT_EQ(ctx.executions.load(), 2);  // tags 3 and 4, once each
  EXPECT_EQ(ctx.stats().tags_put, 6u);
  EXPECT_EQ(ctx.stats().steps_prescribed, 2u);
}

// ------------------------------------------------- multiple prescriptions ----

struct multi_ctx;
struct step_a {
  int execute(int tag, multi_ctx& ctx) const;
};
struct step_b {
  int execute(int tag, multi_ctx& ctx) const;
};
struct multi_ctx : context<multi_ctx> {
  step_collection<multi_ctx, step_a, int> a{*this, "A"};
  step_collection<multi_ctx, step_b, int> b{*this, "B"};
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<std::string, int> out{*this, "out"};
  explicit multi_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(a);
    tags.prescribe(b);
  }
};
int step_a::execute(int tag, multi_ctx& ctx) const {
  ctx.out.put("a" + std::to_string(tag), tag);
  return 0;
}
int step_b::execute(int tag, multi_ctx& ctx) const {
  ctx.out.put("b" + std::to_string(tag), -tag);
  return 0;
}

TEST(Cnc, OneTagCollectionPrescribesTwoStepCollections) {
  worker_pool pool(2);
  multi_ctx ctx(pool);
  ctx.tags.put(9);
  ctx.wait();
  int va = 0, vb = 0;
  ctx.out.get("a9", va);
  ctx.out.get("b9", vb);
  EXPECT_EQ(va, 9);
  EXPECT_EQ(vb, -9);
  EXPECT_EQ(ctx.tags.prescription_count(), 2u);
}

// ------------------------------------------------------------ user errors ----

struct throwing_ctx;
struct throwing_step {
  int execute(int tag, throwing_ctx& ctx) const;
};
struct throwing_ctx : context<throwing_ctx> {
  step_collection<throwing_ctx, throwing_step, int> steps{*this, "boom"};
  tag_collection<int> tags{*this, "ctrl"};
  explicit throwing_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int throwing_step::execute(int tag, throwing_ctx&) const {
  if (tag == 13) throw std::runtime_error("unlucky tag");
  return 0;
}

TEST(Cnc, StepExceptionRethrownByWait) {
  worker_pool pool(2);
  throwing_ctx ctx(pool);
  for (int i = 0; i < 20; ++i) ctx.tags.put(i);
  try {
    ctx.wait();
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unlucky tag");
  }
}

// -------------------------------------------------------- diamond / fan-in ----
// d consumes the outputs of b and c, which both consume a's output: the
// canonical diamond. Under preschedule, d must defer until both are ready.

struct diamond_ctx;
struct diamond_step {
  int execute(char tag, diamond_ctx& ctx) const;
  void depends(char tag, diamond_ctx& ctx, dependency_collector& dc) const;
};
struct diamond_ctx : context<diamond_ctx> {
  step_collection<diamond_ctx, diamond_step, char> steps;
  tag_collection<char> tags{*this, "ctrl"};
  item_collection<char, int> data{*this, "data"};
  diamond_ctx(worker_pool& pool, schedule_policy p)
      : context(pool), steps(*this, "diamond", diamond_step{}, p) {
    tags.prescribe(steps);
  }
};
int diamond_step::execute(char tag, diamond_ctx& ctx) const {
  int x = 0, y = 0;
  switch (tag) {
    case 'a':
      ctx.data.put('a', 1);
      break;
    case 'b':
      ctx.data.get('a', x);
      ctx.data.put('b', x + 10);
      break;
    case 'c':
      ctx.data.get('a', x);
      ctx.data.put('c', x + 100);
      break;
    case 'd':
      ctx.data.get('b', x);
      ctx.data.get('c', y);
      ctx.data.put('d', x + y);
      break;
    default:
      break;
  }
  return 0;
}
void diamond_step::depends(char tag, diamond_ctx& ctx,
                           dependency_collector& dc) const {
  switch (tag) {
    case 'b':
    case 'c':
      dc.require(ctx.data, 'a');
      break;
    case 'd':
      dc.require(ctx.data, 'b');
      dc.require(ctx.data, 'c');
      break;
    default:
      break;
  }
}

class CncDiamond : public ::testing::TestWithParam<schedule_policy> {};

TEST_P(CncDiamond, ComputesFanInUnderBothPolicies) {
  worker_pool pool(2);
  diamond_ctx ctx(pool, GetParam());
  // Put sink first to maximise out-of-order pressure.
  ctx.tags.put('d');
  ctx.tags.put('c');
  ctx.tags.put('b');
  ctx.tags.put('a');
  ctx.wait();
  int v = 0;
  ctx.data.get('d', v);
  EXPECT_EQ(v, (1 + 10) + (1 + 100));
  if (GetParam() == schedule_policy::preschedule) {
    EXPECT_EQ(ctx.stats().gets_failed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, CncDiamond,
                         ::testing::Values(schedule_policy::spawn_immediately,
                                           schedule_policy::preschedule));

// ------------------------------------------------------------- stress mix ----
// Many chains executed concurrently with interleaved tag order; validates
// waiter lists under contention.

struct grid_ctx;
struct grid_step {
  int execute(std::uint64_t tag, grid_ctx& ctx) const;
};
struct grid_ctx : context<grid_ctx> {
  static constexpr std::uint64_t kChains = 16, kLen = 32;
  step_collection<grid_ctx, grid_step, std::uint64_t> steps{*this, "grid"};
  tag_collection<std::uint64_t> tags{*this, "ctrl"};
  item_collection<std::uint64_t, std::uint64_t> cells{*this, "cells"};
  explicit grid_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int grid_step::execute(std::uint64_t tag, grid_ctx& ctx) const {
  const std::uint64_t chain = tag / grid_ctx::kLen;
  const std::uint64_t pos = tag % grid_ctx::kLen;
  std::uint64_t prev = chain;  // seed value for pos == 0
  if (pos > 0) ctx.cells.get(tag - 1, prev);
  ctx.cells.put(tag, prev + 1);
  return 0;
}

TEST(Cnc, ManyConcurrentChainsUnderContention) {
  worker_pool pool(4);
  grid_ctx ctx(pool);
  // Interleave chains, positions descending: maximal suspension pressure.
  for (std::uint64_t pos = grid_ctx::kLen; pos-- > 0;)
    for (std::uint64_t c = 0; c < grid_ctx::kChains; ++c)
      ctx.tags.put(c * grid_ctx::kLen + pos);
  ctx.wait();
  for (std::uint64_t c = 0; c < grid_ctx::kChains; ++c) {
    std::uint64_t v = 0;
    ctx.cells.get(c * grid_ctx::kLen + grid_ctx::kLen - 1, v);
    EXPECT_EQ(v, c + grid_ctx::kLen);
  }
  EXPECT_EQ(ctx.stats().steps_executed, grid_ctx::kChains * grid_ctx::kLen);
}

// ------------------------------------------------ get-count collection ----
// Items put with a get_count are erased after exactly that many successful
// blocking gets (Intel CnC's item garbage collection).

struct gc_ctx;
struct gc_step {
  int execute(int tag, gc_ctx& ctx) const;
  void depends(int tag, gc_ctx& ctx, dependency_collector& dc) const;
};
struct gc_ctx : context<gc_ctx> {
  step_collection<gc_ctx, gc_step, int> steps;
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, int> data{*this, "data"};
  item_collection<int, int> out{*this, "out"};
  explicit gc_ctx(worker_pool& pool)
      : context(pool),
        steps(*this, "gc", gc_step{}, schedule_policy::preschedule) {
    tags.prescribe(steps);
  }
};
int gc_step::execute(int tag, gc_ctx& ctx) const {
  int v = 0;
  ctx.data.get(0, v);  // shared input, consumed by every step
  ctx.out.put(tag, v + tag);
  return 0;
}
void gc_step::depends(int tag, gc_ctx& ctx, dependency_collector& dc) const {
  (void)tag;
  dc.require(ctx.data, 0);
}

TEST(Cnc, GetCountCollectsItemAfterLastConsumer) {
  worker_pool pool(2);
  gc_ctx ctx(pool);
  constexpr int kConsumers = 8;
  ctx.data.put(0, 100, /*get_count=*/kConsumers);
  for (int t = 1; t <= kConsumers; ++t) ctx.tags.put(t);
  ctx.wait();
  // All consumers saw the value...
  int v = 0;
  ctx.out.get(kConsumers, v);
  EXPECT_EQ(v, 100 + kConsumers);
  // ...and the input item was reclaimed after the last get.
  EXPECT_FALSE(ctx.data.contains(0));
  EXPECT_EQ(ctx.data.size(), 0u);
}

TEST(Cnc, GetCountZeroMeansKeepForever) {
  worker_pool pool(2);
  gc_ctx ctx(pool);
  ctx.data.put(0, 5);  // default: no collection
  for (int t = 1; t <= 4; ++t) ctx.tags.put(t);
  ctx.wait();
  EXPECT_TRUE(ctx.data.contains(0));
}

TEST(Cnc, TryGetNeverConsumesDeclaredGets) {
  // The nonblocking data-flow variant re-polls inputs it already saw every
  // time a respawned step runs again; that is only safe for get-count
  // accounting because try_get is count-neutral (exec/dataflow.cpp relies
  // on this — a counting poll would double-decrement and free items early).
  worker_pool pool(2);
  gc_ctx ctx(pool);
  ctx.data.put(0, 42, /*get_count=*/2);
  int v = 0;
  for (int poll = 0; poll < 8; ++poll) {
    v = 0;
    EXPECT_TRUE(ctx.data.try_get(0, v));
    EXPECT_EQ(v, 42);
  }
  EXPECT_TRUE(ctx.data.contains(0));  // eight polls consumed nothing
  ctx.data.get(0, v);
  EXPECT_TRUE(ctx.data.contains(0));  // one declared get left
  ctx.data.get(0, v);
  EXPECT_FALSE(ctx.data.contains(0));  // the second counted get collects
  ctx.wait();
}

TEST(Cnc, EnvironmentGetsCountTowardsCollection) {
  worker_pool pool(2);
  gc_ctx ctx(pool);
  ctx.data.put(0, 7, /*get_count=*/2);
  int v = 0;
  ctx.data.get(0, v);  // env consumption #1
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(ctx.data.contains(0));
  ctx.data.get(0, v);  // env consumption #2: last one
  EXPECT_FALSE(ctx.data.contains(0));
  ctx.wait();
}

// ------------------------------------------------- non-blocking requeues ----
// A polling step that requeues itself until the environment publishes the
// item it needs — the §IV-B "non-blocking get" protocol in isolation.

struct poll_ctx;
struct poll_step {
  int execute(int tag, poll_ctx& ctx) const;
};
struct poll_ctx : context<poll_ctx> {
  step_collection<poll_ctx, poll_step, int> steps{*this, "poll"};
  tag_collection<int> tags{*this, "ctrl", /*memoize=*/false};
  item_collection<int, int> input{*this, "input"};
  item_collection<int, int> output{*this, "output"};
  explicit poll_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int poll_step::execute(int tag, poll_ctx& ctx) const {
  int v = 0;
  if (!ctx.input.try_get(0, v)) {
    ctx.steps.respawn(tag);  // poll again later (FIFO path)
    return 0;
  }
  ctx.output.put(tag, v + 1);
  return 0;
}

TEST(Cnc, NonblockingRespawnPollsUntilItemAppears) {
  worker_pool pool(2);
  poll_ctx ctx(pool);
  ctx.tags.put(7);
  // The step must spin through at least one requeue before the item
  // exists; wait for proof, then publish the item.
  while (ctx.stats().steps_requeued == 0) std::this_thread::yield();
  ctx.input.put(0, 41);
  ctx.wait();
  int v = 0;
  ctx.output.get(7, v);
  EXPECT_EQ(v, 42);
  const auto s = ctx.stats();
  EXPECT_GE(s.steps_requeued, 1u);
  EXPECT_EQ(s.steps_aborted, 0u);  // polling never parks
}

// ------------------------------------------------------ waiter stress ----
// Many producers and consumers hammering a handful of shared items from
// random tag orders: waiter lists and resume paths under real contention.

struct fanout_ctx;
struct fanout_step {
  int execute(int tag, fanout_ctx& ctx) const;
};
struct fanout_ctx : context<fanout_ctx> {
  static constexpr int kHubs = 4, kConsumersPerHub = 64;
  step_collection<fanout_ctx, fanout_step, int> steps{*this, "fan"};
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, int> hubs{*this, "hubs"};
  item_collection<int, int> results{*this, "results"};
  explicit fanout_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int fanout_step::execute(int tag, fanout_ctx& ctx) const {
  if (tag < fanout_ctx::kHubs) {  // producer steps
    ctx.hubs.put(tag, tag * 1000);
    return 0;
  }
  const int hub = tag % fanout_ctx::kHubs;  // consumer steps
  int v = 0;
  ctx.hubs.get(hub, v);
  ctx.results.put(tag, v + tag);
  return 0;
}

TEST(Cnc, ManyConsumersParkOnFewItems) {
  worker_pool pool(4);
  fanout_ctx ctx(pool);
  const int total = fanout_ctx::kHubs * (fanout_ctx::kConsumersPerHub + 1);
  // Consumers first (they all park), producers last.
  for (int t = total - 1; t >= 0; --t) ctx.tags.put(t);
  ctx.wait();
  int v = 0;
  ctx.results.get(total - 1, v);
  const int hub = (total - 1) % fanout_ctx::kHubs;
  EXPECT_EQ(v, hub * 1000 + total - 1);
  EXPECT_EQ(ctx.stats().steps_executed, static_cast<std::uint64_t>(total));
  EXPECT_EQ(ctx.results.size(),
            static_cast<std::size_t>(total - fanout_ctx::kHubs));
}

// Items put by the environment before any tag: steps find them immediately.
TEST(Cnc, EnvironmentSeedsItemsBeforeExecution) {
  worker_pool pool(2);
  chain_ctx ctx(pool, schedule_policy::spawn_immediately);
  ctx.values.put(9, 1000);  // pretend step 9 already ran? No: key 9 is the
                            // dependency of step 10 only.
  ctx.tags.put(10);
  ctx.wait();
  std::uint64_t v = 0;
  ctx.values.get(10, v);
  EXPECT_EQ(v, 1010u);
  EXPECT_EQ(ctx.stats().gets_failed, 0u);
}

TEST(Cnc, ItemCollectionSizeCountsPublishedItems) {
  worker_pool pool(2);
  hello_ctx ctx(pool);
  EXPECT_EQ(ctx.data.size(), 0u);
  ctx.tags.put(1);
  ctx.tags.put(2);
  ctx.wait();
  EXPECT_EQ(ctx.data.size(), 2u);
  EXPECT_TRUE(ctx.data.contains(1));
  EXPECT_FALSE(ctx.data.contains(3));
}

// ------------------------------------- environment get on a missing item ----
// A blocking environment get on an item nobody will ever produce used to
// spin forever. It must detect quiescence — exactly like wait() — and throw
// unsatisfied_dependency naming the collection and the key.

TEST(Cnc, EnvironmentGetOnQuiescentGraphThrows) {
  worker_pool pool(2);
  hello_ctx ctx(pool);  // no tags put: the graph is trivially quiescent
  double v = 0;
  try {
    ctx.data.get(99, v);
    FAIL() << "environment get on a never-produced item must throw";
  } catch (const unsatisfied_dependency& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("data"), std::string::npos) << msg;  // collection
    EXPECT_NE(msg.find("99"), std::string::npos) << msg;    // key
  }
}

TEST(Cnc, EnvironmentGetAfterGraphFinishedThrowsForMissingKey) {
  worker_pool pool(2);
  hello_ctx ctx(pool);
  ctx.tags.put(1);  // produces item 1, nothing else
  ctx.wait();
  double v = 0;
  ctx.data.get(1, v);  // present: fine
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_THROW(ctx.data.get(2, v), unsatisfied_dependency);
}

// Quiescence detection must not fire while a step is merely slow: a
// producer that sleeps before putting keeps the graph active, so the
// environment get blocks and then succeeds.
struct slow_ctx;
struct slow_step {
  int execute(int tag, slow_ctx& ctx) const;
};
struct slow_ctx : context<slow_ctx> {
  step_collection<slow_ctx, slow_step, int> steps{*this, "slow"};
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, int> out{*this, "out"};
  explicit slow_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int slow_step::execute(int tag, slow_ctx& ctx) const {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ctx.out.put(tag, tag * 10);
  return 0;
}

TEST(Cnc, EnvironmentGetStillWaitsForLateProducer) {
  worker_pool pool(2);
  slow_ctx ctx(pool);
  ctx.tags.put(3);
  int v = 0;
  ctx.out.get(3, v);  // drives/waits until the slow step has put
  EXPECT_EQ(v, 30);
  ctx.wait();
}

// When the item is missing because the producing step DIED, the step's
// exception explains the failure better than the quiescence diagnostic —
// the environment get must rethrow it.
struct err_ctx;
struct err_step {
  int execute(int tag, err_ctx& ctx) const;
};
struct err_ctx : context<err_ctx> {
  step_collection<err_ctx, err_step, int> steps{*this, "dying"};
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, int> out{*this, "out"};
  explicit err_ctx(worker_pool& pool) : context(pool) { tags.prescribe(steps); }
};
int err_step::execute(int, err_ctx&) const {
  throw std::runtime_error("producer died");
}

TEST(Cnc, EnvironmentGetPrefersStepErrorOverDiagnostic) {
  worker_pool pool(2);
  err_ctx ctx(pool);
  ctx.tags.put(1);
  int v = 0;
  try {
    ctx.out.get(1, v);
    FAIL() << "must surface the step error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "producer died");
  }
}

// --------------------------------------- wait() error-over-deadlock fix ----
// A step error used to be LOST when the graph also quiesced with parked
// instances: wait() threw the deadlock diagnostic and dropped the recorded
// exception. The real error must win — the parked steps are usually just
// downstream victims of the dead producer.

struct mixed_ctx;
struct mixed_step {
  int execute(int tag, mixed_ctx& ctx) const;
};
struct mixed_ctx : context<mixed_ctx> {
  step_collection<mixed_ctx, mixed_step, int> steps{*this, "mixed"};
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, int> data{*this, "data"};
  explicit mixed_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int mixed_step::execute(int tag, mixed_ctx& ctx) const {
  if (tag == 0) throw std::runtime_error("boom");
  int v = 0;
  ctx.data.get(0, v);  // never produced: parks forever
  return 0;
}

TEST(Cnc, WaitPrefersStepErrorOverDeadlockDiagnostic) {
  worker_pool pool(2);
  mixed_ctx ctx(pool);
  ctx.tags.put(0);  // throws "boom" instead of producing item 0
  ctx.tags.put(1);  // parks forever on item 0
  try {
    ctx.wait();
    FAIL() << "wait must rethrow the step error";
  } catch (const std::runtime_error& e) {
    // (unsatisfied_dependency also derives from runtime_error — the message
    // check is what proves the step error beat the deadlock diagnostic.)
    EXPECT_STREQ(e.what(), "boom");
  }
  // The diagnostic is still produced for a second wait(): the error was
  // consumed, only the parked instance remains.
  EXPECT_THROW(ctx.wait(), unsatisfied_dependency);
}

// ------------------------------- non-blocking retry after a step error ----
// A step that polls with try_get and respawns itself while its input is
// missing used to livelock once the producer died: the retry never stopped,
// the graph never quiesced, and wait() never rethrew the error. After a
// step error the runtime drops retries, so the graph drains and the error
// surfaces.

struct retry_ctx;
struct retry_step {
  int execute(int tag, retry_ctx& ctx) const;
};
struct retry_ctx : context<retry_ctx> {
  step_collection<retry_ctx, retry_step, int> steps{*this, "retry"};
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, int> data{*this, "data"};
  explicit retry_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int retry_step::execute(int tag, retry_ctx& ctx) const {
  if (tag == 0) throw std::runtime_error("boom");
  int v = 0;
  if (!ctx.data.try_get(0, v)) ctx.steps.respawn(tag);  // never produced
  return 0;
}

TEST(Cnc, NonblockingRetryStopsAfterStepError) {
  using namespace std::chrono_literals;
  worker_pool pool(2);
  retry_ctx ctx(pool);
  for (int consumer = 1; consumer <= 4; ++consumer) ctx.tags.put(consumer);
  ctx.tags.put(0);  // throws "boom" instead of producing item 0
  try {
    rdp::test::within(10s, "context::wait", [&] { ctx.wait(); });
    FAIL() << "wait must rethrow the step error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(ctx.active_count(), 0);
}

// ------------------------------------ concurrent get-count GC stress ----
// Many items, each declared with get_count == number of consumers, consumed
// concurrently by prescheduled steps AND racing environment gets go through
// the same counted path; when the dust settles every item must be gone.

struct gcstress_ctx;
struct gcstress_step {
  int execute(int tag, gcstress_ctx& ctx) const;
  void depends(int tag, gcstress_ctx& ctx, dependency_collector& dc) const;
};
struct gcstress_ctx : context<gcstress_ctx> {
  static constexpr int kItems = 50;
  static constexpr int kConsumers = 4;  // steps per item
  std::atomic<std::uint64_t> sum{0};
  step_collection<gcstress_ctx, gcstress_step, int> steps{
      *this, "consume", gcstress_step{}, schedule_policy::preschedule};
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, int> data{*this, "data"};
  explicit gcstress_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int gcstress_step::execute(int tag, gcstress_ctx& ctx) const {
  int v = 0;
  ctx.data.get(tag / gcstress_ctx::kConsumers, v);
  ctx.sum.fetch_add(static_cast<std::uint64_t>(v),
                    std::memory_order_relaxed);
  return 0;
}
void gcstress_step::depends(int tag, gcstress_ctx& ctx,
                            dependency_collector& dc) const {
  dc.require(ctx.data, tag / gcstress_ctx::kConsumers);
}

TEST(Cnc, ConcurrentConsumersReclaimEveryGetCountItem) {
  worker_pool pool(4);
  gcstress_ctx ctx(pool);
  // Prescribe every consumer BEFORE any item exists (worst case for the
  // countdowns), then publish the items from the environment while the
  // tuner is already dispatching.
  for (int t = 0; t < gcstress_ctx::kItems * gcstress_ctx::kConsumers; ++t)
    ctx.tags.put(t);
  for (int i = 0; i < gcstress_ctx::kItems; ++i)
    ctx.data.put(i, i + 1, /*get_count=*/gcstress_ctx::kConsumers);
  ctx.wait();
  const auto consumers = static_cast<std::uint64_t>(gcstress_ctx::kConsumers);
  const auto items = static_cast<std::uint64_t>(gcstress_ctx::kItems);
  EXPECT_EQ(ctx.sum.load(), consumers * items * (items + 1) / 2);
  EXPECT_EQ(ctx.stats().gets_ok, consumers * items);
  EXPECT_EQ(ctx.stats().gets_failed, 0u);  // prescheduled: no aborts
  EXPECT_EQ(ctx.data.size(), 0u);  // every item reclaimed by its last get
}

// ------------------------------------------------- throw-free parking ----
// A hand-written step using get_or_park directly: a miss parks the step and
// returns false, and the step returns. Native semantics are unchanged — an
// aborted step re-executes from the top once its item is put.

struct park_ctx;
struct park_step {
  int execute(int tag, park_ctx& ctx) const;
};
struct park_ctx : context<park_ctx> {
  step_collection<park_ctx, park_step, int> steps{*this, "park"};
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, int> values{*this, "values"};
  explicit park_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int park_step::execute(int tag, park_ctx& ctx) const {
  int prev = 0;
  if (tag > 0 && !ctx.values.get_or_park(tag - 1, prev)) return 0;
  ctx.values.put(tag, prev + 1);
  return 0;
}

TEST(Cnc, GetOrParkMissReturnsAndReexecutes) {
  worker_pool pool(2);
  park_ctx ctx(pool);
  constexpr int kN = 32;
  for (int i = kN - 1; i >= 0; --i) ctx.tags.put(i);  // consumers first
  ctx.wait();
  int v = 0;
  ctx.values.get(kN - 1, v);
  EXPECT_EQ(v, kN);
  const auto s = ctx.stats();
  EXPECT_EQ(s.steps_executed, static_cast<std::uint64_t>(kN));
  EXPECT_GT(s.steps_aborted, 0u);
  EXPECT_EQ(s.steps_aborted, s.gets_failed);
  EXPECT_EQ(ctx.suspended_count(), 0);
}

// ---------------------------------------------- a depends() that throws ----
// Tag 0's step prescribes tag 1, whose depends() registers on the absent
// item 7 and then throws. The error surfaces at wait(), and the step of
// tag 1 never runs, not even once item 7 is put: its countdown is dead.

struct baddep_ctx;
struct baddep_step {
  int execute(int tag, baddep_ctx& ctx) const;
  void depends(int tag, baddep_ctx& ctx, dependency_collector& dc) const;
};
struct baddep_ctx : context<baddep_ctx> {
  std::atomic<int> consumer_runs{0};
  step_collection<baddep_ctx, baddep_step, int> steps{
      *this, "baddep", baddep_step{}, schedule_policy::preschedule};
  tag_collection<int> tags{*this, "ctrl"};
  item_collection<int, int> data{*this, "data"};
  explicit baddep_ctx(worker_pool& pool) : context(pool) {
    tags.prescribe(steps);
  }
};
int baddep_step::execute(int tag, baddep_ctx& ctx) const {
  if (tag == 0) {
    ctx.tags.put(1);  // depends(1) throws through this put
  } else {
    ctx.consumer_runs.fetch_add(1, std::memory_order_relaxed);
  }
  return 0;
}
void baddep_step::depends(int tag, baddep_ctx& ctx,
                          dependency_collector& dc) const {
  if (tag == 0) return;
  dc.require(ctx.data, 7);  // absent: registers the countdown
  throw std::runtime_error("bad declaration");
}

TEST(Cnc, ThrowingDependsNeverDispatchesItsStep) {
  worker_pool pool(2);
  baddep_ctx ctx(pool);
  ctx.tags.put(0);
  try {
    ctx.wait();
    FAIL() << "wait must rethrow the depends() error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bad declaration");
  }
  // The dead countdown still holds its registration on item 7; putting the
  // item releases it, which frees the instance instead of dispatching it.
  ctx.data.put(7, 70);
  ctx.wait();  // nothing parked, nothing failed
  EXPECT_EQ(ctx.consumer_runs.load(), 0);
  EXPECT_EQ(ctx.suspended_count(), 0);
  EXPECT_EQ(ctx.active_count(), 0);
  EXPECT_EQ(ctx.stats().steps_executed, 0u);  // tag 0's step failed too
}

// ------------------------------------------- reclaiming an abandoned graph ----
// The waiter lists own what is parked on them: a context destroyed with
// native instances parked and tuner countdowns partly satisfied must free
// every instance. The tag type counts its live copies, and each instance
// holds one, so a leaked instance shows up here as well as under LSan.

std::atomic<int> g_live_tags{0};

struct live_tag {
  int id;
  explicit live_tag(int i) : id(i) { g_live_tags.fetch_add(1); }
  live_tag(const live_tag& other) : id(other.id) { g_live_tags.fetch_add(1); }
  live_tag& operator=(const live_tag&) = default;
  ~live_tag() { g_live_tags.fetch_sub(1); }
  bool operator==(const live_tag& other) const { return id == other.id; }
};
struct live_tag_hash {
  std::size_t operator()(const live_tag& t) const {
    return std::hash<int>{}(t.id);
  }
};

struct orphan_ctx;
struct orphan_step {
  int execute(const live_tag& tag, orphan_ctx& ctx) const;
  void depends(const live_tag& tag, orphan_ctx& ctx,
               dependency_collector& dc) const;
};
struct orphan_ctx : context<orphan_ctx> {
  step_collection<orphan_ctx, orphan_step, live_tag> native{*this, "native"};
  step_collection<orphan_ctx, orphan_step, live_tag> tuned{
      *this, "tuned", orphan_step{}, schedule_policy::preschedule};
  tag_collection<live_tag, live_tag_hash> native_tags{*this, "native_ctrl",
                                                      false};
  tag_collection<live_tag, live_tag_hash> tuned_tags{*this, "tuned_ctrl",
                                                     false};
  item_collection<int, int> given{*this, "given"};
  item_collection<int, int> missing{*this, "missing"};
  explicit orphan_ctx(worker_pool& pool) : context(pool) {
    native_tags.prescribe(native);
    tuned_tags.prescribe(tuned);
  }
};
int orphan_step::execute(const live_tag& tag, orphan_ctx& ctx) const {
  int a = 0, b = 0;
  ctx.given.get(tag.id, a);
  ctx.missing.get(tag.id, b);  // never produced
  return 0;
}
void orphan_step::depends(const live_tag& tag, orphan_ctx& ctx,
                          dependency_collector& dc) const {
  dc.require(ctx.given, tag.id);
  dc.require(ctx.missing, tag.id);
}

/// Task-arena blocks taken and not yet given back, over all threads.
/// Instances and countdown registrations live in the arena, where LSan
/// cannot see a leak.
std::uint64_t arena_outstanding() {
  const rdp::forkjoin::arena_stats s = rdp::forkjoin::arena_stats_snapshot();
  return s.freelist_allocs + s.slab_allocs - s.local_frees - s.remote_frees;
}

TEST(Cnc, DestroyedContextReclaimsEveryParkedInstance) {
  constexpr int kTags = 8;
  worker_pool pool(2);
  const std::uint64_t arena_before = arena_outstanding();
  {
    orphan_ctx ctx(pool);
    // Half the `given` items exist before the tags, half arrive after, so
    // some countdowns register on both collections and lose one count.
    for (int id = 0; id < kTags / 2; ++id) ctx.given.put(id, id);
    for (int id = 0; id < kTags; ++id) {
      ctx.native_tags.put(live_tag(id));
      ctx.tuned_tags.put(live_tag(id));
    }
    for (int id = kTags / 2; id < kTags; ++id) ctx.given.put(id, id);
    EXPECT_THROW(ctx.wait(), unsatisfied_dependency);
    EXPECT_EQ(ctx.suspended_count(), 2 * kTags);
    EXPECT_EQ(g_live_tags.load(), 2 * kTags);  // one per parked instance
  }
  EXPECT_EQ(g_live_tags.load(), 0);
  // A worker may still be returning the task node of its last step.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (arena_outstanding() != arena_before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(arena_outstanding(), arena_before);
}

}  // namespace
