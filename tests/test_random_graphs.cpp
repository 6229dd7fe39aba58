// Randomised property tests: arbitrary layered DAGs executed through the
// data-flow runtime (all scheduling policies), through the DES (Graham
// bounds), and random nested spawn trees through the fork-join runtime.
// These catch interaction bugs that hand-written graphs miss.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "cnc/cnc.hpp"
#include "forkjoin/task_group.hpp"
#include "sim/des.hpp"
#include "support/rng.hpp"
#include "trace/task_graph.hpp"

namespace {

using namespace rdp;

// ------------------------- random layered DAGs ----------------------------

struct random_dag {
  std::vector<std::vector<std::uint32_t>> preds;  // per node
  std::size_t node_count() const { return preds.size(); }
};

/// Nodes are grouped in layers; each node draws 0-3 predecessors from
/// earlier layers. Always acyclic.
random_dag make_random_dag(std::uint64_t seed, std::size_t layers = 8,
                           std::size_t width = 12) {
  xoshiro256 rng(seed);
  random_dag dag;
  std::vector<std::uint32_t> earlier;
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t layer_size = 1 + rng.below(width);
    std::vector<std::uint32_t> current;
    for (std::size_t k = 0; k < layer_size; ++k) {
      const auto id = static_cast<std::uint32_t>(dag.preds.size());
      std::vector<std::uint32_t> preds;
      if (!earlier.empty()) {
        const std::size_t deg = rng.below(4);
        for (std::size_t d = 0; d < deg; ++d)
          preds.push_back(earlier[rng.below(earlier.size())]);
        // Dedupe.
        std::sort(preds.begin(), preds.end());
        preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
      }
      dag.preds.push_back(std::move(preds));
      current.push_back(id);
    }
    earlier.insert(earlier.end(), current.begin(), current.end());
  }
  return dag;
}

// -------------------- data-flow execution of random DAGs -------------------

struct dag_ctx;
struct dag_step {
  int execute(std::uint32_t tag, dag_ctx& ctx) const;
  void depends(std::uint32_t tag, dag_ctx& ctx,
               cnc::dependency_collector& dc) const;
};
struct dag_ctx : cnc::context<dag_ctx> {
  const random_dag& dag;
  std::atomic<std::uint64_t> checksum{0};
  cnc::step_collection<dag_ctx, dag_step, std::uint32_t> steps;
  cnc::tag_collection<std::uint32_t> tags{*this, "ctrl"};
  cnc::item_collection<std::uint32_t, std::uint64_t> values{*this, "vals"};
  dag_ctx(forkjoin::worker_pool& pool, const random_dag& d,
          cnc::schedule_policy policy)
      : cnc::context<dag_ctx>(pool), dag(d),
        steps(*this, "node", dag_step{}, policy) {
    tags.prescribe(steps);
  }
};
int dag_step::execute(std::uint32_t tag, dag_ctx& ctx) const {
  // value(v) = v + sum of predecessor values: deterministic per DAG.
  std::uint64_t acc = tag;
  for (std::uint32_t p : ctx.dag.preds[tag]) {
    std::uint64_t v = 0;
    ctx.values.get(p, v);
    acc += v;
  }
  ctx.values.put(tag, acc);
  ctx.checksum.fetch_add(acc, std::memory_order_relaxed);
  return 0;
}
void dag_step::depends(std::uint32_t tag, dag_ctx& ctx,
                       cnc::dependency_collector& dc) const {
  for (std::uint32_t p : ctx.dag.preds[tag]) dc.require(ctx.values, p);
}

std::uint64_t reference_checksum(const random_dag& dag) {
  std::vector<std::uint64_t> value(dag.node_count());
  std::uint64_t checksum = 0;
  for (std::uint32_t v = 0; v < dag.node_count(); ++v) {
    std::uint64_t acc = v;
    for (std::uint32_t p : dag.preds[v]) acc += value[p];  // preds < v
    value[v] = acc;
    checksum += acc;
  }
  return checksum;
}

class RandomDagSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagSweep, CncExecutesRandomDagUnderBothPolicies) {
  const auto dag = make_random_dag(GetParam());
  const auto expected = reference_checksum(dag);
  forkjoin::worker_pool pool(4);
  for (auto policy : {cnc::schedule_policy::spawn_immediately,
                      cnc::schedule_policy::preschedule}) {
    dag_ctx ctx(pool, dag, policy);
    // Adversarial prescription order: sinks first.
    for (std::uint32_t v = static_cast<std::uint32_t>(dag.node_count());
         v-- > 0;)
      ctx.tags.put(v);
    ctx.wait();
    EXPECT_EQ(ctx.checksum.load(), expected) << "seed=" << GetParam();
    EXPECT_EQ(ctx.stats().steps_executed, dag.node_count());
  }
}

TEST_P(RandomDagSweep, DesRespectsGrahamBoundsOnRandomDags) {
  const auto dag = make_random_dag(GetParam(), 10, 16);
  trace::task_graph g;
  xoshiro256 rng(GetParam() * 7 + 1);
  std::vector<double> dur(dag.node_count());
  for (std::uint32_t v = 0; v < dag.node_count(); ++v) {
    g.add_node(trace::node_type::base_task, dp::task_kind::D, {}, 1);
    dur[v] = rng.uniform(0.1, 5.0);
  }
  for (std::uint32_t v = 0; v < dag.node_count(); ++v)
    for (std::uint32_t p : dag.preds[v]) g.add_edge(p, v);
  g.validate();

  auto cost = [&](const trace::task_node& node) {
    // Recover the id from position: nodes were added in id order.
    return dur[static_cast<std::size_t>(&node - g.nodes().data())];
  };
  const auto ws = trace::analyze_work_span(g, cost);
  for (unsigned p : {1u, 3u, 8u, 64u}) {
    const auto r = sim::simulate(g, p, cost);
    EXPECT_GE(r.makespan, ws.span - 1e-9);
    EXPECT_GE(r.makespan, ws.total_work / p - 1e-9);
    EXPECT_LE(r.makespan, ws.total_work / p + ws.span + 1e-9);
    EXPECT_NEAR(r.busy_time, ws.total_work, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------- random fork-join spawn trees -----------------------

long run_random_tree(forkjoin::worker_pool& pool, xoshiro256& rng, int depth,
                     std::atomic<long>& executed) {
  executed.fetch_add(1, std::memory_order_relaxed);
  if (depth == 0) return 1;
  const int children = 1 + static_cast<int>(rng.below(3));
  std::vector<long> results(static_cast<std::size_t>(children), 0);
  // Children get decorrelated seeds derived from the parent's stream.
  std::vector<std::uint64_t> seeds;
  for (int c = 0; c < children; ++c) seeds.push_back(rng.next());
  forkjoin::task_group g(pool);
  for (int c = 0; c < children; ++c) {
    g.spawn([&pool, &executed, &results, seeds, c, depth] {
      xoshiro256 child_rng(seeds[static_cast<std::size_t>(c)]);
      results[static_cast<std::size_t>(c)] =
          run_random_tree(pool, child_rng, depth - 1, executed);
    });
  }
  g.wait();
  long total = 1;
  for (long r : results) total += r;
  return total;
}

class RandomTreeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTreeSweep, NestedSpawnTreeExecutesEveryNodeExactlyOnce) {
  forkjoin::worker_pool pool(4);
  std::atomic<long> executed{0};
  long counted = 0;
  pool.run([&] {
    xoshiro256 rng(GetParam());
    counted = run_random_tree(pool, rng, 6, executed);
  });
  EXPECT_EQ(executed.load(), counted);
  EXPECT_GE(counted, 7);  // at least a path of depth 6 + root
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
