// Tests for the analytical model (§IV-B formulas) and the discrete-event
// many-core simulator, including the paper's qualitative findings F1-F4.
#include <gtest/gtest.h>

#include <cmath>

#include "dp/registry.hpp"
#include "exec/dag.hpp"
#include "model/analytical.hpp"
#include "sim/des.hpp"
#include "sim/experiment.hpp"
#include "sim/machine.hpp"

namespace {

using namespace rdp;
using namespace rdp::model;
using namespace rdp::sim;
using dp::benchmark_id;

/// Derived DAGs of a benchmark's tile-scale spec, priced at tile side b.
trace::task_graph dataflow_dag(benchmark_id bm, std::size_t tiles,
                               std::size_t b) {
  return exec::dataflow_dag(*dp::make_tile_scale_spec(bm, tiles), b);
}
trace::task_graph forkjoin_dag(benchmark_id bm, std::size_t tiles,
                               std::size_t b) {
  return exec::forkjoin_dag(*dp::make_tile_scale_spec(bm, tiles), b);
}

/// The figure benches' call: benchmark bm at (n, base) on a machine.
variant_result simulate_at(benchmark_id bm, exec_variant v, std::size_t n,
                           std::size_t base, const machine_profile& m) {
  return simulate_variant(*dp::make_tile_scale_spec(bm, n / base), v, base,
                          m);
}

// ------------------------------- model ------------------------------------

TEST(Model, GeBaseTaskCountClosedFormMatchesTripleSum) {
  for (std::uint64_t t : {1ull, 2ull, 3ull, 5ull, 16ull, 100ull}) {
    std::uint64_t brute = 0;
    for (std::uint64_t k = 0; k < t; ++k) brute += (t - k) * (t - k);
    EXPECT_EQ(ge_base_task_count(t), brute) << t;
  }
}

TEST(Model, TaskCountsForFwAndSw) {
  EXPECT_EQ(fw_base_task_count(8), 512u);
  EXPECT_EQ(sw_base_task_count(8), 64u);
}

TEST(Model, AssignmentBounds) {
  // min (function A interior) < max (function D) for any m > 1.
  for (std::uint64_t m : {2ull, 8ull, 64ull, 2048ull}) {
    EXPECT_LT(ge_min_task_assignments(m), ge_max_task_assignments(m));
  }
  EXPECT_EQ(ge_min_task_assignments(4), 1u + 4u + 9u);  // Σ (m-1-k)^2
  EXPECT_EQ(ge_max_task_assignments(4), 5u * 16u);
}

TEST(Model, MaxCacheMissFormula) {
  // m(1 + (m+1)(1 + ceil((m-1)/L))), L = 8 doubles.
  EXPECT_EQ(max_cache_misses(8, 8), 8u * (1 + 9u * (1 + 1)));
  EXPECT_EQ(max_cache_misses(64, 8), 64u * (1 + 65u * (1 + 8)));
}

TEST(Model, ColdFloorBelowBound) {
  for (std::uint64_t m : {8ull, 64ull, 512ull})
    EXPECT_LT(cold_cache_misses(m, 8), max_cache_misses(m, 8));
}

TEST(Model, PredictedMissesSwitchRegimeAtCapacity) {
  const std::uint64_t m = 128;
  const std::uint64_t fits = cold_cache_misses(m, 8) * 2;      // plenty
  const std::uint64_t tight = cold_cache_misses(m, 8) / 2;     // too small
  EXPECT_EQ(predicted_task_misses(m, 8, fits), cold_cache_misses(m, 8));
  EXPECT_EQ(predicted_task_misses(m, 8, tight), max_cache_misses(m, 8));
}

TEST(Model, EstimatedTimeUShapedInBaseSize) {
  // Small base: task-count pressure, large base: streaming misses — the
  // interior minimum reproduces the U-shape of the Estimated series.
  const auto mach = skylake192();
  const double t64 = estimate_ge_time(8192, 64, mach.model);
  const double t256 = estimate_ge_time(8192, 256, mach.model);
  const double t4096 = estimate_ge_time(8192, 4096, mach.model);
  EXPECT_LT(t256, t4096);
  EXPECT_LE(t256, t64 * 2.0);  // not worse than small base by much
}

TEST(Model, EstimatedTimeGrowsWithProblemSize) {
  const auto mach = epyc64();
  double prev = 0;
  for (std::uint64_t n : {1024ull, 2048ull, 4096ull, 8192ull}) {
    const double t = estimate_ge_time(n, 128, mach.model);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

// -------------------------------- DES --------------------------------------

TEST(Des, SerialChainTakesSumOfDurations) {
  trace::task_graph g;
  auto prev = g.add_node(trace::node_type::base_task, dp::task_kind::A, {}, 1);
  for (int i = 0; i < 9; ++i) {
    auto next =
        g.add_node(trace::node_type::base_task, dp::task_kind::A, {}, 1);
    g.add_edge(prev, next);
    prev = next;
  }
  const auto r = simulate(g, 8, [](const trace::task_node&) { return 2.0; });
  EXPECT_DOUBLE_EQ(r.makespan, 20.0);  // no parallelism available
  EXPECT_NEAR(r.utilization(), 20.0 / (20.0 * 8), 1e-12);
}

TEST(Des, IndependentTasksScalePerfectly) {
  trace::task_graph g;
  for (int i = 0; i < 64; ++i)
    g.add_node(trace::node_type::base_task, dp::task_kind::D, {}, 1);
  const auto r1 = simulate(g, 1, [](const auto&) { return 1.0; });
  const auto r8 = simulate(g, 8, [](const auto&) { return 1.0; });
  const auto r64 = simulate(g, 64, [](const auto&) { return 1.0; });
  EXPECT_DOUBLE_EQ(r1.makespan, 64.0);
  EXPECT_DOUBLE_EQ(r8.makespan, 8.0);
  EXPECT_DOUBLE_EQ(r64.makespan, 1.0);
  EXPECT_NEAR(r64.utilization(), 1.0, 1e-12);
}

TEST(Des, DiamondRespectsDependencies) {
  trace::task_graph g;
  const auto a = g.add_node(trace::node_type::base_task);
  const auto b = g.add_node(trace::node_type::base_task);
  const auto c = g.add_node(trace::node_type::base_task);
  const auto d = g.add_node(trace::node_type::base_task);
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  const auto r = simulate(g, 4, [](const auto&) { return 1.0; });
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);  // a; b∥c; d
}

TEST(Des, MakespanNeverBelowSpanOrWorkOverP) {
  const auto g = dataflow_dag(benchmark_id::ge, 8, 16);
  auto dur = [](const trace::task_node& node) {
    return static_cast<double>(node.work) * 1e-9;
  };
  const auto ws = trace::analyze_work_span(
      g, [&](const trace::task_node& node) { return dur(node); });
  for (unsigned p : {1u, 4u, 16u, 64u}) {
    const auto r = simulate(g, p, dur);
    EXPECT_GE(r.makespan, ws.span - 1e-12);
    EXPECT_GE(r.makespan, ws.total_work / p - 1e-9);
    // Greedy bound: makespan <= T1/P + T∞.
    EXPECT_LE(r.makespan, ws.total_work / p + ws.span + 1e-9);
  }
}

TEST(Des, ZeroDurationSyntheticNodesAreFree) {
  const auto g = forkjoin_dag(benchmark_id::sw, 8, 8);
  const auto r = simulate(g, 4, [](const trace::task_node& node) {
    return node.type == trace::node_type::base_task ? 1.0 : 0.0;
  });
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_EQ(r.tasks, g.node_count());
}

TEST(Des, DeterministicAcrossRuns) {
  const auto g = dataflow_dag(benchmark_id::fw, 8, 8);
  auto dur = [](const trace::task_node& node) {
    return static_cast<double>(node.work) * 1e-9 + 1e-7;
  };
  const auto a = simulate(g, 16, dur);
  const auto b = simulate(g, 16, dur);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.busy_time, b.busy_time);
}

TEST(Des, MoreCoresNeverHurtMakespanOnTheseDags) {
  // Greedy list scheduling can in general suffer anomalies; on these
  // wide, uniform DAGs adding cores must not slow things down.
  const auto g = dataflow_dag(benchmark_id::sw, 16, 16);
  auto dur = [](const trace::task_node&) { return 1.0; };
  double prev = 1e300;
  for (unsigned p : {1u, 2u, 4u, 8u, 16u, 31u}) {
    const auto r = simulate(g, p, dur);
    EXPECT_LE(r.makespan, prev + 1e-9) << p;
    prev = r.makespan;
  }
}

TEST(Des, BusyTimeEqualsSumOfDurations) {
  const auto g = dataflow_dag(benchmark_id::ge, 4, 8);
  const double per_task = 3.5;
  const auto r = simulate(g, 7, [&](const auto&) { return per_task; });
  EXPECT_DOUBLE_EQ(r.busy_time,
                   per_task * static_cast<double>(g.node_count()));
}

// --------------------- the paper's findings, in the DES ---------------------

TEST(Findings, F3SwDataflowBeatsForkjoinEvenAtLargeSizes) {
  const auto mach = skylake192();
  for (std::size_t n : {4096ull, 16384ull}) {
    const auto fj =
        simulate_at(benchmark_id::sw, exec_variant::omp_tasking, n, 128, mach);
    const auto df =
        simulate_at(benchmark_id::sw, exec_variant::cnc_tuner, n, 128, mach);
    EXPECT_GT(fj.seconds, df.seconds) << "n=" << n;
  }
}

TEST(Findings, F1ForkjoinCatchesUpOnLargeGeInputs) {
  // Fixed machine: the CnC/OMP ratio must move in OMP's favour from the
  // smallest to the largest input (the paper's headline crossover).
  const auto mach = epyc64();
  const auto ratio = [&](std::size_t n) {
    const auto fj = simulate_at(benchmark_id::ge, exec_variant::omp_tasking,
                                n, 128, mach);
    const auto df = simulate_at(benchmark_id::ge, exec_variant::cnc_native,
                                n, 128, mach);
    return df.seconds / fj.seconds;  // < 1 -> CnC wins
  };
  EXPECT_LT(ratio(1024), ratio(16384));
}

TEST(Findings, F2MoreCoresFavourDataflow) {
  // Fixed problem: going from few cores to many cores must improve CnC
  // relative to OMP.
  const auto base_mach = skylake192();
  const auto ratio = [&](unsigned cores) {
    const auto mach = with_cores(base_mach, cores);
    const auto fj = simulate_at(benchmark_id::ge, exec_variant::omp_tasking,
                                4096, 256, mach);
    const auto df = simulate_at(benchmark_id::ge, exec_variant::cnc_tuner,
                                4096, 256, mach);
    return df.seconds / fj.seconds;
  };
  EXPECT_LT(ratio(192), ratio(8));
}

TEST(Findings, F4ForkjoinUtilizationDropsWithMoreCores) {
  const auto mk = [&](unsigned cores) {
    return simulate_at(benchmark_id::ge, exec_variant::omp_tasking, 2048,
                       128, with_cores(epyc64(), cores));
  };
  EXPECT_GT(mk(8).utilization, mk(128).utilization);
}

TEST(Findings, ManualCncPaysPredeclarationAtSmallBases) {
  // Manual enumerates every base task serially: at tiny base sizes (huge
  // task counts) it must be slower than the tuner variant.
  const auto mach = skylake192();
  const auto manual = simulate_at(benchmark_id::ge, exec_variant::cnc_manual,
                                  8192, 64, mach);
  const auto tuner = simulate_at(benchmark_id::ge, exec_variant::cnc_tuner,
                                 8192, 64, mach);
  EXPECT_GT(manual.seconds, tuner.seconds);
}

TEST(Findings, EstimatedSeriesIsFiniteAndPositive) {
  const auto mach = epyc64();
  for (std::size_t base : {64ull, 256ull, 1024ull}) {
    const double est = estimated_seconds(benchmark::ge, 4096, base, mach);
    EXPECT_GT(est, 0.0);
    EXPECT_TRUE(std::isfinite(est));
  }
}

// Every figure series prices a non-trivial schedule, and the DAG it prices
// runs each of the spec's base tasks exactly once.
TEST(Experiment, EverySeriesPricesEveryBaseTaskOfTheSpec) {
  constexpr std::size_t tiles = 4, base = 16;
  for (const benchmark_id bm :
       {benchmark_id::ge, benchmark_id::sw, benchmark_id::fw}) {
    const auto spec = dp::make_tile_scale_spec(bm, tiles);
    std::uint64_t declared = 0;
    auto count = [&](const dp::tile4&) { ++declared; };
    spec->enumerate_base(dp::tag_sink(count));
    ASSERT_GT(declared, 0u) << dp::to_string(bm);
    for (const exec_variant v :
         {exec_variant::cnc_native, exec_variant::cnc_tuner,
          exec_variant::cnc_manual, exec_variant::omp_tasking}) {
      const variant_result r = simulate_variant(*spec, v, base, epyc64());
      EXPECT_GT(r.seconds, 0.0) << dp::to_string(bm) << " × " << to_string(v);
      EXPECT_EQ(r.base_tasks, declared)
          << dp::to_string(bm) << " × " << to_string(v);
    }
  }
}

TEST(MachineProfiles, CoreCountsMatchPaper) {
  EXPECT_EQ(epyc64().cores, 64u);
  EXPECT_EQ(skylake192().cores, 192u);
  EXPECT_EQ(with_cores(epyc64(), 16).cores, 16u);
}

}  // namespace
