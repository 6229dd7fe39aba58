// Tests for the spec consistency validator (dp/verify).
//
// Two halves:
//   * positive — every real spec verifies clean across the (n, base) sweep,
//     with the graph statistics the specs are known to produce;
//   * negative — mutant specs, each wrapping the real GE spec with exactly
//     one seeded inconsistency, must be rejected with the *right* failure
//     kind. A validator that flags mutants for the wrong reason would pass
//     a weaker version of these tests, so each mutant asserts its specific
//     kind, not just !ok().
//
// The file also carries the get-count accounting regressions for the
// data-flow variants (which modes may garbage-collect items, and what must
// stay live), since verify_spec's consumer-count check is only meaningful
// if the executors honour the counted semantics.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bounded_wait.hpp"
#include "cell_wavefront.hpp"
#include "forwarding_spec.hpp"
#include "dp/dp.hpp"
#include "exec/dag.hpp"
#include "exec/prepared_graph.hpp"
#include "forkjoin/worker_pool.hpp"
#include "server/server.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

// ------------------------------------------------------------ positives ----

verify_report verify_ge(std::size_t n, std::size_t base,
                        verify_options opts = {}) {
  matrix<double> m(n, n, 1.0);
  return verify_spec(*make_ge_spec(m, base), opts);
}

TEST(SpecVerify, AllSpecsConsistentAcrossSweep) {
  for (const std::size_t n : {16u, 32u, 64u}) {
    for (std::size_t base = 4; base <= n; base *= 2) {
      {
        const verify_report r = verify_ge(n, base);
        EXPECT_TRUE(r.ok()) << r.summary();
        EXPECT_EQ(r.base_tasks, r.items_produced);  // GE: no env seeds
        EXPECT_LE(r.max_fan_in, r.declared_max_fan_in) << r.summary();
      }
      {
        const std::string a(n, 'A'), c(n, 'C');
        const sw_params p;
        matrix<std::int32_t> s(n + 1, n + 1, 0);
        const verify_report r = verify_spec(*make_sw_spec(s, a, c, p, base));
        EXPECT_TRUE(r.ok()) << r.summary();
        EXPECT_EQ(r.base_tasks, n / base * (n / base));
      }
      {
        matrix<double> m(n, n, 1.0);
        const verify_report r = verify_spec(*make_fw_spec(m, base));
        EXPECT_TRUE(r.ok()) << r.summary();
        // FW is value-passing: the environment seeds the round -1 tiles
        // and gathers the final round.
        EXPECT_EQ(r.environment_seeds, n / base * (n / base));
        EXPECT_EQ(r.environment_gets, n / base * (n / base));
      }
      {
        const std::string a(n, 'G'), c(n, 'T');
        matrix<std::int32_t> s(n + 1, n + 1, 0);
        const verify_report r =
            verify_spec(*make_lcs_spec(s, a, c, lcs_mode::lcs, base));
        EXPECT_TRUE(r.ok()) << r.summary();
        EXPECT_EQ(r.base_tasks, n / base * (n / base));
      }
      {
        // The variable-arity spec: tile (I,J) on diagonal d = J-I has
        // fan-in 2d, so the tight declared bound is 2(T-1) and the widest
        // observed fan-in must attain it.
        matrix<double> c(n, n, 0.0);
        const std::vector<double> dims(n + 1, 1.0);
        const verify_report r = verify_spec(*make_paren_spec(c, dims, base));
        EXPECT_TRUE(r.ok()) << r.summary();
        const std::size_t tiles = n / base;
        EXPECT_EQ(r.base_tasks, tiles * (tiles + 1) / 2);
        EXPECT_EQ(r.declared_max_fan_in,
                  tiles > 1 ? 2 * (tiles - 1) : 0u);
        EXPECT_EQ(r.max_fan_in, r.declared_max_fan_in);
      }
    }
  }
}

TEST(SpecVerify, NonPow2TiledConfigVerifiesWithSplitDisabled) {
  // n=96 is divisible by pow2 bases but not itself a power of two: only the
  // tiled backend runs it, and the 2-way split rule does not apply. The
  // graph-side checks (edges, counts, orphans) still do.
  verify_options opts;
  opts.check_split = false;
  const verify_report r = verify_ge(96, 8, opts);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_GT(r.dependency_edges, 0u);
}

TEST(SpecVerify, ReportStatisticsMatchKnownGeGraph) {
  // GE at n=16, base=4 has T=4 tile rounds: 30 base tasks, fan-in 4 (the D
  // kind: write-write predecessor + A + B + C), one final item kept.
  const verify_report r = verify_ge(16, 4);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.base_tasks, 30u);
  EXPECT_EQ(r.items_produced, 30u);
  EXPECT_EQ(r.max_fan_in, 4u);
  EXPECT_EQ(r.declared_max_fan_in, 4u);
  EXPECT_EQ(r.spec_name, "GE");
  EXPECT_NE(r.summary().find("OK"), std::string::npos);
}

// -------------------------------------------------------------- mutants ----

/// Each mutant overrides exactly one hook of the forwarding decorator to
/// plant one inconsistency, so the expected failure kind is unambiguous.
using spec_mutant = test::forwarding_spec;

/// A GE base tile whose output is consumed at least once (so dropping an
/// edge or miscounting it is observable): the first round's A tile.
constexpr tile3 k_victim{0, 0, 0};

std::unique_ptr<recurrence> ge16() {
  static matrix<double> m(16, 16, 1.0);  // verify never runs kernels
  return make_ge_spec(m, 4);
}

/// Drops every dependency edge pointing at the victim item. The victim's
/// consumer_count still declares the old out-degree, so get-count GC would
/// wait for gets that never come: a leak the validator must report as a
/// consumer-count mismatch.
struct missing_edge_mutant : spec_mutant {
  using spec_mutant::spec_mutant;
  void depends(const tile3& t, const dep_sink& need) const override {
    auto filter = [&](const tile3& k) {
      if (!(k == k_victim)) need(k);
    };
    dep_sink sink(filter);
    inner_->depends(t, sink);
  }
};

TEST(SpecVerifyMutants, MissingDependencyEdgeIsCaught) {
  missing_edge_mutant mutant(ge16());
  const verify_report r = verify_spec(mutant);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(verify_failure_kind::consumer_count_mismatch))
      << r.summary();
}

/// Declares one extra consumer for the victim: GC keeps the item past its
/// real last get (leak).
struct overcount_mutant : spec_mutant {
  using spec_mutant::spec_mutant;
  std::uint32_t consumer_count(const tile3& t) const override {
    return inner_->consumer_count(t) + (t == k_victim ? 1 : 0);
  }
};

/// Declares one consumer too few: GC frees the item while a counted get is
/// still outstanding (use-after-free).
struct undercount_mutant : spec_mutant {
  using spec_mutant::spec_mutant;
  std::uint32_t consumer_count(const tile3& t) const override {
    const std::uint32_t real = inner_->consumer_count(t);
    return t == k_victim && real > 0 ? real - 1 : real;
  }
};

TEST(SpecVerifyMutants, OverAndUnderCountedConsumersAreCaught) {
  {
    overcount_mutant mutant(ge16());
    const verify_report r = verify_spec(mutant);
    EXPECT_TRUE(r.has(verify_failure_kind::consumer_count_mismatch))
        << r.summary();
    EXPECT_EQ(r.count(verify_failure_kind::consumer_count_mismatch), 1u);
  }
  {
    undercount_mutant mutant(ge16());
    const verify_report r = verify_spec(mutant);
    EXPECT_TRUE(r.has(verify_failure_kind::consumer_count_mismatch))
        << r.summary();
  }
}

/// Emits the first base tag twice: manual pre-declaration would run the
/// step twice and hit a dynamic-single-assignment violation on its put.
struct duplicate_tag_mutant : spec_mutant {
  using spec_mutant::spec_mutant;
  void enumerate_base(const tag_sink& emit) const override {
    bool first = true;
    tile4 dup{};
    auto dup_sink = [&](const tile4& t) {
      if (first) {
        dup = t;
        first = false;
      }
      emit(t);
    };
    tag_sink sink(dup_sink);
    inner_->enumerate_base(sink);
    if (!first) emit(dup);
  }
};

TEST(SpecVerifyMutants, DuplicateBaseTagIsCaught) {
  duplicate_tag_mutant mutant(ge16());
  const verify_report r = verify_spec(mutant);
  EXPECT_TRUE(r.has(verify_failure_kind::duplicate_base_tag)) << r.summary();
  // Every graph built from the spec refuses it too: a duplicate tile would
  // be one node with two value slots.
  EXPECT_THROW(exec::dataflow_dag(mutant), contract_error);
  EXPECT_THROW(exec::prepared_graph::freeze(mutant), contract_error);
  EXPECT_THROW(exec::prepared_graph::freeze_batched(mutant, 2),
               contract_error);
}

/// Adds a dependency on a key nothing produces: a blocking get parks
/// forever, the nonblocking variant respawns forever.
struct orphan_dep_mutant : spec_mutant {
  using spec_mutant::spec_mutant;
  void depends(const tile3& t, const dep_sink& need) const override {
    inner_->depends(t, need);
    if (t == k_victim) need({t.i, t.j, 99});
  }
};

TEST(SpecVerifyMutants, UnproducedDependencyKeyIsCaught) {
  orphan_dep_mutant mutant(ge16());
  const verify_report r = verify_spec(mutant);
  EXPECT_TRUE(r.has(verify_failure_kind::unproduced_dependency))
      << r.summary();
  // The priced DAG must not silently drop the orphan edge either: a token
  // spec cannot seed the key from the environment, so the data-flow
  // lowering refuses the spec, exactly as the frozen executor does.
  EXPECT_THROW(exec::dataflow_dag(mutant), contract_error);
  EXPECT_THROW(exec::prepared_graph::freeze(mutant), contract_error);
  EXPECT_THROW(exec::prepared_graph::freeze_batched(mutant, 2),
               contract_error);
}

TEST(SpecVerifyMutants, KeyOutsideTheItemBoxIsCaught) {
  orphan_dep_mutant mutant(ge16());
  const verify_report r = verify_spec(mutant);
  ASSERT_TRUE(r.has(verify_failure_kind::key_outside_item_box))
      << r.summary();
  EXPECT_EQ(r.count(verify_failure_kind::key_outside_item_box), 1u);
}

/// The same orphan key (k = 99, past the last pivot round) run through every
/// data-flow mode: the dense item store has no slot for it, so the run must
/// fail with key_out_of_range from the get, the declaration or the poll
/// that names it — not hang, read out of bounds, or leak what is parked.
TEST(SpecVerifyMutants, KeyOutsideTheItemBoxFailsEveryDataflowMode) {
  for (const cnc_variant v : {cnc_variant::native, cnc_variant::tuner,
                              cnc_variant::manual, cnc_variant::nonblocking}) {
    SCOPED_TRACE(to_string(v));
    matrix<double> m(16, 16, 1.0);
    orphan_dep_mutant mutant(make_ge_spec(m, 4));
    forkjoin::worker_pool pool(2);
    test::within(std::chrono::seconds(20), "out-of-box data-flow run", [&] {
      EXPECT_THROW(exec::run_dataflow(mutant, {v, &pool}),
                   cnc::key_out_of_range);
    });
  }
}

/// Makes round 1's pivot tile (1,1,1) also wait on `back`: itself (a
/// self-loop) or round 3's pivot (3,3,3), which transitively waits on
/// (1,1,1) — a cycle across two rounds. Every tile still has its tag and
/// some tile is still ready at the start, so only a cycle check finds it;
/// an executor would wait forever.
struct cycle_mutant : spec_mutant {
  cycle_mutant(std::unique_ptr<recurrence> inner, tile3 back)
      : spec_mutant(std::move(inner)), back_(back) {}
  void depends(const tile3& t, const dep_sink& need) const override {
    inner_->depends(t, need);
    if (t == tile3{1, 1, 1}) need(back_);
  }
  tile3 back_;
};

void expect_cycle_refused(cycle_mutant& mutant) {
  EXPECT_THROW(exec::dataflow_dag(mutant), contract_error);
  EXPECT_THROW(exec::prepared_graph::freeze(mutant), contract_error);
  EXPECT_THROW(exec::prepared_graph::freeze_batched(mutant, 2),
               contract_error);
  server::server_config cfg;
  cfg.workers = 1;
  server::batch_server srv(cfg);
  EXPECT_THROW(srv.prepare(mutant), contract_error);
  EXPECT_EQ(srv.graph_count(), 0u);
}

TEST(SpecVerifyMutants, SelfLoopIsRefusedByEveryGraphBuilder) {
  cycle_mutant mutant(ge16(), {1, 1, 1});
  expect_cycle_refused(mutant);
}

TEST(SpecVerifyMutants, TwoRoundCycleIsRefusedByEveryGraphBuilder) {
  cycle_mutant mutant(ge16(), {3, 3, 3});
  expect_cycle_refused(mutant);
}

/// SW 64/8 whose tile (1,0) also waits on (0,1), on the same anti-diagonal.
/// The graph is still a DAG — the per-tile executors run it — but the
/// wavefront banding would put producer and consumer in one band, so the
/// band-fused freeze must refuse it.
struct antidiagonal_mutant : spec_mutant {
  using spec_mutant::spec_mutant;
  void depends(const tile3& t, const dep_sink& need) const override {
    inner_->depends(t, need);
    if (t == tile3{1, 0, 0}) need({0, 1, 0});
  }
};

TEST(SpecVerifyMutants, BandDisagreementIsRefusedOnlyByBandFusion) {
  const std::size_t n = 64, base = 8;
  const auto a = make_dna(n, 7);
  const auto b = make_dna(n, 8);
  const sw_params p;
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  antidiagonal_mutant mutant(make_sw_spec(s, a, b, p, base));
  EXPECT_NO_THROW(exec::dataflow_dag(mutant));
  EXPECT_NO_THROW(exec::prepared_graph::freeze(mutant));
  EXPECT_THROW(exec::prepared_graph::freeze_batched(mutant, 2),
               contract_error);
}

/// Drops the last stage of the root's split: part of the enumerate_base set
/// becomes unreachable from root().
struct dropped_stage_mutant : spec_mutant {
  using spec_mutant::spec_mutant;
  split_plan split(const tile4& t) const override {
    split_plan plan = inner_->split(t);
    if (static_cast<std::size_t>(t.b) == size() && plan.stage_count > 1) {
      split_plan clipped;
      clipped.children = plan.children;
      clipped.stage_count = static_cast<std::uint8_t>(plan.stage_count - 1);
      for (std::size_t s = 0; s < clipped.stage_count; ++s)
        clipped.stage_end[s] = plan.stage_end[s];
      clipped.child_count = plan.stage_end[clipped.stage_count - 1];
      return clipped;
    }
    return plan;
  }
};

TEST(SpecVerifyMutants, DroppedSplitStageIsCaught) {
  dropped_stage_mutant mutant(ge16());
  const verify_report r = verify_spec(mutant);
  EXPECT_TRUE(r.has(verify_failure_kind::split_base_mismatch)) << r.summary();
}

/// Swaps the first two stages of the root split: the flattened order now
/// runs dependents before their producers.
struct swapped_stage_mutant : spec_mutant {
  using spec_mutant::spec_mutant;
  split_plan split(const tile4& t) const override {
    split_plan plan = inner_->split(t);
    if (static_cast<std::size_t>(t.b) != size() || plan.stage_count < 2)
      return plan;
    split_plan swapped;
    const std::size_t s0_end = plan.stage_end[0];
    const std::size_t s1_end = plan.stage_end[1];
    // Stage 1's children first, then stage 0's, then the rest unchanged.
    std::vector<tile4> order;
    for (std::size_t c = s0_end; c < s1_end; ++c)
      order.push_back(plan.children[c]);
    const std::size_t new_s0_end = order.size();
    for (std::size_t c = 0; c < s0_end; ++c) order.push_back(plan.children[c]);
    for (std::size_t c = s1_end; c < plan.child_count; ++c)
      order.push_back(plan.children[c]);
    for (std::size_t i = 0; i < order.size(); ++i)
      swapped.children[i] = order[i];
    swapped.child_count = plan.child_count;
    swapped.stage_count = plan.stage_count;
    swapped.stage_end = plan.stage_end;
    swapped.stage_end[0] = static_cast<std::uint8_t>(new_s0_end);
    return swapped;
  }
};

TEST(SpecVerifyMutants, SwappedSplitStagesAreCaught) {
  swapped_stage_mutant mutant(ge16());
  const verify_report r = verify_spec(mutant);
  EXPECT_TRUE(r.has(verify_failure_kind::stage_order_violation))
      << r.summary();
}

/// Understates the dependency bound executors reserve buffers from (the
/// shipped dep_list overflow: GE D tiles emit 4 keys).
struct narrow_fanin_mutant : spec_mutant {
  using spec_mutant::spec_mutant;
  std::size_t max_dependencies() const override { return 2; }
};

TEST(SpecVerifyMutants, FanInExceedingDeclaredBoundIsCaught) {
  narrow_fanin_mutant mutant(ge16());
  const verify_report r = verify_spec(mutant);
  EXPECT_TRUE(r.has(verify_failure_kind::fan_in_exceeds_declared))
      << r.summary();
  const verify_report clean = verify_spec(*ge16());
  EXPECT_FALSE(clean.has(verify_failure_kind::fan_in_exceeds_declared));
}

/// Understates the *per-tile* bound while leaving the instance-wide
/// max_dependencies() honest: the variable-arity contract is violated for
/// every tile that has any dependency at all.
struct narrow_tile_bound_mutant : spec_mutant {
  using spec_mutant::spec_mutant;
  std::size_t dependency_bound(const tile3& t) const override {
    (void)t;
    return 0;
  }
};

TEST(SpecVerifyMutants, TileArityExceedingPerTileBoundIsCaught) {
  narrow_tile_bound_mutant mutant(ge16());
  const verify_report r = verify_spec(mutant);
  EXPECT_TRUE(r.has(verify_failure_kind::tile_arity_exceeds_bound))
      << r.summary();
  // The instance-wide bound is untouched, so the blanket check stays quiet.
  EXPECT_FALSE(r.has(verify_failure_kind::fan_in_exceeds_declared))
      << r.summary();
  const verify_report clean = verify_spec(*ge16());
  EXPECT_FALSE(clean.has(verify_failure_kind::tile_arity_exceeds_bound));
}

/// Overstates max_dependencies(): no tile attains the declared bound, so
/// executors would oversize every dependency buffer and the session-shape
/// fingerprint would carry a stale number.
struct inflated_fanin_mutant : spec_mutant {
  using spec_mutant::spec_mutant;
  std::size_t max_dependencies() const override {
    return inner_->max_dependencies() + 3;
  }
};

TEST(SpecVerifyMutants, UnattainedDeclaredBoundIsCaught) {
  inflated_fanin_mutant mutant(ge16());
  const verify_report r = verify_spec(mutant);
  EXPECT_TRUE(r.has(verify_failure_kind::arity_bound_not_tight))
      << r.summary();
  EXPECT_EQ(r.count(verify_failure_kind::arity_bound_not_tight), 1u);
  const verify_report clean = verify_spec(*ge16());
  EXPECT_FALSE(clean.has(verify_failure_kind::arity_bound_not_tight));
}

TEST(SpecVerifyMutants, IssueListTruncatesButKeepsStatistics) {
  // Overstate every count: one mismatch per produced item, far over a
  // 4-issue cap. The statistics must still cover the whole graph.
  struct all_wrong_mutant : spec_mutant {
    using spec_mutant::spec_mutant;
    std::uint32_t consumer_count(const tile3& t) const override {
      return inner_->consumer_count(t) + 7;
    }
  };
  all_wrong_mutant mutant(ge16());
  verify_options opts;
  opts.max_issues = 4;
  const verify_report r = verify_spec(mutant, opts);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.issues.size(), 4u);
  EXPECT_EQ(r.base_tasks, 30u);
  EXPECT_NE(r.summary().find("4+ issue(s)"), std::string::npos)
      << r.summary();
}

// ------------------------------------------- get-count GC regressions ----

/// Which items may stay live after a data-flow run is a direct consequence
/// of the consumer counts verify_spec checks: the single-execution tuners
/// garbage-collect every item whose declared gets all happen, while the
/// native/nonblocking modes never enable collection (abort/re-execute and
/// poll-retry would double-count gets).
TEST(SpecVerifyRuntime, GetCountCollectionMatchesCountedConsumers) {
  const std::size_t n = 32, base = 8;
  xoshiro256 gen(7);
  run_options opts;
  opts.base = base;
  opts.workers = 3;

  const auto input = make_diag_dominant(n, gen.next());
  {
    // Tuner (GC on): everything is reclaimed except GE's one count-0 item
    // (the final A output, declared "keep forever").
    auto m = input;
    const variant* v = find_variant(benchmark_id::ge, "dataflow:tuner");
    ASSERT_NE(v, nullptr);
    const run_outcome out = v->run(*v, ge_problem(m), opts);
    EXPECT_EQ(out.info.items_live_at_end, 1u);
  }
  {
    // Nonblocking (GC off): every base task's item stays live — a
    // double-decrement from respawned steps re-polling try_get would have
    // collected some of them.
    auto m = input;
    const variant* v =
        find_variant(benchmark_id::ge, "dataflow:nonblocking");
    ASSERT_NE(v, nullptr);
    const run_outcome out = v->run(*v, ge_problem(m), opts);
    matrix<double> expect_table = input;
    exec::run_serial(*make_ge_spec(expect_table, base));
    EXPECT_EQ(m, expect_table);
    const verify_report rep = verify_ge(n, base);
    EXPECT_EQ(out.info.items_live_at_end, rep.base_tasks);
  }
  {
    // FW tuner: value-passing with environment gather gets counted, so
    // every single item (seeds included) is reclaimed.
    auto fw_input = make_digraph(n, 0.3, 5, 1e9);
    for (std::size_t i = 0; i < fw_input.size(); ++i)
      fw_input.data()[i] = static_cast<double>(
          static_cast<long long>(fw_input.data()[i]));
    const variant* v = find_variant(benchmark_id::fw, "dataflow:tuner");
    ASSERT_NE(v, nullptr);
    const run_outcome out = v->run(*v, fw_problem(fw_input), opts);
    EXPECT_EQ(out.info.items_live_at_end, 0u);
  }
}

// ----------------------------------------- generated-spec property test ----

/// Random affine wavefront cell. Coefficients are drawn per trial; uint64
/// wrapping arithmetic keeps every model bit-deterministic (and UBSan-clean)
/// no matter how the values grow.
struct random_affine_cell {
  std::uint64_t a, b, c, d, e;
  std::uint64_t operator()(std::uint64_t nw, std::uint64_t north,
                           std::uint64_t west, std::size_t i,
                           std::size_t j) const {
    return a * nw + b * north + c * west +
           d * (31 * static_cast<std::uint64_t>(i) +
                static_cast<std::uint64_t>(j)) +
           e;
  }
};

/// The structural half of the property: verify_spec must accept the tile
/// wavefront lowering for *every* cell functor and every legal (n, base),
/// with the statistics the dependency structure dictates — the validator
/// walks the spec, not the kernel, so a cell drawn at random proves the
/// check is about the lowering and nothing else.
TEST(SpecVerifyProperty, RandomWavefrontCellsAlwaysLowerConsistently) {
  xoshiro256 gen(0xC0FFEE);
  constexpr std::size_t sizes[] = {16, 32, 64};
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t n = sizes[gen.next() % 3];
    // Random power-of-two base in [4, n].
    std::vector<std::size_t> bases;
    for (std::size_t b = 4; b <= n; b *= 2) bases.push_back(b);
    const std::size_t base = bases[gen.next() % bases.size()];
    random_affine_cell cell{gen.next() % 8, gen.next() % 8, gen.next() % 8,
                            gen.next() % 8, gen.next() % 8};
    auto t = test::boundary_table<std::uint64_t>(n, n);
    test::cell_spec<std::uint64_t, random_affine_cell> spec(t, cell, base);

    const verify_report r = verify_spec(spec);
    EXPECT_TRUE(r.ok()) << "n=" << n << " base=" << base << "\n"
                        << r.summary();
    const std::size_t tiles = n / base;
    EXPECT_EQ(r.base_tasks, tiles * tiles);
    EXPECT_EQ(r.items_produced, tiles * tiles);
    // Interior tiles need NW + N + W, never more — and the declared bound
    // is tight: a single-tile instance declares 0.
    EXPECT_LE(r.max_fan_in, 3u);
    EXPECT_EQ(r.declared_max_fan_in, tiles > 1 ? 3u : 0u);
    EXPECT_EQ(r.max_fan_in, r.declared_max_fan_in);
  }
}

/// The execution half: for random cells, every execution model must
/// reproduce the serial loop's table bit-for-bit — the verified lowering is
/// only worth anything if the executors realise it faithfully.
TEST(SpecVerifyProperty, RandomCellsAgreeAcrossExecutionModels) {
  xoshiro256 gen(0xBADCAB);
  forkjoin::worker_pool pool(3);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 32, base = trial % 2 == 0 ? 4 : 8;
    random_affine_cell cell{gen.next() % 8, gen.next() % 8, gen.next() % 8,
                            gen.next() % 8, gen.next() % 8};
    const std::uint64_t tb = gen.next() % 16, lb = gen.next() % 16;
    const auto fresh = test::boundary_table<std::uint64_t>(
        n, n, [tb](std::size_t j) { return tb * j; },
        [lb](std::size_t i) { return lb * i; });

    auto oracle = fresh;
    test::fill_loop(oracle, cell);

    auto t = fresh;
    test::cell_spec<std::uint64_t, random_affine_cell> spec(t, cell, base);
    exec::run_serial(spec);
    EXPECT_EQ(t, oracle) << "trial " << trial;

    t = fresh;
    exec::run_forkjoin(spec, pool);
    EXPECT_EQ(t, oracle) << "trial " << trial;

    for (const cnc_variant v :
         {cnc_variant::native, cnc_variant::tuner, cnc_variant::nonblocking}) {
      t = fresh;
      exec::run_dataflow(spec, {v, &pool});
      EXPECT_EQ(t, oracle)
          << "trial " << trial << " variant " << to_string(v);
    }

    t = fresh;
    exec::prepared_graph::freeze_batched(spec, 3).execute(spec, pool);
    EXPECT_EQ(t, oracle) << "trial " << trial << " prepared:batched";
  }
}

}  // namespace
