// Tests for the task-DAG IR, the spec-derived DAG lowerings (exec/dag.hpp)
// and the work/span analysis — including the paper's central structural
// claim: fork-join joins inflate the span (artificial dependencies),
// data-flow DAGs do not.
//
// The derived DAGs replaced hand-written per-benchmark builders. Their
// shapes were frozen from those builders before they were deleted (the
// golden tables below): node/edge/base-task counts, T1, T∞ and an
// order-sensitive digest of every node, so a derivation that renumbers,
// relabels, reprices or rewires a single node fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "dp/dp.hpp"
#include "exec/dag.hpp"
#include "exec/prepared_graph.hpp"
#include "trace/task_graph.hpp"

namespace {

using namespace rdp;
using namespace rdp::trace;
using dp::benchmark_id;
using exec::dataflow_dag;
using exec::forkjoin_dag;

std::uint64_t ge_task_count(std::uint64_t t) {
  return (2 * t * t * t + 3 * t * t + t) / 6;
}

/// Derived DAGs of a benchmark at `tiles` tiles, priced at tile side b.
task_graph df(benchmark_id bm, std::size_t tiles, std::size_t b) {
  return dataflow_dag(*dp::make_tile_scale_spec(bm, tiles), b);
}
task_graph fj(benchmark_id bm, std::size_t tiles, std::size_t b) {
  return forkjoin_dag(*dp::make_tile_scale_spec(bm, tiles), b);
}

double span_of(const task_graph& g) { return analyze_work_span(g).span; }

struct dag_shape {
  std::size_t nodes, edges, base_tasks;
  std::uint64_t work, span;  // T1 and T∞ in update counts
  std::uint64_t digest;
  friend bool operator==(const dag_shape&, const dag_shape&) = default;
};

/// FNV-1a over 64-bit words of (node id, type, kind, coord, work, sorted
/// successors) for every node in id order.
dag_shape shape_of(const task_graph& g) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 1099511628211ull; };
  for (node_id v = 0; v < g.node_count(); ++v) {
    const task_node& n = g.node(v);
    mix(v);
    mix(static_cast<std::uint64_t>(n.type));
    mix(static_cast<std::uint64_t>(n.kind));
    mix(static_cast<std::uint32_t>(n.coord.i));
    mix(static_cast<std::uint32_t>(n.coord.j));
    mix(static_cast<std::uint32_t>(n.coord.k));
    mix(n.work);
    std::vector<node_id> succ = n.successors;
    std::sort(succ.begin(), succ.end());
    mix(succ.size());
    for (node_id s : succ) mix(s);
  }
  const auto ws = analyze_work_span(g);
  return {g.node_count(), g.edge_count(), g.base_task_count(),
          static_cast<std::uint64_t>(ws.total_work),
          static_cast<std::uint64_t>(ws.span), h};
}

std::ostream& operator<<(std::ostream& os, const dag_shape& s) {
  return os << "{nodes " << s.nodes << ", edges " << s.edges << ", base "
            << s.base_tasks << ", T1 " << s.work << ", Tinf " << s.span
            << ", digest " << std::hex << s.digest << std::dec << "}";
}

TEST(TaskGraph, TopologicalOrderAndValidation) {
  task_graph g;
  const auto a = g.add_node(node_type::base_task, dp::task_kind::A, {}, 5);
  const auto b = g.add_node(node_type::base_task, dp::task_kind::B, {}, 3);
  const auto c = g.add_node(node_type::base_task, dp::task_kind::C, {}, 3);
  const auto d = g.add_node(node_type::base_task, dp::task_kind::D, {}, 7);
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  g.validate();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), a);
  EXPECT_EQ(order.back(), d);
  const auto ws = analyze_work_span(g);
  EXPECT_DOUBLE_EQ(ws.total_work, 18.0);
  EXPECT_DOUBLE_EQ(ws.span, 15.0);  // a -> b/c -> d = 5+3+7
}

TEST(TaskGraph, CycleDetection) {
  task_graph g;
  const auto a = g.add_node(node_type::base_task);
  const auto b = g.add_node(node_type::base_task);
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(g.topological_order(), contract_error);
}

// ---------------------------------------------- golden derived shapes ----

enum model { dataflow, forkjoin };

struct golden_row {
  benchmark_id bm;
  model m;
  std::size_t tiles, b;
  dag_shape shape;
};

// Captured from the hand-written builders the lowerings replaced:
// {GE, SW, FW} × {data-flow, fork-join} × tiles {1..32} × b {8, 64}.
const golden_row k_golden[] = {
    {benchmark_id::ge, dataflow, 1, 8, {1, 0, 1, 140ull, 140ull, 0xaa52303229692859ull}},
    {benchmark_id::ge, dataflow, 1, 64, {1, 0, 1, 85344ull, 85344ull, 0x8f16b82eac4621e5ull}},
    {benchmark_id::ge, dataflow, 2, 8, {5, 6, 5, 1240ull, 1016ull, 0x4a355b4a502d6da2ull}},
    {benchmark_id::ge, dataflow, 2, 64, {5, 6, 5, 690880ull, 561856ull, 0xded80bed66d0edcaull}},
    {benchmark_id::ge, dataflow, 4, 8, {30, 68, 30, 10416ull, 2768ull, 0x36c134a0db8f9496ull}},
    {benchmark_id::ge, dataflow, 4, 64, {30, 68, 30, 5559680ull, 1514880ull, 0x0452b783ebbef016ull}},
    {benchmark_id::ge, dataflow, 8, 8, {204, 616, 204, 85344ull, 6272ull, 0x37c692b2ed746c7dull}},
    {benchmark_id::ge, dataflow, 8, 64, {204, 616, 204, 44608256ull, 3420928ull, 0x38a68e7cccf190fdull}},
    {benchmark_id::ge, dataflow, 16, 8, {1496, 5200, 1496, 690880ull, 13280ull, 0x9b8617ac7364a9adull}},
    {benchmark_id::ge, dataflow, 16, 64, {1496, 5200, 1496, 357389824ull, 7233024ull, 0xaf76262a040a8dbdull}},
    {benchmark_id::ge, dataflow, 32, 8, {11440, 42656, 11440, 5559680ull, 27296ull, 0x88585a06743b5a25ull}},
    {benchmark_id::ge, dataflow, 32, 64, {11440, 42656, 11440, 2861214720ull, 14857216ull, 0xdd6de69a81451fe5ull}},
    {benchmark_id::ge, forkjoin, 1, 8, {1, 0, 1, 140ull, 140ull, 0xaa52303229692859ull}},
    {benchmark_id::ge, forkjoin, 1, 64, {1, 0, 1, 85344ull, 85344ull, 0x8f16b82eac4621e5ull}},
    {benchmark_id::ge, forkjoin, 2, 8, {7, 7, 5, 1240ull, 1016ull, 0x703fbe3028ad73e4ull}},
    {benchmark_id::ge, forkjoin, 2, 64, {7, 7, 5, 690880ull, 561856ull, 0xae64bcf4ea3d0f14ull}},
    {benchmark_id::ge, forkjoin, 4, 8, {52, 66, 30, 10416ull, 4016ull, 0xae236cbc9728256full}},
    {benchmark_id::ge, forkjoin, 4, 64, {52, 66, 30, 5559680ull, 2168192ull, 0x3ef18b627db40b27ull}},
    {benchmark_id::ge, forkjoin, 8, 8, {362, 500, 204, 85344ull, 13024ull, 0x7afaedc708f27ed9ull}},
    {benchmark_id::ge, forkjoin, 8, 64, {362, 500, 204, 44608256ull, 6949632ull, 0x0c69f53a584da429ull}},
    {benchmark_id::ge, forkjoin, 16, 8, {2566, 3720, 1496, 690880ull, 38080ull, 0x25e9aa65fe717d9dull}},
    {benchmark_id::ge, forkjoin, 16, 64, {2566, 3720, 1496, 357389824ull, 20174336ull, 0x402f61ee88ca4acdull}},
    {benchmark_id::ge, forkjoin, 32, 8, {18942, 28272, 11440, 5559680ull, 104320ull, 0x7910222cb78a3c85ull}},
    {benchmark_id::ge, forkjoin, 32, 64, {18942, 28272, 11440, 2861214720ull, 54995968ull, 0x507f2627ab0011a5ull}},
    {benchmark_id::sw, dataflow, 1, 8, {1, 0, 1, 64ull, 64ull, 0x8484dc65155335beull}},
    {benchmark_id::sw, dataflow, 1, 64, {1, 0, 1, 4096ull, 4096ull, 0xbbbe5c65443e8ffeull}},
    {benchmark_id::sw, dataflow, 2, 8, {4, 5, 4, 256ull, 192ull, 0x7899f6a49f21c55eull}},
    {benchmark_id::sw, dataflow, 2, 64, {4, 5, 4, 16384ull, 12288ull, 0x7657082628c3e55eull}},
    {benchmark_id::sw, dataflow, 4, 8, {16, 33, 16, 1024ull, 448ull, 0x9426fa1c08115028ull}},
    {benchmark_id::sw, dataflow, 4, 64, {16, 33, 16, 65536ull, 28672ull, 0xc50f61ac43676b28ull}},
    {benchmark_id::sw, dataflow, 8, 8, {64, 161, 64, 4096ull, 960ull, 0x49849e5cd7420bfcull}},
    {benchmark_id::sw, dataflow, 8, 64, {64, 161, 64, 262144ull, 61440ull, 0x533be839a8cb617cull}},
    {benchmark_id::sw, dataflow, 16, 8, {256, 705, 256, 16384ull, 1984ull, 0x70ab0b42893af07cull}},
    {benchmark_id::sw, dataflow, 16, 64, {256, 705, 256, 1048576ull, 126976ull, 0x1c9f121abb7d66fcull}},
    {benchmark_id::sw, dataflow, 32, 8, {1024, 2945, 1024, 65536ull, 4032ull, 0x862fcdf4eadbfdacull}},
    {benchmark_id::sw, dataflow, 32, 64, {1024, 2945, 1024, 4194304ull, 258048ull, 0x952cd02477ce9d2cull}},
    {benchmark_id::sw, forkjoin, 1, 8, {1, 0, 1, 64ull, 64ull, 0x8484dc65155335beull}},
    {benchmark_id::sw, forkjoin, 1, 64, {1, 0, 1, 4096ull, 4096ull, 0xbbbe5c65443e8ffeull}},
    {benchmark_id::sw, forkjoin, 2, 8, {6, 6, 4, 256ull, 192ull, 0xf7bf45a4ef4d7600ull}},
    {benchmark_id::sw, forkjoin, 2, 64, {6, 6, 4, 16384ull, 12288ull, 0xc6fc7e94f1c45380ull}},
    {benchmark_id::sw, forkjoin, 4, 8, {26, 30, 16, 1024ull, 576ull, 0x369ba29eadea2a53ull}},
    {benchmark_id::sw, forkjoin, 4, 64, {26, 30, 16, 65536ull, 36864ull, 0xeef9024d17c15153ull}},
    {benchmark_id::sw, forkjoin, 8, 8, {106, 126, 64, 4096ull, 1728ull, 0xdc385b8ebc4f0225ull}},
    {benchmark_id::sw, forkjoin, 8, 64, {106, 126, 64, 262144ull, 110592ull, 0x4a7c778fc5928125ull}},
    {benchmark_id::sw, forkjoin, 16, 8, {426, 510, 256, 16384ull, 5184ull, 0x35d9ac3fa1f3a65dull}},
    {benchmark_id::sw, forkjoin, 16, 64, {426, 510, 256, 1048576ull, 331776ull, 0x9137cbb266b60eddull}},
    {benchmark_id::sw, forkjoin, 32, 8, {1706, 2046, 1024, 65536ull, 15552ull, 0x696a8248834d8901ull}},
    {benchmark_id::sw, forkjoin, 32, 64, {1706, 2046, 1024, 4194304ull, 995328ull, 0x4dee7666e833ef01ull}},
    {benchmark_id::fw, dataflow, 1, 8, {1, 0, 1, 512ull, 512ull, 0xaf93f8322de08bc5ull}},
    {benchmark_id::fw, dataflow, 1, 64, {1, 0, 1, 262144ull, 262144ull, 0x10c7f8269b7639c5ull}},
    {benchmark_id::fw, dataflow, 2, 8, {8, 12, 8, 4096ull, 3072ull, 0x7e0a00ca49856785ull}},
    {benchmark_id::fw, dataflow, 2, 64, {8, 12, 8, 2097152ull, 1572864ull, 0x12a93650a9d01385ull}},
    {benchmark_id::fw, dataflow, 4, 8, {64, 144, 64, 32768ull, 6144ull, 0xe5756a9a437a8961ull}},
    {benchmark_id::fw, dataflow, 4, 64, {64, 144, 64, 16777216ull, 3145728ull, 0x0085f9e4bac66161ull}},
    {benchmark_id::fw, dataflow, 8, 8, {512, 1344, 512, 262144ull, 12288ull, 0x7049e983a5a05a21ull}},
    {benchmark_id::fw, dataflow, 8, 64, {512, 1344, 512, 134217728ull, 6291456ull, 0xd79aa1eb9af54221ull}},
    {benchmark_id::fw, dataflow, 16, 8, {4096, 11520, 4096, 2097152ull, 24576ull, 0xf0e90d8be32fc609ull}},
    {benchmark_id::fw, dataflow, 16, 64, {4096, 11520, 4096, 1073741824ull, 12582912ull, 0x629a944e959c4609ull}},
    {benchmark_id::fw, dataflow, 32, 8, {32768, 95232, 32768, 16777216ull, 49152ull, 0x0926842274ef4b89ull}},
    {benchmark_id::fw, dataflow, 32, 64, {32768, 95232, 32768, 8589934592ull, 25165824ull, 0x01f4839edaf62f89ull}},
    {benchmark_id::fw, forkjoin, 1, 8, {1, 0, 1, 512ull, 512ull, 0xaf93f8322de08bc5ull}},
    {benchmark_id::fw, forkjoin, 1, 64, {1, 0, 1, 262144ull, 262144ull, 0x10c7f8269b7639c5ull}},
    {benchmark_id::fw, forkjoin, 2, 8, {12, 13, 8, 4096ull, 3072ull, 0x37a529f8479ace14ull}},
    {benchmark_id::fw, forkjoin, 2, 64, {12, 13, 8, 2097152ull, 1572864ull, 0xab3a5c58b2bfe614ull}},
    {benchmark_id::fw, forkjoin, 4, 8, {116, 149, 64, 32768ull, 12288ull, 0xfc21ce27c24de934ull}},
    {benchmark_id::fw, forkjoin, 4, 64, {116, 149, 64, 16777216ull, 6291456ull, 0x79b70fd82a062534ull}},
    {benchmark_id::fw, forkjoin, 8, 8, {916, 1269, 512, 262144ull, 40960ull, 0xec245b82f385b0f4ull}},
    {benchmark_id::fw, forkjoin, 8, 64, {916, 1269, 512, 134217728ull, 20971520ull, 0xedc9ecaeb2bbacf4ull}},
    {benchmark_id::fw, forkjoin, 16, 8, {6996, 10165, 4096, 2097152ull, 122880ull, 0x2a1fd34f5f9e7094ull}},
    {benchmark_id::fw, forkjoin, 16, 64, {6996, 10165, 4096, 1073741824ull, 62914560ull, 0x9c3131c5dab42894ull}},
    {benchmark_id::fw, forkjoin, 32, 8, {53972, 80693, 32768, 16777216ull, 344064ull, 0x71d0ca7a80d5f83cull}},
    {benchmark_id::fw, forkjoin, 32, 64, {53972, 80693, 32768, 8589934592ull, 176160768ull, 0x541c20f0492c243cull}},
};

TEST(DerivedDags, MatchFrozenBuilderShapes) {
  for (const golden_row& row : k_golden) {
    const task_graph g = row.m == dataflow ? df(row.bm, row.tiles, row.b)
                                           : fj(row.bm, row.tiles, row.b);
    g.validate();
    EXPECT_EQ(shape_of(g), row.shape)
        << dp::to_string(row.bm) << (row.m == dataflow ? " dataflow" : " forkjoin")
        << " tiles=" << row.tiles << " b=" << row.b;
  }
}

struct rway_row {
  std::size_t tiles, b, r;
  dag_shape shape;
};

// The r-way GE DAGs, frozen from the hand-built r-way builder before it
// was deleted: forkjoin_dag(rec, b, r) walks the spec's one split rule and
// must reproduce them node for node.
const rway_row k_rway_golden[] = {
    {4, 16, 2, {52, 66, 30, 85344ull, 33120ull, 0xbe925501186b6cb7ull}},
    {4, 16, 4, {40, 59, 30, 85344ull, 23008ull, 0xa0b62b51bdde6fe0ull}},
    {16, 16, 2, {2566, 3720, 1496, 5559680ull, 310656ull, 0x826b8941e2ecb7cdull}},
    {16, 16, 4, {1826, 3161, 1496, 5559680ull, 201088ull, 0x14ccd43b5da6b61full}},
    {16, 16, 16, {1554, 3003, 1496, 5559680ull, 110080ull, 0x4b69740af0ce1045ull}},
    {64, 64, 4, {103210, 187185, 89440, 22898104320ull, 90101760ull, 0xfc5647b65368c14bull}},
    {64, 64, 8, {93594, 181079, 89440, 22898104320ull, 62117888ull, 0x1d431e3bd46ae3bfull}},
};

TEST(DerivedDags, RwayBuilderMatchesFrozenShapes) {
  for (const rway_row& row : k_rway_golden) {
    const auto ge = dp::make_tile_scale_spec(benchmark_id::ge, row.tiles);
    EXPECT_EQ(shape_of(forkjoin_dag(*ge, row.b, row.r)), row.shape)
        << "tiles=" << row.tiles << " b=" << row.b << " r=" << row.r;
  }
}

// ------------------------------------------ priced DAG == executed DAG ----

/// One (n, base) problem instance of a benchmark, owning its data.
struct instance {
  benchmark_id bm;
  std::size_t n;
  matrix<double> table;
  matrix<std::int32_t> sw_table;
  std::string seq;
  dp::sw_params params;
  std::vector<double> dims;

  instance(benchmark_id b, std::size_t size)
      : bm(b), n(size), table(size, size, 1.0),
        sw_table(size + 1, size + 1, 0), seq(size, 'A'),
        dims(size + 1, 1.0) {}

  std::unique_ptr<dp::recurrence> spec(std::size_t base) {
    switch (bm) {
      case benchmark_id::ge: return dp::make_ge_spec(table, base);
      case benchmark_id::fw: return dp::make_fw_spec(table, base);
      case benchmark_id::sw:
        return dp::make_sw_spec(sw_table, seq, seq, params, base);
      case benchmark_id::lcs:
        return dp::make_lcs_spec(sw_table, seq, seq, dp::lcs_mode::lcs,
                                 base);
      case benchmark_id::paren:
        return dp::make_paren_spec(table, dims, base);
    }
    return nullptr;
  }
};

constexpr benchmark_id k_all_specs[] = {benchmark_id::ge, benchmark_id::sw,
                                        benchmark_id::fw, benchmark_id::lcs,
                                        benchmark_id::paren};

std::multiset<std::tuple<int, int, int>> base_tags(const dp::recurrence& rec) {
  std::multiset<std::tuple<int, int, int>> out;
  auto emit = [&](const dp::tile4& t) { out.insert({t.i, t.j, t.k}); };
  rec.enumerate_base(dp::tag_sink(emit));
  return out;
}

std::multiset<std::tuple<int, int, int>> base_nodes(const task_graph& g) {
  std::multiset<std::tuple<int, int, int>> out;
  for (const task_node& n : g.nodes())
    if (n.type == node_type::base_task)
      out.insert({n.coord.i, n.coord.j, n.coord.k});
  return out;
}

std::size_t root_count(const task_graph& g) {
  return static_cast<std::size_t>(
      std::count_if(g.nodes().begin(), g.nodes().end(),
                    [](const task_node& n) { return n.predecessor_count == 0; }));
}

TEST(DerivedDags, PricedDagEqualsExecutedDagForEverySpec) {
  struct config { std::size_t n, base; };
  for (const benchmark_id bm : k_all_specs) {
    for (const config c : {config{64, 8}, config{128, 16}, config{64, 64}}) {
      SCOPED_TRACE(std::string(dp::to_string(bm)) + " n=" +
                   std::to_string(c.n) + " base=" + std::to_string(c.base));
      instance inst(bm, c.n);
      const auto spec = inst.spec(c.base);
      // Paren has no base_work hook: pricing it is a contract violation,
      // deriving its shape is not. Compare its shapes unpriced.
      std::size_t b = c.base;
      if (bm == benchmark_id::paren) {
        EXPECT_THROW(dataflow_dag(*spec, b), contract_error);
        b = 0;
      }

      // FW is value-passing: its round -1 seeds must be dropped, not
      // turned into edges (at n == base the only dependency is a seed).
      const task_graph dg = dataflow_dag(*spec, b);
      const auto frozen = exec::prepared_graph::freeze(*spec);
      EXPECT_EQ(dg.base_task_count(), frozen.tile_count());
      EXPECT_EQ(dg.edge_count(), frozen.edge_count());
      EXPECT_EQ(root_count(dg), frozen.root_count());

      const task_graph fg = forkjoin_dag(*spec, b);
      fg.validate();
      EXPECT_EQ(base_nodes(fg), base_tags(*spec));
      EXPECT_EQ(base_nodes(dg), base_tags(*spec));

      // The figure sweeps' invariant: the tile-scale spec derives the same
      // graphs as the (n, base) spec it stands for.
      const auto tiles = dp::make_tile_scale_spec(bm, c.n / c.base);
      EXPECT_EQ(shape_of(dataflow_dag(*tiles, b)), shape_of(dg));
      EXPECT_EQ(shape_of(forkjoin_dag(*tiles, b)), shape_of(fg));
    }
  }
}

// ---------------------------------------------------------- task work ----

TEST(TaskWork, GeWorkSumsToLoopNestSize) {
  // Σ over all base tasks of their update counts must equal the loop nest:
  // Σ_{k<n} (n-1-k)^2 = (n-1)n(2n-1)/6 — independent of the base size.
  const std::uint64_t n = 256;
  const std::uint64_t loop_total = (n - 1) * n * (2 * n - 1) / 6;
  for (std::uint64_t base : {8ull, 16ull, 32ull, 64ull, 256ull}) {
    const auto g = df(benchmark_id::ge, n / base, base);
    std::uint64_t total = 0;
    for (const auto& node : g.nodes()) total += node.work;
    EXPECT_EQ(total, loop_total) << "base=" << base;
  }
}

TEST(TaskWork, FwWorkSumsToCube) {
  const std::uint64_t n = 128;
  for (std::uint64_t base : {8ull, 32ull}) {
    const auto g = df(benchmark_id::fw, n / base, base);
    std::uint64_t total = 0;
    for (const auto& node : g.nodes()) total += node.work;
    EXPECT_EQ(total, n * n * n) << "base=" << base;
  }
}

class BuilderSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BuilderSweep, GeDataflowShape) {
  const std::size_t t = GetParam();
  const auto g = df(benchmark_id::ge, t, 16);
  g.validate();
  EXPECT_EQ(g.node_count(), ge_task_count(t));
  EXPECT_EQ(g.base_task_count(), ge_task_count(t));
}

TEST_P(BuilderSweep, GeForkjoinCoversSameBaseTasks) {
  const std::size_t t = GetParam();
  const auto g = fj(benchmark_id::ge, t, 16);
  g.validate();
  EXPECT_EQ(g.base_task_count(), ge_task_count(t));
  // Fork-join DAG carries the same total work as the data-flow DAG.
  const auto d = df(benchmark_id::ge, t, 16);
  EXPECT_DOUBLE_EQ(analyze_work_span(g).total_work,
                   analyze_work_span(d).total_work);
}

TEST_P(BuilderSweep, FwShapes) {
  const std::size_t t = GetParam();
  const auto d = df(benchmark_id::fw, t, 8);
  const auto f = fj(benchmark_id::fw, t, 8);
  d.validate();
  f.validate();
  EXPECT_EQ(d.base_task_count(), t * t * t);
  EXPECT_EQ(f.base_task_count(), t * t * t);
}

TEST_P(BuilderSweep, SwShapes) {
  const std::size_t t = GetParam();
  const auto d = df(benchmark_id::sw, t, 8);
  const auto f = fj(benchmark_id::sw, t, 8);
  d.validate();
  f.validate();
  EXPECT_EQ(d.base_task_count(), t * t);
  EXPECT_EQ(f.base_task_count(), t * t);
}

INSTANTIATE_TEST_SUITE_P(TileCounts, BuilderSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

// ------------------- the paper's span claims (§III-B) ---------------------

TEST(SpanClaims, SwDataflowSpanIsWavefront) {
  // Data-flow SW: critical path = 2T-1 tiles of b^2 work each.
  for (std::size_t t : {4ull, 16ull, 64ull}) {
    EXPECT_DOUBLE_EQ(span_of(df(benchmark_id::sw, t, 8)),
                     static_cast<double>((2 * t - 1) * 64));
  }
}

TEST(SpanClaims, SwForkjoinSpanIsPowerLog3) {
  // Fork-join SW: R(X) = R00; {R01 ∥ R10}; R11 gives span(T) = 3·span(T/2)
  // => exactly 3^log2(T) base tasks on the critical path.
  for (std::size_t t : {4ull, 16ull, 64ull}) {
    const double expected =
        std::pow(3.0, std::log2(static_cast<double>(t))) * 64.0;
    EXPECT_DOUBLE_EQ(span_of(fj(benchmark_id::sw, t, 8)), expected)
        << "t=" << t;
  }
}

TEST(SpanClaims, ForkJoinSpanStrictlyWorseThanDataflow) {
  // The artificial dependencies must show up as a strictly longer critical
  // path for every benchmark once there are enough tiles.
  for (std::size_t t : {8ull, 16ull, 32ull}) {
    for (const benchmark_id bm :
         {benchmark_id::sw, benchmark_id::ge, benchmark_id::fw}) {
      const double gap = span_of(fj(bm, t, 8)) / span_of(df(bm, t, 8));
      EXPECT_GT(gap, 1.0) << dp::to_string(bm) << " t=" << t;
    }
  }
}

TEST(SpanClaims, SwForkjoinGapGrowsWithProblemSize) {
  // span ratio ~ T^(log2 3 - 1): increasing — the asymptotic separation.
  double prev = 0;
  for (std::size_t t : {4ull, 8ull, 16ull, 32ull, 64ull}) {
    const double gap = span_of(fj(benchmark_id::sw, t, 8)) /
                       span_of(df(benchmark_id::sw, t, 8));
    EXPECT_GT(gap, prev);
    prev = gap;
  }
}

TEST(SpanClaims, GeDataflowParallelismGrowsQuadratically) {
  // GE data-flow average parallelism is Θ(T²)·work-weighted; just assert
  // substantial growth between T=8 and T=32.
  const auto p8 = analyze_work_span(df(benchmark_id::ge, 8, 8)).parallelism();
  const auto p32 =
      analyze_work_span(df(benchmark_id::ge, 32, 8)).parallelism();
  EXPECT_GT(p32, 4 * p8);
}

TEST(DotExport, RendersSmallGraph) {
  const auto g = df(benchmark_id::sw, 2, 4);
  std::ostringstream os;
  g.write_dot(os, "sw2");
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(DotExport, RefusesHugeGraph) {
  const auto g = df(benchmark_id::fw, 32, 8);  // 32768 nodes
  std::ostringstream os;
  EXPECT_THROW(g.write_dot(os, "big"), contract_error);
}

// ----------------------------------------- r-way fork-join DAGs ----------

task_graph rway(benchmark_id bm, std::size_t t, std::size_t b, std::size_t r) {
  return forkjoin_dag(*dp::make_tile_scale_spec(bm, t), b, r);
}

/// The benchmarks the r-way DAGs are checked for, each with the largest
/// tile count the sweep builds (FW's T³ base tasks cap it lower).
struct rway_case {
  benchmark_id bm;
  std::size_t max_tiles;
};
constexpr rway_case k_rway_cases[] = {{benchmark_id::ge, 64},
                                      {benchmark_id::sw, 64},
                                      {benchmark_id::fw, 16}};

/// The branching factors r with t == r^L, ascending (t itself last).
std::vector<std::size_t> ways(std::size_t t) {
  std::vector<std::size_t> out;
  for (std::size_t r = 2; r <= t; ++r)
    if (dp::splits_evenly(t, 1, r)) out.push_back(r);
  return out;
}

TEST(RwayBuilder, CoversTheSameBaseTasksAsTwoWay) {
  for (const rway_case c : k_rway_cases) {
    for (std::size_t t : {4ull, 16ull, 64ull}) {
      if (t > c.max_tiles) continue;
      const task_graph d = df(c.bm, t, 16);
      for (const std::size_t r : ways(t)) {
        SCOPED_TRACE(std::string(dp::to_string(c.bm)) + " t=" +
                     std::to_string(t) + " r=" + std::to_string(r));
        const auto g = rway(c.bm, t, 16, r);
        g.validate();
        EXPECT_EQ(base_nodes(g), base_nodes(d));
        // Work conservation across branching factors.
        EXPECT_DOUBLE_EQ(analyze_work_span(g).total_work,
                         analyze_work_span(d).total_work);
      }
    }
  }
}

TEST(RwayBuilder, TwoWayMatchesDedicatedBuilderSpan) {
  // r = 2 is the default fork-join DAG, node for node.
  for (const rway_case c : k_rway_cases) {
    for (std::size_t t : {8ull, 16ull}) {
      EXPECT_EQ(shape_of(rway(c.bm, t, 32, 2)), shape_of(fj(c.bm, t, 32)))
          << dp::to_string(c.bm) << " t=" << t;
    }
  }
}

TEST(RwayBuilder, SpanDecreasesMonotonicallyInR) {
  for (const rway_case c : k_rway_cases) {
    const std::size_t t = c.max_tiles;
    double prev = 1e300;
    for (const std::size_t r : ways(t)) {
      const double span = span_of(rway(c.bm, t, 16, r));
      EXPECT_LE(span, prev) << dp::to_string(c.bm) << " r=" << r;
      if (c.bm == benchmark_id::ge) {
        EXPECT_LT(span, prev) << "r=" << r;
      }
      prev = span;
    }
  }
}

TEST(RwayBuilder, FullWidthReachesTheDataflowSpan) {
  // r == tiles is the blocked schedule: one barrier per pivot phase (GE)
  // or per anti-diagonal (SW), which is exactly the data-flow critical
  // path.
  for (const benchmark_id bm : {benchmark_id::ge, benchmark_id::sw}) {
    for (std::size_t t : {4ull, 16ull, 64ull}) {
      EXPECT_DOUBLE_EQ(span_of(rway(bm, t, 16, t)), span_of(df(bm, t, 16)))
          << dp::to_string(bm) << " t=" << t;
    }
  }
}

TEST(RwayBuilder, RejectsNonConformingTileCounts) {
  EXPECT_THROW(rway(benchmark_id::ge, 24, 16, 4), contract_error);
  EXPECT_THROW(rway(benchmark_id::ge, 16, 16, 1), contract_error);
  EXPECT_THROW(rway(benchmark_id::sw, 12, 16, 2), contract_error);
  EXPECT_THROW(rway(benchmark_id::fw, 8, 16, 4), contract_error);
}

// Single-tile edge cases: every derivation must produce exactly one task.
TEST(Builders, SingleTileGraphs) {
  for (const benchmark_id bm :
       {benchmark_id::ge, benchmark_id::fw, benchmark_id::sw}) {
    EXPECT_EQ(df(bm, 1, 8).node_count(), 1u) << dp::to_string(bm);
    EXPECT_EQ(fj(bm, 1, 8).node_count(), 1u) << dp::to_string(bm);
  }
}

}  // namespace
