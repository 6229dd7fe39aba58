#include "exec/dag.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "support/assertions.hpp"
#include "support/math_utils.hpp"
#include "support/small_vector.hpp"

namespace rdp::exec {

using dp::task_kind;
using dp::tile3;
using dp::tile4;
using trace::k_no_node;
using trace::node_id;
using trace::node_type;
using trace::task_graph;

namespace {

/// Adds base-task nodes for tiles of one spec, labelled and priced per the
/// header.
struct base_nodes {
  const dp::recurrence& rec;
  std::uint64_t b;
  bool abcd = rec.structure() == dp::structure_kind::abcd_triangular ||
              rec.structure() == dp::structure_kind::abcd_full;

  node_id add(task_graph& g, const tile3& t) const {
    const task_kind kind =
        abcd ? dp::classify(t.i, t.j, t.k) : task_kind::D;
    return g.add_node(node_type::base_task, kind, t,
                      b == 0 ? 0 : rec.base_work(t, b));
  }
};

std::string key_text(const tile3& t) {
  std::string s = "(";
  s += std::to_string(t.i) + "," + std::to_string(t.j) + "," +
       std::to_string(t.k) + ")";
  return s;
}

tile3 coord(const tile4& t) { return {t.i, t.j, t.k}; }

/// Refuse a dependency cycle in O(V+E): Kahn's algorithm run backwards over
/// the dependency lists, peeling tiles no unpeeled tile depends on. A cycle
/// (a self-loop included) is never peeled, nor is anything it depends on.
void require_acyclic(const tile_dag& dag, const std::string& name) {
  const std::uint32_t count = dag.tile_count();
  std::vector<std::uint32_t> consumers(count, 0);
  for (const std::uint32_t slot : dag.dep_slots)
    if (slot < count) ++consumers[slot];
  std::vector<std::uint32_t> peelable;
  for (std::uint32_t t = 0; t < count; ++t)
    if (consumers[t] == 0) peelable.push_back(t);
  std::uint32_t peeled = 0;
  while (!peelable.empty()) {
    const std::uint32_t t = peelable.back();
    peelable.pop_back();
    ++peeled;
    for (const std::uint32_t slot : dag.deps(t))
      if (slot < count && --consumers[slot] == 0) peelable.push_back(slot);
  }
  RDP_REQUIRE_MSG(peeled == count,
                  name + ": depends() forms a dependency cycle (" +
                      std::to_string(count - peeled) + " of " +
                      std::to_string(count) +
                      " base tiles lie on or before it), so no executor "
                      "could ever run them");
}

/// Series-parallel fragment: entry and exit node of a sub-DAG.
struct fragment {
  node_id entry;
  node_id exit;
};

/// Shared machinery for the symbolic fork-join recursions. Sizes are in
/// tile units (the recursion bottoms out at 1 tile == one base task).
struct fj_builder {
  task_graph g;
  base_nodes nodes;

  fragment leaf(std::int32_t ti, std::int32_t tj, std::int32_t tk) {
    const node_id v = nodes.add(g, tile3{ti, tj, tk});
    return {v, v};
  }

  /// Sequential composition: b starts only after a (taskwait in between
  /// or plain program order).
  fragment seq(fragment a, fragment b) {
    g.add_edge(a.exit, b.entry);
    return {a.entry, b.exit};
  }

  /// Parallel composition with a spawn fork and a taskwait join.
  template <class Parts>
  fragment fork_join(const Parts& parts) {
    RDP_ASSERT(!parts.empty());
    if (parts.size() == 1) return parts[0];
    const node_id f = g.add_node(node_type::fork);
    const node_id j = g.add_node(node_type::join);
    for (const fragment& p : parts) {
      g.add_edge(f, p.entry);
      g.add_edge(p.exit, j);
    }
    return {f, j};
  }
};

/// The split() recursion, symbolically: each stage's children are lowered
/// first, then joined into one fragment, then chained after the previous
/// stage — the node order of run_forkjoin's spawn/taskwait structure.
struct split_fj : fj_builder {
  fragment lower(const tile4& t) {
    if (nodes.rec.is_base(t)) return leaf(t.i, t.j, t.k);
    const dp::split_plan plan = nodes.rec.split(t);
    fragment acc{k_no_node, k_no_node};
    for (std::size_t s = 0; s < plan.stage_count; ++s) {
      small_vector<fragment, dp::split_plan::max_children> parts;
      for (std::size_t c = plan.stage_begin(s); c < plan.stage_end[s]; ++c)
        parts.push_back(lower(plan.children[c]));
      const fragment stage = fork_join(parts);
      acc = s == 0 ? stage : seq(acc, stage);
    }
    return acc;
  }
};

/// r-way GE fork-join recursion (mirrors exec/rway.cpp's rway_recursion
/// with triangular guards), symbolically.
struct ge_rway_fj : fj_builder {
  std::size_t r;

  fragment seq_stage(fragment acc, std::vector<fragment>&& parts) {
    if (parts.empty()) return acc;
    return seq(acc, fork_join(parts));
  }

  fragment A(std::int32_t d, std::int32_t s) {
    if (s == 1) return leaf(d, d, d);
    const auto h = static_cast<std::int32_t>(s / r);
    const auto ri = static_cast<std::int32_t>(r);
    fragment acc{k_no_node, k_no_node};
    bool first = true;
    auto append = [&](fragment f) {
      acc = first ? f : seq(acc, f);
      first = false;
    };
    for (std::int32_t kk = 0; kk < ri; ++kk) {
      const std::int32_t dk = d + kk * h;
      append(A(dk, h));
      std::vector<fragment> bc;
      for (std::int32_t jj = kk + 1; jj < ri; ++jj)
        bc.push_back(B(dk, d + jj * h, dk, h));
      for (std::int32_t ii = kk + 1; ii < ri; ++ii)
        bc.push_back(C(d + ii * h, dk, dk, h));
      acc = seq_stage(acc, std::move(bc));
      std::vector<fragment> ds;
      for (std::int32_t ii = kk + 1; ii < ri; ++ii)
        for (std::int32_t jj = kk + 1; jj < ri; ++jj)
          ds.push_back(D(d + ii * h, d + jj * h, dk, h));
      acc = seq_stage(acc, std::move(ds));
    }
    return acc;
  }

  fragment B(std::int32_t xi, std::int32_t xj, std::int32_t xk,
             std::int32_t s) {
    if (s == 1) return leaf(xi, xj, xk);
    const auto h = static_cast<std::int32_t>(s / r);
    const auto ri = static_cast<std::int32_t>(r);
    fragment acc{k_no_node, k_no_node};
    bool first = true;
    for (std::int32_t kk = 0; kk < ri; ++kk) {
      const std::int32_t k0 = xk + kk * h;
      std::vector<fragment> bs;
      for (std::int32_t jj = 0; jj < ri; ++jj)
        bs.push_back(B(k0, xj + jj * h, k0, h));
      const fragment bstage = fork_join(bs);
      acc = first ? bstage : seq(acc, bstage);
      first = false;
      std::vector<fragment> ds;
      for (std::int32_t ii = kk + 1; ii < ri; ++ii)
        for (std::int32_t jj = 0; jj < ri; ++jj)
          ds.push_back(D(xi + ii * h, xj + jj * h, k0, h));
      acc = seq_stage(acc, std::move(ds));
    }
    return acc;
  }

  fragment C(std::int32_t xi, std::int32_t xj, std::int32_t xk,
             std::int32_t s) {
    if (s == 1) return leaf(xi, xj, xk);
    const auto h = static_cast<std::int32_t>(s / r);
    const auto ri = static_cast<std::int32_t>(r);
    fragment acc{k_no_node, k_no_node};
    bool first = true;
    for (std::int32_t kk = 0; kk < ri; ++kk) {
      const std::int32_t k0 = xk + kk * h;
      std::vector<fragment> cs;
      for (std::int32_t ii = 0; ii < ri; ++ii)
        cs.push_back(C(xi + ii * h, k0, k0, h));
      const fragment cstage = fork_join(cs);
      acc = first ? cstage : seq(acc, cstage);
      first = false;
      std::vector<fragment> ds;
      for (std::int32_t jj = kk + 1; jj < ri; ++jj)
        for (std::int32_t ii = 0; ii < ri; ++ii)
          ds.push_back(D(xi + ii * h, xj + jj * h, k0, h));
      acc = seq_stage(acc, std::move(ds));
    }
    return acc;
  }

  fragment D(std::int32_t xi, std::int32_t xj, std::int32_t xk,
             std::int32_t s) {
    if (s == 1) return leaf(xi, xj, xk);
    const auto h = static_cast<std::int32_t>(s / r);
    const auto ri = static_cast<std::int32_t>(r);
    fragment acc{k_no_node, k_no_node};
    bool first = true;
    for (std::int32_t kk = 0; kk < ri; ++kk) {
      std::vector<fragment> ds;
      for (std::int32_t ii = 0; ii < ri; ++ii)
        for (std::int32_t jj = 0; jj < ri; ++jj)
          ds.push_back(D(xi + ii * h, xj + jj * h, xk + kk * h, h));
      const fragment dstage = fork_join(ds);
      acc = first ? dstage : seq(acc, dstage);
      first = false;
    }
    return acc;
  }
};

}  // namespace

tile_box::tile_box(const dp::recurrence& rec) {
  auto grow = [&](const tile4& t) { include(coord(t)); };
  rec.enumerate_base(dp::tag_sink(grow));
  RDP_REQUIRE_MSG(!empty(), std::string(rec.name()) +
                                ": enumerate_base emitted no base tiles");
}

tile_box item_box(const dp::recurrence& rec) {
  const tile_box box(rec);
  return rec.value_passing() ? box.widened_below(1) : box;
}

tile_dag derive_tile_dag(const dp::recurrence& rec) {
  const std::string name = rec.name();
  tile_dag dag;
  auto emit = [&](const tile4& tag) { dag.tags.push_back(tag); };
  rec.enumerate_base(dp::tag_sink(emit));
  RDP_REQUIRE_MSG(!dag.tags.empty(),
                  name + ": enumerate_base emitted no base tiles");
  const std::uint32_t count = dag.tile_count();
  tile_box box;
  for (const tile4& t : dag.tags) box.include(coord(t));
  dag.index = tile_index(box);
  for (std::uint32_t t = 0; t < count; ++t) {
    std::uint32_t& slot = dag.index.at(coord(dag.tags[t]));
    RDP_REQUIRE_MSG(slot == tile_index::npos,
                    name + ": enumerate_base emitted tile " +
                        key_text(coord(dag.tags[t])) + " twice");
    slot = t;
  }

  // One depends() walk per tile. A produced key resolves to its tile; an
  // unproduced one is an environment seed, legal only when values pass
  // (a token graph signals over the problem table and would deadlock).
  const std::size_t max_deps = rec.max_dependencies();
  const bool seeded = rec.value_passing();
  dag.dep_begin.reserve(count + 1);
  dag.dep_begin.push_back(0);
  for (std::uint32_t t = 0; t < count; ++t) {
    const tile3 c = coord(dag.tags[t]);
    dep_list deps(max_deps);
    rec.depends(c, dp::dep_sink(deps));
    for (const tile3& key : deps.keys) {
      std::uint32_t slot = dag.index.find(key);
      if (slot == tile_index::npos) {
        RDP_REQUIRE_MSG(seeded, name + ": base tile " + key_text(c) +
                                    " depends on item " + key_text(key) +
                                    " that no base task produces, and a "
                                    "token graph cannot seed it from the "
                                    "environment");
        slot = dag.seed_slot
                   .try_emplace(key, count + static_cast<std::uint32_t>(
                                                 dag.seed_slot.size()))
                   .first->second;
      }
      dag.dep_slots.push_back(slot);
    }
    dag.dep_begin.push_back(static_cast<std::uint32_t>(dag.dep_slots.size()));
  }
  require_acyclic(dag, name);
  return dag;
}

task_graph dataflow_dag(const dp::recurrence& rec, std::size_t b) {
  const tile_dag dag = derive_tile_dag(rec);
  task_graph g;
  const base_nodes nodes{rec, b};
  std::vector<node_id> node_of(dag.tile_count());
  dag.index.for_each([&](std::uint32_t t) {
    node_of[t] = nodes.add(g, coord(dag.tags[t]));
  });
  dag.index.for_each([&](std::uint32_t t) {
    for (const std::uint32_t slot : dag.deps(t))
      if (slot < dag.tile_count()) g.add_edge(node_of[slot], node_of[t]);
  });
  return g;
}

task_graph forkjoin_dag(const dp::recurrence& rec, std::size_t b) {
  RDP_REQUIRE_MSG(is_pow2(rec.size() / rec.base()),
                  "fork-join DAG needs a power-of-two tile count");
  split_fj fj{{{}, {rec, b}}};
  fj.lower(rec.root());
  return std::move(fj.g);
}

task_graph build_ge_forkjoin_rway(const dp::recurrence& ge, std::size_t b,
                                  std::size_t r) {
  RDP_REQUIRE_MSG(ge.structure() == dp::structure_kind::abcd_triangular,
                  "the r-way DAG is GE's recursion");
  RDP_REQUIRE_MSG(r >= 2, "r-way recursion needs r >= 2");
  const std::size_t tiles = ge.size() / ge.base();
  std::size_t s = tiles;
  while (s > 1) {
    RDP_REQUIRE_MSG(s % r == 0, "tiles must be r^L");
    s /= r;
  }
  ge_rway_fj fj{{{}, {ge, b}}, r};
  fj.A(0, static_cast<std::int32_t>(tiles));
  return std::move(fj.g);
}

}  // namespace rdp::exec
