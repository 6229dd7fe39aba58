#include "exec/dag.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/assertions.hpp"

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

/// The split() recursion at branching factor r, symbolically: each stage's
/// children are lowered first, then joined into one fragment (a fork and a
/// join node unless the stage has one child), then chained after the
/// previous stage — the node order of run_forkjoin's spawn/taskwait
/// structure.
struct split_fj {
  task_graph g;
  base_nodes nodes;
  std::size_t r;

  fragment lower(const tile4& t) {
    if (nodes.rec.is_base(t)) {
      const node_id v = nodes.add(g, coord(t));
      return {v, v};
    }
    const dp::split_plan plan = nodes.rec.split(t, r);
    fragment acc{k_no_node, k_no_node};
    small_vector<fragment, 8> parts;
    for (std::size_t s = 0; s < plan.stage_count(); ++s) {
      parts.clear();
      for (std::size_t c = plan.stage_begin(s); c < plan.stage_end[s]; ++c)
        parts.push_back(lower(plan.children[c]));
      const fragment stage = fork_join(parts);
      if (s > 0) g.add_edge(acc.exit, stage.entry);
      acc = {s == 0 ? stage.entry : acc.entry, stage.exit};
    }
    return acc;
  }

  fragment fork_join(const small_vector<fragment, 8>& parts) {
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

}  // namespace

tile_box::tile_box(const dp::recurrence& rec) {
  // One pass, with the bounds in locals: include() would test empty() and
  // reload and store both corners through `this` on every tag, across the
  // opaque sink call.
  constexpr std::int32_t lowest = INT32_MIN, highest = INT32_MAX;
  tile3 lo{highest, highest, highest}, hi{lowest, lowest, lowest};
  auto grow = [&lo, &hi](const tile4& t) {
    lo.i = std::min(lo.i, t.i), hi.i = std::max(hi.i, t.i);
    lo.j = std::min(lo.j, t.j), hi.j = std::max(hi.j, t.j);
    lo.k = std::min(lo.k, t.k), hi.k = std::max(hi.k, t.k);
  };
  rec.enumerate_base(dp::tag_sink(grow));
  RDP_REQUIRE_MSG(hi.i >= lo.i, std::string(rec.name()) +
                                    ": enumerate_base emitted no base tiles");
  lo_ = lo;
  hi_ = hi;
}

tile_box item_box(const dp::recurrence& rec) {
  const tile_box box(rec);
  return rec.value_passing() ? box.widened_below(1) : box;
}

std::vector<std::uint32_t> consumer_counts(const dp::recurrence& rec,
                                           const tile_box& box) {
  std::vector<std::uint32_t> counts(box.size(), 0);
  // Value-passing only: which keys are base outputs, and which of those a
  // later version of the same tile reads (not a final version).
  constexpr std::uint8_t produced = 1, superseded = 2;
  const bool gathered = rec.value_passing();
  std::vector<std::uint8_t> version(gathered ? box.size() : 0, 0);
  auto visit = [&](const tile4& tag) {
    const tile3 t = coord(tag);
    auto count = [&](const tile3& key) {
      const std::size_t at = box.offset(key);
      if (at == tile_box::npos) return;
      ++counts[at];
      if (gathered && key.i == t.i && key.j == t.j) version[at] |= superseded;
    };
    rec.depends(t, dp::dep_sink(count));
    const std::size_t at = box.offset(t);
    if (gathered && at != tile_box::npos) version[at] |= produced;
  };
  rec.enumerate_base(dp::tag_sink(visit));
  for (std::size_t at = 0; at < version.size(); ++at)
    if (version[at] == produced) ++counts[at];
  return counts;
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
  const bool seeded = rec.value_passing();
  dag.dep_begin.reserve(count + 1);
  dag.dep_begin.push_back(0);
  for (std::uint32_t t = 0; t < count; ++t) {
    const tile3 c = coord(dag.tags[t]);
    dep_list deps;
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

task_graph forkjoin_dag(const dp::recurrence& rec, std::size_t b,
                        std::size_t r) {
  RDP_REQUIRE_MSG(dp::splits_evenly(rec.size(), rec.base(), r),
                  "fork-join DAG needs a tile count of r^L");
  split_fj fj{{}, {rec, b}, r};
  fj.lower(rec.root());
  return std::move(fj.g);
}

}  // namespace rdp::exec
