// Data-flow lowering: generate a CnC graph from a recurrence spec.
//
// One step collection, one tag collection, one item collection — the task
// kind is derived from the tag coordinates (classify), so per-kind
// collections would partition the very same key space without changing any
// counter: tags are still put exactly once each (memoisation off), item
// keys of different kinds never collide, and all context_stats counters are
// context-level. Collection names derive from the spec
// ("<name>_step/_tags/_items"), which is what the obs/trace labels show.
//
// Items live in a dense slot store (cnc::dense_slots) over item_box(rec):
// the bounding box of the spec's base tags, one k-layer deeper for a
// value-passing spec's seeds. It is sized once per context from one
// enumerate_base() walk; a key outside it is refused (key_out_of_range),
// and no get, put or park allocates.
//
// Non-base tags expand into their 2-way children (split(t, 2)) in
// split_plan's flattened order (equal to the retired per-benchmark
// tag-emission order). Base tags get
// their dependencies in depends() emission order — blocking gets for the
// native/tuner/manual variants, try_get polling with short-circuit plus
// respawn for the nonblocking variant — then run the base kernel (token
// graphs) or compute a fresh tile from the read values (value-passing
// graphs) and put their output item with its get count when get-count GC
// is enabled (preschedule tuners only). The counts come from
// exec::consumer_counts — derived from depends(), built once per context
// and only when GC is on.
#include "exec/backend.hpp"

#include <cstdint>
#include <exception>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cnc/cnc.hpp"
#include "dp/common.hpp"
#include "exec/dag.hpp"
#include "obs/metrics.hpp"
#include "support/assertions.hpp"
#include "support/small_vector.hpp"

namespace rdp::exec {

namespace {

/// Registry metrics specific to the spec lowering (the cnc.* family counts
/// the collection operations underneath): step mix and dependency fan-in.
struct df_metrics_t {
  obs::counter& base_steps;
  obs::counter& expand_steps;
  obs::histogram& dep_fanin;
};

df_metrics_t& df_metrics() {
  auto& reg = obs::metrics_registry::instance();
  static df_metrics_t m{reg.get_counter("dataflow.base_steps"),
                        reg.get_counter("dataflow.expand_steps"),
                        reg.get_histogram("dataflow.dep_fanin")};
  return m;
}

template <class Value>
struct df_context;

template <class Ctx>
struct df_step {
  int execute(const dp::tile4& t, Ctx& ctx) const;
  void depends(const dp::tile4& t, Ctx& ctx,
               cnc::dependency_collector& dc) const;
};

cnc::schedule_policy policy_for(dp::cnc_variant variant) {
  return (variant == dp::cnc_variant::tuner ||
          variant == dp::cnc_variant::manual)
             ? cnc::schedule_policy::preschedule
             : cnc::schedule_policy::spawn_immediately;
}

template <class Value>
struct df_context : cnc::context<df_context<Value>> {
  using value_type = Value;

  dp::recurrence& rec;
  /// Poll-and-requeue instead of blocking gets.
  bool nonblocking;
  /// Get-count GC requires every consumer to run its gets exactly once:
  /// true for the preschedule tuners, not for abort-and-re-execute (native)
  /// or poll-and-requeue (nonblocking) execution.
  bool collect;

  /// The item store's key box and, when collecting, every key's get count.
  tile_box box;
  std::vector<std::uint32_t> counts;

  cnc::step_collection<df_context, df_step<df_context>, dp::tile4> steps;
  // Recursive expansion puts each tag exactly once -> memoisation off.
  cnc::tag_collection<dp::tile4> tags;
  cnc::item_collection<dp::tile3, Value,
                       cnc::dense_slots<dp::tile3, Value, tile_box>>
      items;

  df_context(dp::recurrence& r, const dataflow_options& opts)
      : cnc::context<df_context<Value>>(*opts.pool), rec(r),
        nonblocking(opts.variant == dp::cnc_variant::nonblocking),
        collect(opts.variant == dp::cnc_variant::tuner ||
                opts.variant == dp::cnc_variant::manual),
        box(item_box(r)),
        counts(collect ? consumer_counts(r, box)
                       : std::vector<std::uint32_t>{}),
        steps(*this, std::string(r.name()) + "_step", df_step<df_context>{},
              policy_for(opts.variant)),
        tags(*this, std::string(r.name()) + "_tags", false),
        items(*this, std::string(r.name()) + "_items", box) {
    tags.prescribe(steps);
  }

  /// 0 (keep) when not collecting, and for a key outside the box, whose
  /// put the store refuses.
  std::uint32_t count_for(const dp::tile3& t) const {
    const std::size_t at = collect ? box.offset(t) : tile_box::npos;
    return at == tile_box::npos ? 0 : counts[at];
  }
};

template <class Ctx>
int df_step<Ctx>::execute(const dp::tile4& t, Ctx& ctx) const {
  using Value = typename Ctx::value_type;
  if (!ctx.rec.is_base(t)) {
    df_metrics().expand_steps.add();
    const dp::split_plan plan = ctx.rec.split(t, 2);
    for (const dp::tile4& child : plan.children) ctx.tags.put(child);
    return 0;
  }

  const dp::tile3 coord{t.i, t.j, t.k};
  dep_list deps;
  ctx.rec.depends(coord, dp::dep_sink(deps));

  rdp::small_vector<Value, dp::typical_dependency_arity> vals;
  vals.assign_default(deps.keys.size());
  if (ctx.nonblocking) {
    // Poll every input in order, short-circuiting on the first miss, and
    // requeue this tag through the scheduler's FIFO path when unready. A
    // respawned attempt re-polls inputs that already hit earlier — safe
    // for get-count accounting only because try_get never consumes a
    // declared get (item_collection counts blocking gets exclusively) AND
    // ctx.collect is never enabled for this variant (see df_context); either
    // property alone prevents a retry from double-decrementing a consumer
    // count and freeing an item early.
    RDP_ASSERT(!ctx.collect);
    bool ready = true;
    for (std::size_t d = 0; ready && d < deps.keys.size(); ++d)
      ready = ctx.items.try_get(deps.keys[d], vals[d]);
    if (!ready) {
      ctx.steps.respawn(t);
      return 0;
    }
  } else {
    // A miss parks this instance on the item (native: it re-executes from
    // the top when the item is put) and the step returns at once.
    for (std::size_t d = 0; d < deps.keys.size(); ++d)
      if (!ctx.items.get_or_park(deps.keys[d], vals[d])) return 0;
  }

  // Counted here — after the nonblocking readiness check and any blocking
  // gets — so requeued/re-executed attempts do not inflate the base-step
  // count or double-record the task's fan-in.
  df_metrics().base_steps.add();
  df_metrics().dep_fanin.record(deps.keys.size());

  if constexpr (std::is_same_v<Value, bool>) {
    ctx.rec.run_base(t);
    ctx.items.put(coord, true, ctx.count_for(coord));
  } else {
    Value out = ctx.rec.run_base_value(coord, vals.data());
    ctx.items.put(coord, std::move(out), ctx.count_for(coord));
  }
  return 0;
}

template <class Ctx>
void df_step<Ctx>::depends(const dp::tile4& t, Ctx& ctx,
                           cnc::dependency_collector& dc) const {
  if (!ctx.rec.is_base(t)) return;
  auto require = [&](const dp::tile3& key) { dc.require(ctx.items, key); };
  ctx.rec.depends({t.i, t.j, t.k}, dp::dep_sink(require));
}

/// value_store over a value-passing context's item collection, for the
/// spec's environment-side seed (before any tag) and gather (after wait).
template <class Ctx>
struct env_value_store final : dp::value_store {
  Ctx& ctx;

  explicit env_value_store(Ctx& c) : ctx(c) {}

  void put(const dp::tile3& key, dp::tile_value v) override {
    ctx.items.put(key, std::move(v), ctx.count_for(key));
  }
  dp::tile_value get(const dp::tile3& key) override {
    dp::tile_value out;
    ctx.items.get(key, out);  // environment get: helps the pool, counted
    return out;
  }
};

/// One execution of the control program: seed (value-passing), put the
/// root tag (or every base tag for manual pre-declaration), wait for
/// quiescence, gather.
template <class Value>
dp::cnc_run_info run_df(dp::recurrence& rec, const dataflow_options& opts) {
  df_context<Value> ctx(rec, opts);
  if constexpr (std::is_same_v<Value, dp::tile_value>) {
    env_value_store<df_context<Value>> store(ctx);
    rec.seed_values(store);
  }

  try {
    if (opts.variant == dp::cnc_variant::manual) {
      // Manual pre-scheduling (§III-D): enumerate every base task up front;
      // the tuner dispatches each one when its inputs exist.
      auto emit = [&](const dp::tile4& tag) { ctx.tags.put(tag); };
      rec.enumerate_base(dp::tag_sink(emit));
    } else {
      ctx.tags.put(rec.root());
    }
  } catch (...) {
    // A tag whose declaration failed (a depends() key the item store
    // refuses): the steps already dispatched still run against ctx, so
    // drain them; wait() reports the error.
    ctx.record_error(std::current_exception());
  }
  ctx.wait();

  if constexpr (std::is_same_v<Value, dp::tile_value>) {
    env_value_store<df_context<Value>> store(ctx);
    rec.gather_values(store);
  }
  return dp::cnc_run_info{ctx.stats(), ctx.items.size()};
}

}  // namespace

dp::cnc_run_info run_dataflow(dp::recurrence& rec,
                              const dataflow_options& opts) {
  RDP_REQUIRE_MSG(opts.pool != nullptr,
                  "run_dataflow needs a worker pool (dataflow_options::pool)");
  return rec.value_passing() ? run_df<dp::tile_value>(rec, opts)
                             : run_df<bool>(rec, opts);
}

}  // namespace rdp::exec
