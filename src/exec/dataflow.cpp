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
// Non-base tags expand into their children in split_plan's flattened order
// (equal to the retired per-benchmark tag-emission order). Base tags get
// their dependencies in depends() emission order — blocking gets for the
// native/tuner/manual variants, try_get polling with short-circuit plus
// respawn for the nonblocking variant — then run the base kernel (token
// graphs) or compute a fresh tile from the read values (value-passing
// graphs) and put their output item with the spec's consumer count when
// get-count GC is enabled (preschedule tuners only).
//
// The batched variant trades generality for per-tile overhead: the
// recursion is not expanded at all. exec/banding.hpp groups the base tiles
// into dependency bands at lowering time, each band is cut into at most
// `workers` fused chunk steps, and per-tile tag puts / waiter parking
// collapse into one atomic predecessor counter per band. A chunk's tag is
// only put after every producer band completed, so its blocking gets always
// hit and a fused step never aborts or re-executes (re-running
// non-idempotent token kernels would corrupt the table).
#include "exec/backend.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "cnc/cnc.hpp"
#include "dp/common.hpp"
#include "exec/banding.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "support/assertions.hpp"
#include "support/small_vector.hpp"

namespace rdp::exec {

namespace {

/// Registry metrics specific to the spec lowering (the cnc.* family counts
/// the collection operations underneath): step mix, dependency fan-in, and
/// how many per-tile steps the batched variant fused away.
struct df_metrics_t {
  obs::counter& base_steps;
  obs::counter& expand_steps;
  obs::counter& steps_fused;
  obs::histogram& dep_fanin;
};

df_metrics_t& df_metrics() {
  auto& reg = obs::metrics_registry::instance();
  static df_metrics_t m{reg.get_counter("dataflow.base_steps"),
                        reg.get_counter("dataflow.expand_steps"),
                        reg.get_counter("dataflow.steps_fused"),
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

  cnc::step_collection<df_context, df_step<df_context>, dp::tile4> steps;
  // Recursive expansion puts each tag exactly once -> memoisation off.
  cnc::tag_collection<dp::tile4> tags;
  cnc::item_collection<dp::tile3, Value> items;

  /// Per-spec dependency fan-in bound (a spec-consistency guard for the
  /// collectors below, not a buffer capacity — lists of any length work).
  std::size_t max_deps = 0;

  df_context(dp::recurrence& r, const dataflow_options& opts)
      : cnc::context<df_context<Value>>(opts.pool, opts.workers), rec(r),
        nonblocking(opts.variant == dp::cnc_variant::nonblocking),
        collect(opts.variant == dp::cnc_variant::tuner ||
                opts.variant == dp::cnc_variant::manual),
        steps(*this, std::string(r.name()) + "_step", df_step<df_context>{},
              policy_for(opts.variant)),
        tags(*this, std::string(r.name()) + "_tags", false),
        items(*this, std::string(r.name()) + "_items"),
        max_deps(r.max_dependencies()) {
    tags.prescribe(steps);
  }

  std::uint32_t count_for(const dp::tile3& t) const {
    return collect ? rec.consumer_count(t) : 0;
  }
};

/// Dependency keys of one base task. Variable arity: inline storage covers
/// the O(1)-fan-in specs, wider lists (Parenthesization's 2(J-I)) spill to
/// the heap instead of overflowing — the bound check against the spec's
/// declared max_dependencies() stays as a spec-consistency guard
/// (cross-checked against the real fan-in by dp::verify_spec), no longer a
/// capacity limit. This used to be a fixed array whose overflow silently
/// corrupted the step's ready count in Release.
struct dep_list {
  rdp::small_vector<dp::tile3, dp::typical_dependency_arity> keys;
  std::size_t limit;

  explicit dep_list(std::size_t lim) : limit(lim) {}
  void operator()(const dp::tile3& k) {
    RDP_REQUIRE_MSG(keys.size() < limit,
                    "base task emits more dependency keys than the spec's "
                    "max_dependencies() declares");
    keys.push_back(k);
  }
  void reset() { keys.clear(); }
};

template <class Ctx>
int df_step<Ctx>::execute(const dp::tile4& t, Ctx& ctx) const {
  using Value = typename Ctx::value_type;
  if (!ctx.rec.is_base(t)) {
    df_metrics().expand_steps.add();
    const dp::split_plan plan = ctx.rec.split(t);
    for (std::size_t c = 0; c < plan.child_count; ++c)
      ctx.tags.put(plan.children[c]);
    return 0;
  }

  const dp::tile3 coord{t.i, t.j, t.k};
  dep_list deps(ctx.max_deps);
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
    for (std::size_t d = 0; d < deps.keys.size(); ++d)
      ctx.items.get(deps.keys[d], vals[d]);
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

  if (opts.variant == dp::cnc_variant::manual) {
    // Manual pre-scheduling (§III-D): enumerate every base task up front;
    // the tuner dispatches each one when its inputs exist.
    auto emit = [&](const dp::tile4& tag) { ctx.tags.put(tag); };
    rec.enumerate_base(dp::tag_sink(emit));
  } else {
    ctx.tags.put(rec.root());
  }
  ctx.wait();

  if constexpr (std::is_same_v<Value, dp::tile_value>) {
    env_value_store<df_context<Value>> store(ctx);
    rec.gather_values(store);
  }
  return dp::cnc_run_info{ctx.stats(), ctx.items.size()};
}

// ---- batched lowering ------------------------------------------------------

template <class Value>
struct bd_context;

template <class Value>
struct bd_step {
  int execute(std::int32_t chunk, bd_context<Value>& ctx) const;
};

/// Context of the batched variant: the recursion is pre-banded
/// (exec/banding.hpp) and the tag space is chunk ids, not tiles. Dependency
/// tracking is two atomic counters per band — chunks still running, and
/// predecessor bands still incomplete.
template <class Value>
struct bd_context : cnc::context<bd_context<Value>> {
  using value_type = Value;

  dp::recurrence& rec;
  band_plan plan;
  chunk_table chunk_plan;
  std::unique_ptr<std::atomic<std::uint32_t>[]> preds_left;   // per band
  std::unique_ptr<std::atomic<std::uint32_t>[]> chunks_left;  // per band
  std::size_t max_deps = 0;
  std::uint16_t fused_trace_name = 0;

  cnc::step_collection<bd_context, bd_step<Value>, std::int32_t> steps;
  cnc::tag_collection<std::int32_t> tags;
  cnc::item_collection<dp::tile3, Value> items;

  bd_context(dp::recurrence& r, const dataflow_options& opts)
      : cnc::context<bd_context<Value>>(opts.pool, opts.workers), rec(r),
        plan(build_band_plan(r)),
        chunk_plan(build_chunks(
            plan, static_cast<std::uint32_t>(this->pool().worker_count()))),
        preds_left(
            std::make_unique<std::atomic<std::uint32_t>[]>(plan.band_count)),
        chunks_left(
            std::make_unique<std::atomic<std::uint32_t>[]>(plan.band_count)),
        max_deps(r.max_dependencies()),
        fused_trace_name(obs::tracer::instance().intern(
            std::string(r.name()) + "_step")),
        steps(*this, std::string(r.name()) + "_step", bd_step<Value>{},
              cnc::schedule_policy::spawn_immediately),
        tags(*this, std::string(r.name()) + "_tags", false),
        items(*this, std::string(r.name()) + "_items") {
    tags.prescribe(steps);
    for (std::uint32_t b = 0; b < plan.band_count; ++b) {
      preds_left[b].store(plan.in_degree[b], std::memory_order_relaxed);
      chunks_left[b].store(chunk_plan.chunk_count(b),
                           std::memory_order_relaxed);
    }
  }

  std::uint32_t count_for(const dp::tile3&) const { return 0; }

  void put_band(std::uint32_t band) {
    for (std::uint32_t c = chunk_plan.first_chunk[band];
         c < chunk_plan.first_chunk[band + 1]; ++c)
      tags.put(static_cast<std::int32_t>(c));
  }
};

template <class Value>
int bd_step<Value>::execute(std::int32_t chunk,
                            bd_context<Value>& ctx) const {
  const chunk_ref c =
      ctx.chunk_plan.chunks[static_cast<std::uint32_t>(chunk)];
  // Hoisted per-chunk buffers: cleared per member, so a heap allocation a
  // wide tile forces (fan-in past the inline capacity) happens once per
  // chunk, not once per tile.
  dep_list deps(ctx.max_deps);
  rdp::small_vector<Value, dp::typical_dependency_arity> vals;
  for (std::uint32_t m = c.member_begin; m < c.member_end; ++m) {
    const dp::tile4& tag = ctx.plan.tiles[ctx.plan.members[m]];
    const dp::tile3 coord{tag.i, tag.j, tag.k};
    deps.reset();
    ctx.rec.depends(coord, dp::dep_sink(deps));
    vals.assign_default(deps.keys.size());
    // Band gating guarantees every producer band completed before this
    // chunk's tag was put, so these blocking gets always hit: a fused step
    // never parks mid-chunk (an abort after some member kernels ran would
    // re-run non-idempotent token kernels on re-execution).
    for (std::size_t d = 0; d < deps.keys.size(); ++d)
      ctx.items.get(deps.keys[d], vals[d]);
    df_metrics().base_steps.add();
    df_metrics().dep_fanin.record(deps.keys.size());
    if constexpr (std::is_same_v<Value, bool>) {
      ctx.rec.run_base(tag);
      ctx.items.put(coord, true, 0);
    } else {
      Value out = ctx.rec.run_base_value(coord, vals.data());
      ctx.items.put(coord, std::move(out), 0);
    }
  }
  df_metrics().steps_fused.add(c.member_end - c.member_begin);
  RDP_TRACE_EVENT(obs::event_kind::step_fused, ctx.fused_trace_name, c.band,
                  c.member_end - c.member_begin);
  // Band countdown: the last chunk of this band retires the band, and
  // retiring the last predecessor of a successor band puts that band's
  // chunk tags. acq_rel on both counters: the release publishes this
  // chunk's item puts and table writes, the acquire on the final decrement
  // makes every sibling chunk's writes visible before successors run.
  if (ctx.chunks_left[c.band].fetch_sub(1, std::memory_order_acq_rel) == 1) {
    for (std::uint32_t s = ctx.plan.succ_begin[c.band];
         s < ctx.plan.succ_begin[c.band + 1]; ++s) {
      const std::uint32_t succ = ctx.plan.succ[s];
      if (ctx.preds_left[succ].fetch_sub(1, std::memory_order_acq_rel) == 1)
        ctx.put_band(succ);
    }
  }
  return 0;
}

template <class Value>
dp::cnc_run_info run_batched(dp::recurrence& rec,
                             const dataflow_options& opts) {
  bd_context<Value> ctx(rec, opts);
  if constexpr (std::is_same_v<Value, dp::tile_value>) {
    env_value_store<bd_context<Value>> store(ctx);
    rec.seed_values(store);
  }
  for (std::uint32_t b = 0; b < ctx.plan.band_count; ++b)
    if (ctx.plan.in_degree[b] == 0) ctx.put_band(b);
  ctx.wait();
  if constexpr (std::is_same_v<Value, dp::tile_value>) {
    env_value_store<bd_context<Value>> store(ctx);
    rec.gather_values(store);
  }
  return dp::cnc_run_info{ctx.stats(), ctx.items.size()};
}

}  // namespace

dp::cnc_run_info run_dataflow(dp::recurrence& rec,
                              const dataflow_options& opts) {
  if (opts.variant == dp::cnc_variant::batched)
    return rec.value_passing() ? run_batched<dp::tile_value>(rec, opts)
                               : run_batched<bool>(rec, opts);
  return rec.value_passing() ? run_df<dp::tile_value>(rec, opts)
                             : run_df<bool>(rec, opts);
}

}  // namespace rdp::exec
