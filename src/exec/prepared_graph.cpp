#include "exec/prepared_graph.hpp"

#include <mutex>
#include <span>
#include <utility>

#include "concurrent/backoff.hpp"
#include "exec/banding.hpp"
#include "forkjoin/task.hpp"
#include "obs/metrics.hpp"
#include "support/assertions.hpp"
#include "support/small_vector.hpp"

namespace rdp::exec {

namespace {

/// Registry metrics of the prepared-graph runner: how often graphs are
/// frozen vs re-executed is exactly the amortisation the batch server
/// exists to demonstrate.
struct prepared_metrics_t {
  obs::counter& freezes;
  obs::counter& executions;
  obs::counter& nodes_run;
};

prepared_metrics_t& prepared_metrics() {
  auto& reg = obs::metrics_registry::instance();
  static prepared_metrics_t m{reg.get_counter("prepared.freezes"),
                              reg.get_counter("prepared.executions"),
                              reg.get_counter("prepared.nodes_run")};
  return m;
}

}  // namespace

// ---- freeze ----------------------------------------------------------------

prepared_graph::prepared_graph(const dp::recurrence& rec)
    : name_(rec.name()), n_(rec.size()), base_(rec.base()),
      value_passing_(rec.value_passing()), dag_(derive_tile_dag(rec)) {}

prepared_graph prepared_graph::freeze(dp::recurrence& rec) {
  // Node set: enumerate_base() emission order (== the manual-CnC
  // pre-declaration order, so traces line up across backends).
  prepared_graph g(rec);
  const tile_dag& dag = g.dag_;
  const std::uint32_t tile_count = dag.tile_count();

  // Unfused: one schedule node per tile (identity member lists), CSR edges
  // straight from the walked dependency slots. A tile with no in-graph
  // dependency is a root; the walk refused cycles, so there is one.
  g.members_.resize(tile_count);
  g.nodes_.resize(tile_count);
  std::vector<std::uint32_t> cursor(tile_count, 0);  // successor counts
  for (std::uint32_t idx = 0; idx < tile_count; ++idx) {
    g.members_[idx] = idx;
    node& nd = g.nodes_[idx];
    nd.member_begin = idx;
    nd.member_end = idx + 1;
    for (const std::uint32_t slot : dag.deps(idx)) {
      if (slot < tile_count) {
        ++cursor[slot];
        ++nd.initial_pending;
      }
    }
    if (nd.initial_pending == 0) g.roots_.push_back(idx);
  }

  // CSR successor lists: prefix sums, then a second pass over the walked
  // dependency slots. Consumers appear in node-index order per producer.
  std::uint32_t edges = 0;
  for (std::uint32_t idx = 0; idx < tile_count; ++idx) {
    node& nd = g.nodes_[idx];
    nd.succ_begin = edges;
    edges += cursor[idx];
    nd.succ_end = edges;
    cursor[idx] = nd.succ_begin;  // from here on: the next free entry
  }
  g.successors_.resize(edges);
  for (std::uint32_t idx = 0; idx < tile_count; ++idx)
    for (const std::uint32_t slot : dag.deps(idx))
      if (slot < tile_count) g.successors_[cursor[slot]++] = idx;

  prepared_metrics().freezes.add();
  return g;
}

prepared_graph prepared_graph::freeze_batched(
    dp::recurrence& rec, std::uint32_t chunk_parallelism) {
  // The same walk as freeze(), so the value plane and the seed/gather
  // lookups are laid out identically — only the schedule nodes coarsen.
  prepared_graph g(rec);
  band_plan plan = build_band_plan(g.dag_, rec.structure());
  const chunk_table chunks = build_chunks(plan, chunk_parallelism);
  const auto node_count = static_cast<std::uint32_t>(chunks.chunks.size());

  g.members_ = plan.members;
  g.nodes_.resize(node_count);

  // Band-barrier edges: every chunk of a predecessor band precedes every
  // chunk of the successor band, so a chunk's initial_pending is the total
  // chunk count of its band's (deduped) predecessor bands.
  std::vector<std::uint32_t> band_pending(plan.band_count, 0);
  std::vector<std::uint32_t> succ_count(node_count, 0);
  for (std::uint32_t b = 0; b < plan.band_count; ++b) {
    std::uint32_t fan_out = 0;
    for (std::uint32_t s = plan.succ_begin[b]; s < plan.succ_begin[b + 1];
         ++s) {
      const std::uint32_t succ_band = plan.succ[s];
      band_pending[succ_band] += chunks.chunk_count(b);
      fan_out += chunks.chunk_count(succ_band);
    }
    for (std::uint32_t c = chunks.first_chunk[b];
         c < chunks.first_chunk[b + 1]; ++c)
      succ_count[c] = fan_out;
  }

  std::uint32_t edges = 0;
  for (std::uint32_t c = 0; c < node_count; ++c) {
    const chunk_ref& ch = chunks.chunks[c];
    node& nd = g.nodes_[c];
    nd.member_begin = ch.member_begin;
    nd.member_end = ch.member_end;
    nd.initial_pending = band_pending[ch.band];
    nd.succ_begin = edges;
    edges += succ_count[c];
    nd.succ_end = edges;
  }
  g.successors_.resize(edges);
  for (std::uint32_t b = 0; b < plan.band_count; ++b) {
    std::uint32_t cursor = 0;
    for (std::uint32_t s = plan.succ_begin[b]; s < plan.succ_begin[b + 1];
         ++s) {
      const std::uint32_t succ_band = plan.succ[s];
      for (std::uint32_t t = chunks.first_chunk[succ_band];
           t < chunks.first_chunk[succ_band + 1]; ++t, ++cursor)
        for (std::uint32_t c = chunks.first_chunk[b];
             c < chunks.first_chunk[b + 1]; ++c)
          g.successors_[g.nodes_[c].succ_begin + cursor] = t;
    }
  }

  // Band edges point strictly forward, so band 0's chunks are roots.
  for (std::uint32_t c = 0; c < node_count; ++c)
    if (g.nodes_[c].initial_pending == 0) g.roots_.push_back(c);

  prepared_metrics().freezes.add();
  return g;
}

bool prepared_graph::matches(const dp::recurrence& rec) const noexcept {
  return name_ == rec.name() && n_ == rec.size() && base_ == rec.base() &&
         value_passing_ == rec.value_passing();
}

void prepared_graph::execute(dp::recurrence& rec,
                             forkjoin::worker_pool& pool) const {
  prepared_execution ex(*this, rec, pool);
  ex.start();
  ex.wait();
}

// ---- execution -------------------------------------------------------------

/// Seed store: routes the spec's environment items into their frozen value
/// slots. Seeding a key no base task reads is tolerated (dropped) — the
/// spec layer seeds boundary items unconditionally; the frozen graph knows
/// which ones this (n, base) actually consumes.
struct prepared_execution::seed_store final : dp::value_store {
  prepared_execution& ex;
  explicit seed_store(prepared_execution& e) : ex(e) {}

  void put(const dp::tile3& key, dp::tile_value v) override {
    const tile_dag& dag = ex.graph_.dag_;
    const std::uint32_t slot = dag.slot_of(key);
    if (slot == tile_index::npos) return;
    RDP_REQUIRE_MSG(slot >= dag.tile_count(),
                    ex.graph_.name_ +
                        ": environment seed collides with a produced item");
    ex.values_[slot] = std::move(v);
  }
  dp::tile_value get(const dp::tile3&) override {
    RDP_REQUIRE_MSG(false, "seed_values must not read items");
    return {};
  }
};

/// Gather store: after quiescence, the spec reads final items back into the
/// problem table straight from the value plane.
struct prepared_execution::gather_store final : dp::value_store {
  prepared_execution& ex;
  explicit gather_store(prepared_execution& e) : ex(e) {}

  void put(const dp::tile3&, dp::tile_value) override {
    RDP_REQUIRE_MSG(false, "gather_values must not put items");
  }
  dp::tile_value get(const dp::tile3& key) override {
    const std::uint32_t slot = ex.graph_.dag_.slot_of(key);
    RDP_REQUIRE_MSG(slot != tile_index::npos,
                    ex.graph_.name_ + ": gather of an item the frozen graph "
                                      "never materialised");
    return ex.values_[slot];
  }
};

prepared_execution::prepared_execution(const prepared_graph& graph,
                                       dp::recurrence& rec,
                                       forkjoin::worker_pool& pool)
    : graph_(graph), rec_(rec), pool_(pool) {
  RDP_REQUIRE_MSG(graph_.matches(rec_),
                  std::string(rec_.name()) +
                      ": recurrence does not match the frozen graph's "
                      "structure (name/size/base/value-passing)");
  const std::size_t count = graph_.nodes_.size();
  pending_ = std::make_unique<std::atomic<std::uint32_t>[]>(count);
  for (std::size_t i = 0; i < count; ++i)
    pending_[i].store(graph_.nodes_[i].initial_pending,
                      std::memory_order_relaxed);
  if (graph_.value_passing_)
    values_.resize(graph_.tile_count() + graph_.seed_slot_count());
  remaining_.store(count, std::memory_order_relaxed);
}

prepared_execution::~prepared_execution() {
  RDP_ASSERT(!started_ || done());
}

void prepared_execution::set_on_complete(std::function<void()> fn) {
  RDP_ASSERT(!started_);
  on_complete_ = std::move(fn);
}

void prepared_execution::start() {
  RDP_REQUIRE_MSG(!started_, "prepared_execution::start called twice");
  started_ = true;
  if (graph_.value_passing_) {
    seed_store store(*this);
    rec_.seed_values(store);
  }
  prepared_metrics().executions.add();
  for (const std::uint32_t root : graph_.roots_) {
    pool_.enqueue(forkjoin::make_task(
        [this, root] { run_node(root); }, nullptr));
  }
}

void prepared_execution::run_node(std::uint32_t idx) noexcept {
  const prepared_graph::node& nd = graph_.nodes_[idx];
  // After a kernel error the rest of the DAG still counts down (so the run
  // terminates and the pool is left clean) but skips its kernels.
  if (!failed_.load(std::memory_order_acquire)) {
    try {
      for (std::uint32_t m = nd.member_begin; m < nd.member_end; ++m) {
        const std::uint32_t tile = graph_.members_[m];
        const tile_dag& dag = graph_.dag_;
        const dp::tile4& tag = dag.tags[tile];
        if (graph_.value_passing_) {
          const std::span<const std::uint32_t> slots = dag.deps(tile);
          rdp::small_vector<dp::tile_value, dp::typical_dependency_arity>
              deps;
          deps.reserve(slots.size());
          for (const std::uint32_t slot : slots) deps.push_back(values_[slot]);
          const dp::tile3 coord{tag.i, tag.j, tag.k};
          dp::tile_value out = rec_.run_base_value(coord, deps.data());
          RDP_ASSERT(out != nullptr);
          values_[tile] = std::move(out);
        } else {
          rec_.run_base(tag);
        }
        executed_.fetch_add(1, std::memory_order_relaxed);
        prepared_metrics().nodes_run.add();
      }
    } catch (...) {
      {
        std::scoped_lock lock(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      failed_.store(true, std::memory_order_release);
    }
  }
  retire(idx);
}

void prepared_execution::retire(std::uint32_t idx) noexcept {
  const prepared_graph::node& nd = graph_.nodes_[idx];
  for (std::uint32_t s = nd.succ_begin; s < nd.succ_end; ++s) {
    const std::uint32_t succ = graph_.successors_[s];
    // acq_rel: the release publishes this node's table/value writes to the
    // consumer; the acquire on the final decrement makes every producer's
    // writes visible before the consumer's kernel runs.
    if (pending_[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pool_.enqueue(forkjoin::make_task(
          [this, succ] { run_node(succ); }, nullptr));
    }
  }
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last node: run the epilogue, publish done, fire the callback. The
    // callback is the very last touch of any member — the owner may retire
    // this object as soon as done() reads true.
    if (graph_.value_passing_ && !failed_.load(std::memory_order_acquire)) {
      try {
        gather_store store(*this);
        rec_.gather_values(store);
      } catch (...) {
        std::scoped_lock lock(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    std::function<void()> fn = std::move(on_complete_);
    done_.store(true, std::memory_order_release);
    if (fn) fn();
  }
}

void prepared_execution::wait() {
  RDP_REQUIRE_MSG(started_, "prepared_execution::wait before start");
  concurrent::backoff bo;
  while (!done()) {
    if (pool_.try_run_one()) {
      bo.reset();
      continue;
    }
    bo.pause();
  }
  if (std::exception_ptr e = error()) std::rethrow_exception(e);
}

std::exception_ptr prepared_execution::error() const noexcept {
  std::scoped_lock lock(error_mutex_);
  return first_error_;
}

}  // namespace rdp::exec
