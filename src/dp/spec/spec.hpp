// Recurrence-specification layer: each benchmark described ONCE, executed
// by every backend in src/exec.
//
// The paper's central comparison — the same recursive divide-&-conquer DP
// under fork-join vs data-flow scheduling — was previously only
// apples-to-apples by convention: each (benchmark × execution model) pair
// was hand-written, one recursive and one CnC implementation per
// benchmark. This layer factors out what those implementations shared:
//
//   * the r-way split rule, expressed as a *staged* child list
//     (split_plan) and written once per structure_kind, not per spec. The
//     stages are the fork-join joins; at r = 2 their flattened order
//     equals the data-flow tag emission order, so one plan drives serial
//     execution, task_group spawn/wait AND recursive CnC tag expansion;
//     wider r gives the shallower r-way recursions and, at r = n/base, the
//     blocked tiled schedule. (This equality is a property of the A/B/C/D,
//     wavefront and diagonal decompositions — checked mechanically by
//     dp::verify_spec (dp/verify/verify.hpp), which walks split() from
//     root() at r = 2 and r = n/base and requires the flattened order to
//     satisfy every depends() edge and each stage's children to be mutually
//     independent; see DESIGN.md §11.)
//   * the true-dependency function of a base tile (the depends() logic
//     formerly buried in each CnC implementation), emitted in the exact
//     get order of the retired implementations: write-write predecessor
//     first, then the read dependencies. It is the one description of the
//     DAG's edges: consumer counts (get-count garbage collection for the
//     single-execution tuners) and fan-in are derived from it
//     (exec/dag.hpp), never declared.
//   * the base-case kernel hook, routed through the dp/kernels.hpp
//     dispatch so RDP_KERNELS governs every variant.
//
// Execution-model policy (which backend, which CnC variant, worker counts,
// tile pinning) lives entirely in src/exec; no per-benchmark scheduling
// code remains outside it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cnc/context.hpp"  // context_stats
#include "dp/common.hpp"
#include "support/assertions.hpp"
#include "support/small_vector.hpp"

namespace rdp::dp {

/// The data-flow execution variants of §III-D / §IV-B. `nonblocking` is the
/// alternative get protocol the paper also evaluated ("profitable only for
/// smaller block sizes"): a step polls its inputs with try_get and, when
/// any is missing, requeues its own tag through the scheduler's FIFO path
/// instead of parking on a waiter list.
enum class cnc_variant { native, tuner, manual, nonblocking };

constexpr const char* to_string(cnc_variant v) {
  switch (v) {
    case cnc_variant::native: return "CnC";
    case cnc_variant::tuner: return "CnC_tuner";
    case cnc_variant::manual: return "CnC_manual";
    case cnc_variant::nonblocking: return "CnC_nonblocking";
  }
  return "?";
}

/// Outcome counters of one data-flow run (from the context's stats).
struct cnc_run_info {
  cnc::context_stats stats;
  /// Items still held by the collections when the run finished — 0 when
  /// get-count garbage collection reclaimed everything (FW tuner/manual).
  std::uint64_t items_live_at_end = 0;
};

/// Dependency/data shape of a recurrence — it selects the split rule
/// (recurrence::split) every recursive backend walks.
enum class structure_kind : std::uint8_t {
  /// GE: pivot round K touches only blocks with index > K (the update
  /// guards prune the rest).
  abcd_triangular,
  /// FW: every block is updated in every pivot round.
  abcd_full,
  /// SW & friends: tile (I,J) needs its north-west, north and west
  /// neighbours; k is unused (0) in tile coordinates.
  wavefront,
  /// Parenthesization: upper-triangular tile grid, tile (I,J) on diagonal
  /// d = J-I reads the full row segment (I,K) K<J and column segment
  /// (K,J) K>I — fan-in 2(J-I), growing with the diagonal (the paper's
  /// >O(1)-dependency class). k is unused (0) in tile coordinates.
  diagonal_3way,
};

constexpr const char* to_string(structure_kind s) {
  switch (s) {
    case structure_kind::abcd_triangular: return "abcd_triangular";
    case structure_kind::abcd_full: return "abcd_full";
    case structure_kind::wavefront: return "wavefront";
    case structure_kind::diagonal_3way: return "diagonal_3way";
  }
  return "?";
}

/// Inline (small-buffer) capacity hint for per-step dependency buffers:
/// lists up to this long stay allocation-free in the executors'
/// small_vectors. NOT a limit — depends() may emit any number of keys and
/// longer lists spill to the heap. Sized to cover every O(1)-fan-in spec
/// (GE's widest is 4) with headroom.
inline constexpr std::size_t typical_dependency_arity = 8;

/// The staged children of one non-base tag. Children within a stage are
/// independent (fork-join runs them under one task_group); stages run in
/// order. The inline capacity covers every 2-way plan (FW's funcA is the
/// widest: 8 children in 6 stages), so the r = 2 walk never allocates; a
/// wider plan (an r = 4 abcd plan holds up to 64 children, an r = T one
/// about T³/3) spills to the heap.
struct split_plan {
  small_vector<tile4, 8> children;
  small_vector<std::uint32_t, 6> stage_end;  // prefix sums into children

  std::size_t stage_count() const { return stage_end.size(); }
  std::size_t stage_begin(std::size_t s) const {
    return s == 0 ? 0 : stage_end[s - 1];
  }

  /// Append a child to the open stage.
  void add(const tile4& t) { children.push_back(t); }
  /// Close the open stage; a stage with no children is dropped.
  void end_stage() {
    if (children.size() > stage_begin(stage_count()))
      stage_end.push_back(static_cast<std::uint32_t>(children.size()));
  }
};

/// Whether a problem of side n splits r ways down to base exactly:
/// n == base * r^L for some L >= 0 (any r when n == base, else r >= 2).
constexpr bool splits_evenly(std::size_t n, std::size_t base, std::size_t r) {
  if (base == 0 || n < base) return false;
  if (r < 2) return n == base;
  while (n > base && n % r == 0) n /= r;
  return n == base;
}

/// Non-owning callback receiving the dependency keys of a base task.
class dep_sink {
 public:
  template <class F>
  explicit dep_sink(F& f)
      : obj_(&f), fn_([](void* o, const tile3& t) {
          (*static_cast<F*>(o))(t);
        }) {}
  void operator()(const tile3& t) const { fn_(obj_, t); }

 private:
  void* obj_;
  void (*fn_)(void*, const tile3&);
};

/// Non-owning callback receiving base-task tags (manual pre-declaration).
class tag_sink {
 public:
  template <class F>
  explicit tag_sink(F& f)
      : obj_(&f), fn_([](void* o, const tile4& t) {
          (*static_cast<F*>(o))(t);
        }) {}
  void operator()(const tile4& t) const { fn_(obj_, t); }

 private:
  void* obj_;
  void (*fn_)(void*, const tile4&);
};

/// Immutable b×b tile snapshot, shared between consumers without copying
/// (the item value of value-passing data-flow graphs).
using tile_value = std::shared_ptr<const std::vector<double>>;

/// The item store a value-passing spec seeds and gathers through (backed by
/// the data-flow backend's item collection).
class value_store {
 public:
  virtual void put(const tile3& key, tile_value v) = 0;
  virtual tile_value get(const tile3& key) = 0;

 protected:
  ~value_store() = default;
};

/// One declarative recurrence specification. Everything an executor needs:
/// the base tiles (enumerate_base), their true dependencies (depends), the
/// recursion shape (split, derived from structure()) and the base-case
/// kernel. Everything else about the DAG — consumer counts, fan-in — is
/// derived from enumerate_base() and depends(). Specs are cheap views over
/// the caller's problem data (matrix, sequences); they do not own it.
///
/// Base tasks are the tile4 tags with b <= base() — when size() splits
/// evenly (splits_evenly) the recursion hits b == base() exactly, so base
/// tile coordinates are tile indices at granularity base() and
/// (t.i*t.b, t.j*t.b, t.k*t.b) is the element-space origin of the region.
class recurrence {
 public:
  virtual ~recurrence() = default;

  /// Short benchmark name ("GE", "SW", "FW", ...) — the obs/trace labels of
  /// every backend derive from it.
  virtual const char* name() const = 0;
  virtual structure_kind structure() const = 0;
  /// Problem size n (table side; sequence length for SW).
  virtual std::size_t size() const = 0;
  /// Base-case tile side (divides size()).
  virtual std::size_t base() const = 0;

  bool is_base(const tile4& t) const {
    return static_cast<std::size_t>(t.b) <= base();
  }
  tile4 root() const {
    return {0, 0, 0, static_cast<std::int32_t>(size())};
  }

  /// r-way split of a non-base tag into staged children: the one split
  /// rule of each structure_kind (spec/split.cpp), for any r dividing t.b.
  /// At r = 2 the flattened child order is also the data-flow tag emission
  /// order (see file comment); at r = n/base one level reaches the base
  /// tiles, in the blocked round/wavefront/diagonal schedule. Virtual only
  /// so tests can perturb a plan; no spec overrides it.
  virtual split_plan split(const tile4& t, std::size_t r) const;

  /// Emit the item keys base task t reads, in the exact order the
  /// data-flow base step performs its gets: the write-write predecessor of
  /// this tile first, then the read dependencies.
  virtual void depends(const tile3& t, const dep_sink& need) const = 0;

  /// Emit every base tag (b == base()) in manual pre-declaration order.
  virtual void enumerate_base(const tag_sink& emit) const = 0;

  /// Exact update (assignment) count of base tile t at tile side b — the
  /// work the simulator and the work/span analysis price a task node with
  /// (exec/dag.hpp). b is a parameter, not base(), so a tile-scale spec
  /// (base 1) can price the tiles of the (n, b) instance it stands for.
  /// Specs nothing prices yet keep this default, which throws.
  virtual std::uint64_t base_work(const tile3& t, std::uint64_t b) const {
    (void)t, (void)b;
    RDP_REQUIRE_MSG(false, std::string(name()) + " has no base_work hook");
    return 0;
  }

  /// Run the base-case kernel for region t, in place on the problem data,
  /// through the dp/kernels.hpp dispatch. Thread-safe for disjoint tiles.
  virtual void run_base(const tile4& t) = 0;

  // ---- value-passing hooks (FW's data-flow graph) -----------------------
  // A spec whose tiles are rewritten after being read (FW: every tile,
  // every round) cannot signal over a shared table; its data-flow lowering
  // passes immutable tile snapshots instead. The in-place hooks above still
  // drive the serial/fork-join/tiled/r-way backends.

  /// Whether the data-flow lowering must pass values instead of tokens.
  virtual bool value_passing() const { return false; }

  /// Compute base tile t from its dependency values, in the order depends()
  /// emitted them (deps[0] = write-write predecessor, then reads). Only
  /// called when value_passing().
  virtual tile_value run_base_value(const tile3& t,
                                    const tile_value* deps) const {
    (void)t, (void)deps;
    RDP_REQUIRE_MSG(false, "recurrence is not value-passing");
    return {};
  }

  /// Seed the store with the environment's initial items (before any tag).
  virtual void seed_values(value_store& store) { (void)store; }

  /// Gather the final items back into the problem data (after wait()):
  /// one get of each base tile's final version, the item no base tile at
  /// the same (i, j) reads. exec::consumer_counts counts exactly those
  /// gets, and dp::verify_spec checks that this hook makes them.
  virtual void gather_values(value_store& store) { (void)store; }
};

}  // namespace rdp::dp
