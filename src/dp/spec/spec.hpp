// Recurrence-specification layer: each benchmark described ONCE, executed
// by every backend in src/exec.
//
// The paper's central comparison — the same recursive divide-&-conquer DP
// under fork-join vs data-flow scheduling — was previously only
// apples-to-apples by convention: each (benchmark × execution model) pair
// was hand-written, one recursive and one CnC implementation per
// benchmark. This layer factors out what those implementations shared:
//
//   * the 2-way split rule, expressed as a *staged* child list
//     (split_plan). The stages are the fork-join joins; their flattened
//     order equals the data-flow tag emission order, so one plan drives
//     serial execution, task_group spawn/wait AND recursive CnC tag
//     expansion. (This equality is a property of the A/B/C/D and wavefront
//     decompositions — checked mechanically by dp::verify_spec
//     (dp/verify/verify.hpp), which walks split() from root() and requires
//     the flattened order to satisfy every depends() edge and each stage's
//     children to be mutually independent; see DESIGN.md §11.)
//   * the true-dependency function of a base tile (the depends() logic
//     formerly buried in each CnC implementation), emitted in the exact
//     get order of the retired implementations: write-write predecessor
//     first, then the read dependencies.
//   * the exact consumer count of each produced item (get-count garbage
//     collection for the single-execution tuners).
//   * the base-case kernel hook, routed through the dp/kernels.hpp
//     dispatch so RDP_KERNELS governs every variant.
//
// Execution-model policy (which backend, which CnC variant, worker counts,
// tile pinning) lives entirely in src/exec; no per-benchmark scheduling
// code remains outside it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "cnc/context.hpp"  // context_stats
#include "dp/common.hpp"
#include "support/assertions.hpp"

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

/// Dependency/data shape of a recurrence — what the tiled and r-way
/// backends need to schedule rounds without consulting the split rule.
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
/// small_vectors. NOT a limit — specs may declare any max_dependencies()
/// and longer lists spill to the heap. Sized to cover every O(1)-fan-in
/// spec (GE's widest is 4) with headroom.
inline constexpr std::size_t typical_dependency_arity = 8;

/// The staged children of one non-base tag. Children within a stage are
/// independent (fork-join runs them under one task_group); stages run in
/// order. FW's funcA has the most stages (6) and children (8).
struct split_plan {
  static constexpr std::size_t max_children = 8;
  static constexpr std::size_t max_stages = 6;

  std::array<tile4, max_children> children{};
  std::array<std::uint8_t, max_stages> stage_end{};  // prefix sums
  std::uint8_t child_count = 0;
  std::uint8_t stage_count = 0;

  /// Append one stage of independent children. Always-on bounds check:
  /// split() input comes from spec implementations outside this file, and a
  /// Release-compiled-out check here is the exact silent-corruption pattern
  /// the dep_list overflow shipped with (a 9th child would overwrite
  /// stage_end and scramble every later stage boundary).
  void stage(std::initializer_list<tile4> ts) {
    RDP_REQUIRE_MSG(stage_count < max_stages &&
                        child_count + ts.size() <= max_children,
                    "split_plan overflow: too many stages or children");
    for (const tile4& t : ts) children[child_count++] = t;
    stage_end[stage_count++] = child_count;
  }

  std::size_t stage_begin(std::size_t s) const {
    return s == 0 ? 0 : stage_end[s - 1];
  }
};

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
/// the recursion shape (split), the true dependencies and consumer counts
/// of base tiles, and the base-case kernel. Specs are cheap views over the
/// caller's problem data (matrix, sequences); they do not own it.
///
/// Base tasks are the tile4 tags with b <= base() — with power-of-two
/// problem and base sizes the recursion hits b == base() exactly, so base
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

  /// 2-way split of a non-base tag into staged children. The flattened
  /// child order is also the data-flow tag emission order (see file
  /// comment).
  virtual split_plan split(const tile4& t) const = 0;

  /// Emit the item keys base task t reads, in the exact order the
  /// data-flow base step performs its gets: the write-write predecessor of
  /// this tile first, then the read dependencies.
  virtual void depends(const tile3& t, const dep_sink& need) const = 0;

  /// The exact maximum number of keys depends() emits over all base tiles
  /// of THIS instance — a tight bound, not a generous cap. Executors
  /// reserve per-step dependency buffers from it (variable arity: there is
  /// no global capacity constant any more — lists longer than
  /// typical_dependency_arity spill to the heap); dp::verify_spec checks
  /// both directions (a fan-in above the bound is
  /// fan_in_exceeds_declared / tile_arity_exceeds_bound, a bound no tile
  /// attains is arity_bound_not_tight). The default is the historical 4
  /// (GE's D kind: write-write + A + B + C).
  virtual std::size_t max_dependencies() const { return 4; }

  /// Per-tile upper bound on how many keys depends(t, ...) may emit —
  /// tighter than the instance-wide max_dependencies() for specs whose
  /// fan-in varies by position (Parenthesization: 2(J-I), growing with the
  /// diagonal). dp::verify_spec checks every tile's observed fan-in
  /// against it; executors may size exact per-tile arrays from it.
  virtual std::size_t dependency_bound(const tile3& t) const {
    (void)t;
    return max_dependencies();
  }

  /// Exact number of gets that will consume the item produced for t
  /// (get-count garbage collection). 0 means "keep forever" — used for the
  /// items no later task reads (e.g. GE's final funcA output).
  virtual std::uint32_t consumer_count(const tile3& t) const = 0;

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

  /// Gather the final items back into the problem data (after wait()).
  virtual void gather_values(value_store& store) { (void)store; }
};

}  // namespace rdp::dp
