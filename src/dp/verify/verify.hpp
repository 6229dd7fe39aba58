// Spec consistency validator: the mechanical check behind the spec layer's
// redundancy.
//
// A dp::recurrence describes one dependency graph three times over:
// enumerate_base() lists the tasks, depends() lists each task's in-edges,
// and consumer_count() restates every item's out-degree for get-count
// garbage collection; split() encodes the same graph a fourth time as a
// staged recursion whose flattened order must be a valid serialisation.
// Nothing in the type system forces these four descriptions to agree — and
// when they silently disagree an executor turns the inconsistency into a
// hang (a dependency key nothing produces parks a step forever), a
// use-after-free (an under-counted consumer lets get-count GC reclaim an
// item that is still needed), or a leak (an over-counted one keeps it
// alive forever). The dep_list overflow PR 5 shipped — GE D tiles emitting
// 4 dependencies into a 3-wide buffer, corrupting the ready count only in
// Release — is exactly this bug class.
//
// verify_spec() enumerates the whole base-task graph of a spec instance
// and cross-checks every pairing:
//
//   * every depends() key is produced by some base task or seeded by the
//     environment (no blocking get can wait forever);
//   * the counted consumers of every produced item — dependency edges plus
//     the environment's gather gets — exactly equal consumer_count(), so
//     get-count GC can neither free early nor leak;
//   * split() from root() reaches exactly the enumerate_base() set, each
//     tag once, with the flattened stage order satisfying every depends()
//     edge and the children of one stage mutually independent (the
//     property DESIGN.md used to argue in prose, per decomposition);
//   * every depends() key, seed and gather key lies inside the key box the
//     data-flow lowering sizes its dense item store for (exec::item_box,
//     which bounds the base tags), so no run names a key the store has no
//     slot for;
//   * the observed dependency fan-in respects the variable-arity contract
//     both per tile (dependency_bound(t)) and instance-wide
//     (max_dependencies(), which must also be *tight* — attained by some
//     tile — since executors reserve from it and session fingerprints
//     compare it).
//
// The validator only calls the *descriptive* spec hooks (split, depends,
// consumer_count, enumerate_base, seed_values, gather_values) — never
// run_base()/run_base_value() — so it is cheap (no kernels) and exact (no
// schedules). Caveat: gather_values() is driven against a recording store
// handing out placeholder tiles, so for a value-passing spec verification
// overwrites the problem table with zeros; verify a spec built over
// scratch data, or re-seed afterwards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dp/common.hpp"
#include "dp/spec/spec.hpp"

namespace rdp::dp {

/// Everything that can be inconsistent between the four descriptions.
enum class verify_failure_kind : std::uint8_t {
  /// enumerate_base() emitted the same tile twice (manual pre-declaration
  /// would put a duplicate tag; with memoisation off the step runs twice
  /// and the second put is a DSA violation).
  duplicate_base_tag,
  /// enumerate_base() emitted a tag that is not a base tile of this spec
  /// (b != base(), or is_base() false).
  invalid_base_tag,
  /// An environment seed key collides with a base task's output key (the
  /// base step's put would be the second put on that key).
  seed_collision,
  /// A depends()/gather key that no base task produces and no seed
  /// provides: a blocking get on it waits forever, a nonblocking step
  /// respawns forever.
  unproduced_dependency,
  /// A base task lists its own output key as a dependency.
  self_dependency,
  /// A depends() key, seed or gather key outside exec::item_box()
  /// — the box the data-flow lowering sizes its dense item store for. The
  /// store refuses such a key (cnc::key_out_of_range) and the run fails.
  key_outside_item_box,
  /// consumer_count(key) differs from the number of dependency edges (plus
  /// environment gather gets) referencing the key: get-count GC would free
  /// the item early (under-count) or leak it (over-count).
  consumer_count_mismatch,
  /// Observed depends() fan-in of some base task exceeds
  /// max_dependencies() — executors reserved buffers the spec outgrew.
  fan_in_exceeds_declared,
  /// Observed depends() fan-in of a base task exceeds the spec's own
  /// per-tile dependency_bound(t) — the variable-arity contract: a tile's
  /// bound must cover exactly what depends() emits for it.
  tile_arity_exceeds_bound,
  /// max_dependencies() is not tight: no base task of this instance
  /// attains the declared bound. Executors reserve from it and the
  /// session-shape fingerprint compares it, so an inflated bound hides
  /// real structural changes and over-allocates every step.
  arity_bound_not_tight,
  /// split() returned a structurally broken plan (no children, stage
  /// prefix sums not increasing, or a child not strictly smaller than its
  /// parent — the recursion would not terminate).
  malformed_split,
  /// The split() closure from root() and enumerate_base() disagree: a tag
  /// one lists is missing from the other.
  split_base_mismatch,
  /// The split() closure reaches one base tag more than once (the
  /// data-flow lowering would put the tag twice).
  duplicate_split_emission,
  /// The flattened stage order of split() runs a base task before one of
  /// its depends() keys has been produced — the serial/fork-join schedule
  /// would read stale data even though the data-flow graph is fine.
  stage_order_violation,
  /// Two children of one split() stage are not independent: a base task in
  /// one subtree consumes an item a sibling subtree produces. Fork-join
  /// runs the stage's children concurrently, so this is a race.
  stage_conflict,
};

const char* to_string(verify_failure_kind k) noexcept;

/// One inconsistency, anchored at the item key or base tile concerned.
struct verify_issue {
  verify_failure_kind kind;
  tile3 key{};
  std::string detail;

  std::string to_string() const;
};

/// Outcome of one verify_spec() run: graph-shape statistics (valid even on
/// failure, as far as enumeration got) plus every detected inconsistency.
struct verify_report {
  std::string spec_name;
  std::size_t n = 0;
  std::size_t base = 0;

  std::size_t base_tasks = 0;        ///< tags emitted by enumerate_base()
  std::size_t items_produced = 0;    ///< base outputs + environment seeds
  std::size_t environment_seeds = 0; ///< keys seed_values() put
  std::size_t environment_gets = 0;  ///< keys gather_values() read
  std::size_t dependency_edges = 0;  ///< total depends() emissions
  /// Largest depends() fan-in of any base task — the number executors must
  /// size dependency buffers for (ISSUE: replaces the hard-coded 4).
  std::size_t max_fan_in = 0;
  /// The spec's declared bound (recurrence::max_dependencies()) — must be
  /// tight: equal to max_fan_in once the graph is enumerated.
  std::size_t declared_max_fan_in = 0;
  /// Largest per-tile dependency_bound() over the base tasks.
  std::size_t max_tile_bound = 0;
  /// Largest consumer count of any produced item.
  std::size_t max_fan_out = 0;

  std::vector<verify_issue> issues;
  /// True when issue recording hit the max_issues cap (the counts above
  /// still cover the whole graph; only the issue *list* is clipped).
  bool truncated = false;

  bool ok() const { return issues.empty(); }
  bool has(verify_failure_kind k) const;
  std::size_t count(verify_failure_kind k) const;
  /// One-line verdict plus (on failure) the first few issues — suitable
  /// for RDP_REQUIRE_MSG and CLI output.
  std::string summary() const;
};

struct verify_options {
  /// Cap on recorded issues (statistics always cover the full graph).
  std::size_t max_issues = 64;
  /// Run the split()-closure checks (reachability, flattened order, stage
  /// independence). The 2-way split rule assumes power-of-two n/base;
  /// callers verifying a tiled-only configuration (n divisible but not a
  /// power of two) disable this and keep the graph-side checks.
  bool check_split = true;
};

/// Cross-check one spec instance. Non-const: drives the environment hooks
/// (seed_values/gather_values) against a recording store — see the file
/// comment's caveat about value-passing specs and scratch data.
verify_report verify_spec(recurrence& rec, const verify_options& opts = {});

}  // namespace rdp::dp
