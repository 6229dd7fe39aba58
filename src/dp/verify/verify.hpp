// Spec consistency validator: the mechanical check behind the spec layer.
//
// A dp::recurrence describes its dependency graph twice: enumerate_base()
// lists the tasks and depends() lists each task's in-edges, and split()
// encodes the same graph again as a staged recursion (one rule per
// structure_kind) whose flattened order must be a valid serialisation.
// Everything else the executors need — each item's get count, the fan-in —
// is derived from enumerate_base() and depends() (exec/dag.hpp), so it
// cannot disagree with them. Nothing in the type system forces the
// remaining descriptions to agree, and when they silently disagree an
// executor turns the inconsistency into a hang (a dependency key nothing
// produces parks a step forever), a race (a split stage whose children
// depend on each other) or stale reads (a stage order that runs a consumer
// before its producer).
//
// verify_spec() enumerates the whole base-task graph of a spec instance
// and cross-checks every pairing:
//
//   * every depends() key is produced by some base task or seeded by the
//     environment (no blocking get can wait forever);
//   * the get counts the data-flow tuners collect by
//     (exec::consumer_counts: depends() edges plus one gather get of each
//     base tile's final version) equal the gets that happen — dependency
//     edges plus the gets gather_values() makes — so get-count GC can
//     neither free early nor leak. Only a value-passing spec whose
//     gather_values() reads something other than the final versions can
//     break this;
//   * split() from root() reaches exactly the enumerate_base() set, each
//     tag once, with the flattened stage order satisfying every depends()
//     edge and the children of one stage mutually independent (the
//     property DESIGN.md used to argue in prose, per decomposition) —
//     walked at r = 2 (power-of-two tile counts) and at the full width
//     r = n/base, so the one split rule is checked against depends() at
//     both ends of the range the registry runs;
//   * every depends() key, seed and gather key lies inside the key box the
//     data-flow lowering sizes its dense item store for (exec::item_box,
//     which bounds the base tags), so no run names a key the store has no
//     slot for.
//
// The validator only calls the *descriptive* spec hooks (split, depends,
// enumerate_base, seed_values, gather_values) — never
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

/// Everything that can be inconsistent between the spec's descriptions.
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
  /// The derived get count of an item (exec::consumer_counts) differs
  /// from the gets that happen — dependency edges plus environment gather
  /// gets: get-count GC would free the item early (under-count) or leak it
  /// (over-count). A value-passing spec's gather_values() must read each
  /// base tile's final version, and only that.
  consumer_count_mismatch,
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
  /// Largest depends() fan-in of any base task.
  std::size_t max_fan_in = 0;
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
  /// independence) at r = 2 when n/base is a power of two and at
  /// r = n/base whenever it exceeds 2. Disabling them keeps only the
  /// graph-side checks.
  bool check_split = true;
};

/// Cross-check one spec instance. Non-const: drives the environment hooks
/// (seed_values/gather_values) against a recording store — see the file
/// comment's caveat about value-passing specs and scratch data.
verify_report verify_spec(recurrence& rec, const verify_options& opts = {});

}  // namespace rdp::dp
