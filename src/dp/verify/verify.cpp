#include "dp/verify/verify.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "exec/dag.hpp"

namespace rdp::dp {

const char* to_string(verify_failure_kind k) noexcept {
  switch (k) {
    case verify_failure_kind::duplicate_base_tag:
      return "duplicate_base_tag";
    case verify_failure_kind::invalid_base_tag: return "invalid_base_tag";
    case verify_failure_kind::seed_collision: return "seed_collision";
    case verify_failure_kind::unproduced_dependency:
      return "unproduced_dependency";
    case verify_failure_kind::self_dependency: return "self_dependency";
    case verify_failure_kind::key_outside_item_box:
      return "key_outside_item_box";
    case verify_failure_kind::consumer_count_mismatch:
      return "consumer_count_mismatch";
    case verify_failure_kind::fan_in_exceeds_declared:
      return "fan_in_exceeds_declared";
    case verify_failure_kind::tile_arity_exceeds_bound:
      return "tile_arity_exceeds_bound";
    case verify_failure_kind::arity_bound_not_tight:
      return "arity_bound_not_tight";
    case verify_failure_kind::malformed_split: return "malformed_split";
    case verify_failure_kind::split_base_mismatch:
      return "split_base_mismatch";
    case verify_failure_kind::duplicate_split_emission:
      return "duplicate_split_emission";
    case verify_failure_kind::stage_order_violation:
      return "stage_order_violation";
    case verify_failure_kind::stage_conflict: return "stage_conflict";
  }
  return "?";
}

namespace {

std::string key_string(const tile3& t) {
  std::ostringstream os;
  os << '(' << t.i << ',' << t.j << ',' << t.k << ')';
  return os.str();
}

/// dep_sink target collecting into a bounded-ish vector.
struct dep_collector {
  std::vector<tile3> keys;
  void operator()(const tile3& k) { keys.push_back(k); }
};

/// value_store that records the environment's traffic instead of storing
/// anything. get() hands out a placeholder tile of zeros sized for one
/// base tile, which is exactly enough for gather_values() to run; for a
/// value-passing spec this overwrites the problem table (see the header's
/// scratch-data caveat).
struct recording_store final : value_store {
  std::vector<tile3> seeded;
  std::vector<tile3> env_gets;
  std::size_t tile_elems;

  explicit recording_store(std::size_t elems) : tile_elems(elems) {}

  void put(const tile3& key, tile_value) override { seeded.push_back(key); }
  tile_value get(const tile3& key) override {
    env_gets.push_back(key);
    return std::make_shared<const std::vector<double>>(tile_elems, 0.0);
  }
};

struct verifier {
  recurrence& rec;
  const verify_options& opts;
  verify_report rep;

  verifier(recurrence& r, const verify_options& o) : rec(r), opts(o) {}

  std::unordered_map<tile3, std::size_t> base_multiplicity;
  std::unordered_set<tile3> seeds;
  /// base outputs ∪ seeds — everything a get could legally wait on.
  std::unordered_set<tile3> produced;
  /// key -> dependency edges + environment gather gets referencing it.
  std::unordered_map<tile3, std::size_t> consumers;
  /// Keys already reported as unproduced (dedupe across referencing tasks).
  std::unordered_set<tile3> orphans_reported;
  /// The data-flow item store's key box (empty until the base set is known).
  exec::tile_box box;
  std::unordered_set<tile3> outside_reported;

  // ---- split-walk state (one walk per branching factor) ------------------
  /// The walk numbers base tiles in the order it reaches them (the
  /// flattened split order), so each child subtree of a split is one
  /// contiguous range of positions. Visit p's depends() keys are
  /// visit_deps[deps_begin(p) .. deps_end[p]).
  static constexpr std::size_t not_reached = static_cast<std::size_t>(-1);
  std::size_t split_r = 2;
  std::vector<tile3> visit_deps;
  std::vector<std::size_t> deps_end;
  /// base coord -> number of visits and the position of the latest one.
  struct reach {
    std::size_t count = 0, last = not_reached;
  };
  std::unordered_map<tile3, reach> reached;
  bool split_walk_aborted = false;

  void issue(verify_failure_kind kind, const tile3& key,
             std::string detail) {
    if (rep.issues.size() >= opts.max_issues) {
      rep.truncated = true;
      return;
    }
    rep.issues.push_back({kind, key, std::move(detail)});
  }

  void run() {
    rep.spec_name = rec.name();
    rep.n = rec.size();
    rep.base = rec.base();
    rep.declared_max_fan_in = rec.max_dependencies();

    collect_base_set();
    // The box bounds the base tags, so only the other keys can leave it.
    if (rep.base_tasks > 0) box = exec::item_box(rec);
    collect_environment();
    collect_edges();
    check_consumer_counts();
    if (opts.check_split) {
      // The one split rule at both ends of the range the registry runs:
      // the 2-way recursion (when the tile count is a power of two) and
      // the full-width level of the tiled schedule (r = n/base).
      const std::size_t n = rec.size(), base = rec.base();
      if (splits_evenly(n, base, 2)) walk_split(2);
      if (base > 0 && n / base > 2 && splits_evenly(n, base, n / base))
        walk_split(n / base);
    }
  }

  // (a) enumerate_base: collect the task set, flag duplicates and tags
  // that are not base tiles of this spec.
  void collect_base_set() {
    auto emit = [&](const tile4& t) {
      ++rep.base_tasks;
      if (!rec.is_base(t) ||
          static_cast<std::size_t>(t.b) != rec.base() || t.b <= 0) {
        issue(verify_failure_kind::invalid_base_tag, {t.i, t.j, t.k},
              "enumerate_base emitted b=" + std::to_string(t.b) +
                  ", spec base is " + std::to_string(rec.base()));
      }
      const tile3 c{t.i, t.j, t.k};
      if (++base_multiplicity[c] == 2)
        issue(verify_failure_kind::duplicate_base_tag, c,
              "enumerate_base emitted " + key_string(c) + " more than once");
    };
    rec.enumerate_base(tag_sink(emit));
    for (const auto& [c, mult] : base_multiplicity) {
      (void)mult;
      produced.insert(c);
    }
  }

  // Environment half of the item traffic: seeds are extra producers,
  // gather gets are extra consumers.
  void collect_environment() {
    recording_store store(rec.base() * rec.base());
    rec.seed_values(store);
    for (const tile3& s : store.seeded) {
      if (base_multiplicity.count(s) != 0)
        issue(verify_failure_kind::seed_collision, s,
              "environment seed " + key_string(s) +
                  " collides with a base task's output key");
      if (!seeds.insert(s).second)
        issue(verify_failure_kind::seed_collision, s,
              "environment seeds " + key_string(s) + " more than once");
      produced.insert(s);
      check_box(s, "environment seed");
    }
    rep.environment_seeds = seeds.size();
    rep.items_produced = produced.size();

    rec.gather_values(store);
    rep.environment_gets = store.env_gets.size();
    for (const tile3& g : store.env_gets) consume(g, "environment gather");
  }

  void check_box(const tile3& key, const char* what) {
    if (box.empty() || box.contains(key) ||
        !outside_reported.insert(key).second)
      return;
    issue(verify_failure_kind::key_outside_item_box, key,
          std::string(what) + " " + key_string(key) +
              " lies outside the data-flow item box " +
              key_string(box.lo()) + ".." + key_string(box.hi()));
  }

  void consume(const tile3& key, const char* what) {
    check_box(key, what);
    ++consumers[key];
    if (produced.count(key) == 0 && orphans_reported.insert(key).second)
      issue(verify_failure_kind::unproduced_dependency, key,
            std::string(what) + " references " + key_string(key) +
                ", which no base task produces and no seed provides");
  }

  // (b)/(e) every depends() edge, fan-in statistics vs the declared
  // bounds: the instance-wide max_dependencies() (which must be tight) and
  // the per-tile dependency_bound(t).
  void collect_edges() {
    for (const auto& [c, mult] : base_multiplicity) {
      (void)mult;
      dep_collector deps;
      rec.depends(c, dep_sink(deps));
      rep.dependency_edges += deps.keys.size();
      rep.max_fan_in = std::max(rep.max_fan_in, deps.keys.size());
      if (deps.keys.size() > rep.declared_max_fan_in)
        issue(verify_failure_kind::fan_in_exceeds_declared, c,
              "base task " + key_string(c) + " declares " +
                  std::to_string(deps.keys.size()) +
                  " dependencies, max_dependencies() is " +
                  std::to_string(rep.declared_max_fan_in));
      const std::size_t tile_bound = rec.dependency_bound(c);
      rep.max_tile_bound = std::max(rep.max_tile_bound, tile_bound);
      if (deps.keys.size() > tile_bound)
        issue(verify_failure_kind::tile_arity_exceeds_bound, c,
              "base task " + key_string(c) + " emits " +
                  std::to_string(deps.keys.size()) +
                  " dependencies, its dependency_bound() is " +
                  std::to_string(tile_bound));
      for (const tile3& d : deps.keys) {
        if (d == c)
          issue(verify_failure_kind::self_dependency, c,
                "base task " + key_string(c) +
                    " lists its own output as a dependency");
        consume(d, "depends()");
      }
    }
    if (rep.base_tasks > 0 && rep.declared_max_fan_in > rep.max_fan_in)
      issue(verify_failure_kind::arity_bound_not_tight, {},
            "max_dependencies() declares " +
                std::to_string(rep.declared_max_fan_in) +
                " but the widest base task emits only " +
                std::to_string(rep.max_fan_in) +
                " — the bound must be tight for this instance");
  }

  // (c) counted consumers of every produced item must equal the edges
  // referencing it — the get-count GC contract, exactly.
  void check_consumer_counts() {
    for (const tile3& key : produced) {
      const auto it = consumers.find(key);
      const std::size_t counted = it == consumers.end() ? 0 : it->second;
      rep.max_fan_out = std::max(rep.max_fan_out, counted);
      const std::size_t declared = rec.consumer_count(key);
      if (declared != counted)
        issue(verify_failure_kind::consumer_count_mismatch, key,
              "item " + key_string(key) + ": consumer_count() declares " +
                  std::to_string(declared) + ", dependency edges count " +
                  std::to_string(counted) +
                  (declared < counted ? " (GC would free it early)"
                                      : " (GC would leak it)"));
    }
  }

  // (d) split() from root(): structural sanity, reach-exactly-once, the
  // flattened-order property, and per-stage independence.

  void walk_split(std::size_t r) {
    split_r = r;
    visit_deps.clear();
    deps_end.clear();
    reached.clear();
    split_walk_aborted = false;
    walk(rec.root());
    check_split_closure();
  }

  /// Names the walk a split issue came from.
  std::string at_r() const {
    return " (split at r=" + std::to_string(split_r) + ")";
  }

  std::size_t deps_begin(std::size_t p) const {
    return p == 0 ? 0 : deps_end[p - 1];
  }

  /// Position of the latest visit of `key`, or not_reached.
  std::size_t last_visit(const tile3& key) const {
    const auto it = reached.find(key);
    return it == reached.end() ? not_reached : it->second.last;
  }

  void walk(const tile4& t) {
    if (split_walk_aborted) return;

    if (rec.is_base(t)) {
      const tile3 c{t.i, t.j, t.k};
      dep_collector dc;
      rec.depends(c, dep_sink(dc));
      for (const tile3& d : dc.keys) {
        // Orphan keys are already reported by collect_edges(); flag only
        // genuine serialisation bugs here. The environment's seeds exist
        // before any tag runs.
        if (last_visit(d) == not_reached && produced.count(d) != 0 &&
            seeds.count(d) == 0)
          issue(verify_failure_kind::stage_order_violation, c,
                "flattened split order runs base task " + key_string(c) +
                    " before its dependency " + key_string(d) +
                    " is produced" + at_r());
      }
      reach& rc = reached[c];
      ++rc.count;
      rc.last = deps_end.size();
      visit_deps.insert(visit_deps.end(), dc.keys.begin(), dc.keys.end());
      deps_end.push_back(visit_deps.size());
      return;
    }

    const split_plan plan = rec.split(t, split_r);
    if (!plan_well_formed(t, plan)) {
      split_walk_aborted = true;
      return;
    }
    std::vector<std::size_t> starts;  // one stage's child ranges
    for (std::size_t s = 0; s < plan.stage_count(); ++s) {
      const std::size_t begin = plan.stage_begin(s);
      const std::size_t end = plan.stage_end[s];
      starts.clear();
      for (std::size_t c = begin; c < end; ++c) {
        starts.push_back(deps_end.size());
        walk(plan.children[c]);
      }
      starts.push_back(deps_end.size());
      if (end - begin > 1) check_stage_independence(t, s, plan, begin, starts);
    }
  }

  bool plan_well_formed(const tile4& t, const split_plan& plan) {
    const tile3 c{t.i, t.j, t.k};
    if (plan.stage_count() == 0 || plan.children.empty()) {
      issue(verify_failure_kind::malformed_split, c,
            "split of non-base tag " + key_string(c) + " (b=" +
                std::to_string(t.b) + ") produced no children" + at_r());
      return false;
    }
    std::size_t prev = 0;
    for (const std::uint32_t end : plan.stage_end) {
      if (end <= prev) {
        issue(verify_failure_kind::malformed_split, c,
              "split stage boundaries are not strictly increasing" + at_r());
        return false;
      }
      prev = end;
    }
    if (prev != plan.children.size()) {
      issue(verify_failure_kind::malformed_split, c,
            "split stage prefix sums do not cover every child" + at_r());
      return false;
    }
    for (const tile4& child : plan.children) {
      if (child.b <= 0 || child.b >= t.b) {
        issue(verify_failure_kind::malformed_split, c,
              "split child is not strictly smaller than its parent "
              "(recursion would not terminate)" + at_r());
        return false;
      }
    }
    return true;
  }

  /// Fork-join runs one stage's children concurrently: no child subtree
  /// may consume an item a sibling subtree produces. Child c of the stage
  /// is visit range [starts[c], starts[c + 1]); one lookup per consumed
  /// key, so a full-width stage (thousands of children) stays linear.
  void check_stage_independence(const tile4& t, std::size_t stage,
                                const split_plan& plan, std::size_t begin,
                                const std::vector<std::size_t>& starts) {
    const std::size_t lo = starts.front(), hi = starts.back();
    for (std::size_t a = 0; a + 1 < starts.size(); ++a) {
      // One witness per sibling keeps the report readable.
      std::unordered_set<std::size_t> witnessed;
      for (std::size_t e = deps_begin(starts[a]);
           e < deps_begin(starts[a + 1]); ++e) {
        const tile3& key = visit_deps[e];
        const std::size_t q = last_visit(key);
        if (q < lo || q >= hi || (q >= starts[a] && q < starts[a + 1]))
          continue;
        const std::size_t b =
            static_cast<std::size_t>(
                std::upper_bound(starts.begin(), starts.end(), q) -
                starts.begin()) -
            1;
        if (!witnessed.insert(b).second) continue;
        const tile4& ca = plan.children[begin + a];
        const tile4& cb = plan.children[begin + b];
        issue(verify_failure_kind::stage_conflict, key,
              "stage " + std::to_string(stage) + " of split " +
                  key_string({t.i, t.j, t.k}) + ": child " +
                  key_string({ca.i, ca.j, ca.k}) + " consumes " +
                  key_string(key) + " which sibling " +
                  key_string({cb.i, cb.j, cb.k}) + " produces" + at_r());
      }
    }
  }

  void check_split_closure() {
    if (split_walk_aborted) return;
    for (const auto& [c, mult] : base_multiplicity) {
      (void)mult;
      const auto it = reached.find(c);
      if (it == reached.end()) {
        issue(verify_failure_kind::split_base_mismatch, c,
              "enumerate_base lists " + key_string(c) +
                  " but split() from root() never reaches it" + at_r());
      } else if (it->second.count > 1) {
        issue(verify_failure_kind::duplicate_split_emission, c,
              "split() from root() reaches " + key_string(c) + " " +
                  std::to_string(it->second.count) + " times" + at_r());
      }
    }
    for (const auto& [c, hit] : reached) {
      (void)hit;
      if (base_multiplicity.count(c) == 0)
        issue(verify_failure_kind::split_base_mismatch, c,
              "split() from root() reaches " + key_string(c) +
                  " but enumerate_base does not list it" + at_r());
    }
  }
};

}  // namespace

bool verify_report::has(verify_failure_kind k) const {
  return std::any_of(issues.begin(), issues.end(),
                     [k](const verify_issue& i) { return i.kind == k; });
}

std::size_t verify_report::count(verify_failure_kind k) const {
  return static_cast<std::size_t>(
      std::count_if(issues.begin(), issues.end(),
                    [k](const verify_issue& i) { return i.kind == k; }));
}

std::string verify_issue::to_string() const {
  return std::string(dp::to_string(kind)) + " at " + key_string(key) +
         ": " + detail;
}

std::string verify_report::summary() const {
  std::ostringstream os;
  os << spec_name << " n=" << n << " base=" << base << ": ";
  if (ok()) {
    os << "OK — " << base_tasks << " base tasks, " << dependency_edges
       << " edges, " << items_produced << " items (" << environment_seeds
       << " seeds, " << environment_gets << " gather gets), max fan-in "
       << max_fan_in << "/" << declared_max_fan_in << " declared";
    return os.str();
  }
  os << issues.size() << (truncated ? "+" : "") << " issue(s)";
  constexpr std::size_t k_shown = 3;
  for (std::size_t i = 0; i < issues.size() && i < k_shown; ++i)
    os << "\n  " << issues[i].to_string();
  if (issues.size() > k_shown)
    os << "\n  ... and " << issues.size() - k_shown << " more";
  return os.str();
}

verify_report verify_spec(recurrence& rec, const verify_options& opts) {
  verifier v(rec, opts);
  v.run();
  return std::move(v.rep);
}

}  // namespace rdp::dp
