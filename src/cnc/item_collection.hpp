// Item collections: the data half of a CnC graph.
//
// An item collection is an associative container indexed by tags, with
// *dynamic single assignment* semantics — each key may be put exactly once
// (a second put throws dsa_violation, mirroring Intel CnC's run-time check).
//
// get_or_park() is the blocking get described in §II/§III-C of the paper:
// if the item is not yet available and the caller is a step instance, the
// instance is atomically parked on the item's waiter list and the call
// returns false, upon which the step must return at once (an abort); the
// eventual put() re-triggers every parked instance. get() is the same with
// a throw for the miss, for hand-written steps. Called from the environment
// (outside any step), either helps the worker pool until the item appears.
//
// The waiter lists own what is parked on them; a collection destroyed with
// waiters still registered abandons them (waiter::abandon), which frees
// the step instances of a deadlocked or abandoned graph.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cnc/context.hpp"
#include "cnc/errors.hpp"
#include "cnc/key_string.hpp"
#include "cnc/step_instance.hpp"
#include "concurrent/backoff.hpp"
#include "concurrent/striped_hash_map.hpp"
#include "obs/tracer.hpp"
#include "support/assertions.hpp"

namespace rdp::cnc {

template <class Key, class Value, class Hash = std::hash<Key>>
class item_collection final : public item_collection_base {
public:
  using key_type = Key;
  using value_type = Value;

  item_collection(context_base& ctx, std::string name)
      : ctx_(ctx), name_(std::move(name)),
        trace_name_(obs::tracer::instance().intern(name_)) {
    ctx_.attach(this);
  }

  ~item_collection() {
    ctx_.detach(this);
    std::vector<waiter*> orphans;
    map_.for_each([&](const Key&, const slot& s) {
      orphans.insert(orphans.end(), s.waiters.begin(), s.waiters.end());
    });
    for (waiter* w : orphans) w->abandon();
  }

  item_collection(const item_collection&) = delete;
  item_collection& operator=(const item_collection&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Publish `value` under `key`. Exactly-once: a repeated put throws
  /// dsa_violation. Resumes every step instance parked on the key.
  ///
  /// `get_count` > 0 enables Intel-CnC-style item garbage collection: the
  /// item is erased after exactly that many successful blocking get()s,
  /// bounding the collection's memory (essential for value-passing graphs
  /// like FW's tile items). Only safe when every consumer executes its
  /// gets exactly once — i.e. with the preschedule tuner or manual
  /// pre-declaration, NOT with abort-and-re-execute blocking steps (a
  /// re-executed step re-gets items it already counted).
  void put(const Key& key, Value value, std::uint32_t get_count = 0) {
    std::vector<waiter*> to_wake;
    map_.mutate(key, [&](slot& s) {
      if (s.value.has_value())
        throw dsa_violation("duplicate put into item collection '" + name_ +
                            "'");
      s.value.emplace(std::move(value));
      s.remaining_gets = get_count;
      to_wake.swap(s.waiters);
    });
    ctx_.metrics().items_put.fetch_add(1, std::memory_order_relaxed);
    detail::cnc_metrics().items_put.add();
    detail::cnc_metrics().items_live.add();
    RDP_TRACE_EVENT(obs::event_kind::item_put, trace_name_, Hash{}(key),
                    to_wake.size());
    // Wake outside the stripe lock: item_ready() may schedule work.
    for (waiter* w : to_wake) w->item_ready();
  }

  /// Blocking get (CnC semantics — see file comment). In a step: true and
  /// a copy when present; otherwise parks the calling step on the item and
  /// returns false, and the step must return at once without touching the
  /// instance. In the environment: helps the pool until the item exists
  /// (always true). Successful gets count towards the item's get_count
  /// (try_get never does).
  [[nodiscard]] bool get_or_park(const Key& key, Value& out) const {
    step_instance_base* self = step_instance_base::current();
    if (self == nullptr) {
      environment_get(key, out);
      return true;
    }
    bool found = false;
    bool erase_after = false;
    map_.mutate(key, [&](slot& s) {
      if (s.value.has_value()) {
        out = *s.value;
        found = true;
        if (s.remaining_gets > 0 && --s.remaining_gets == 0)
          erase_after = true;  // last declared consumer: collect the item
        return;
      }
      // Park, atomically w.r.t. put() on the same stripe.
      self->park_on(s.waiters);
    });
    if (found) {
      if (erase_after) {
        map_.erase(key);
        detail::cnc_metrics().items_live.sub();
      }
      ctx_.metrics().gets_ok.fetch_add(1, std::memory_order_relaxed);
      detail::cnc_metrics().gets_ok.add();
      RDP_TRACE_EVENT(obs::event_kind::item_get, trace_name_, Hash{}(key), 0);
      return true;
    }
    ctx_.metrics().gets_failed.fetch_add(1, std::memory_order_relaxed);
    detail::cnc_metrics().gets_failed.add();
    RDP_TRACE_EVENT(obs::event_kind::item_get_miss, trace_name_, Hash{}(key),
                    0);
    return false;
  }

  /// get_or_park() for hand-written steps: a miss parks the step and
  /// unwinds it with detail::unmet_dependency_signal.
  void get(const Key& key, Value& out) const {
    if (!get_or_park(key, out)) throw detail::unmet_dependency_signal{};
  }

  /// Non-blocking get: true and a copy when present, false otherwise.
  bool try_get(const Key& key, Value& out) const {
    bool found = false;
    map_.visit(key, [&](const slot& s) {
      if (s.value.has_value()) {
        out = *s.value;
        found = true;
      }
    });
    return found;
  }

  bool contains(const Key& key) const {
    bool present = false;
    map_.visit(key, [&](const slot& s) { present = s.value.has_value(); });
    return present;
  }

  /// Number of *published* items (keys whose value was put).
  std::size_t size() const {
    std::size_t n = 0;
    map_.for_each([&](const Key&, const slot& s) {
      if (s.value.has_value()) ++n;
    });
    return n;
  }

  /// Internal (pre-scheduling tuner): if the item exists return true;
  /// otherwise register `w` on the waiter list and return false.
  bool present_or_register(const Key& key, waiter* w) {
    bool present = false;
    map_.mutate(key, [&](slot& s) {
      if (s.value.has_value()) {
        present = true;
      } else {
        s.waiters.push_back(w);
      }
    });
    return present;
  }

  void describe_parked(std::vector<std::string>& names,
                       std::size_t limit) const override {
    map_.for_each([&](const Key&, const slot& s) {
      for (const waiter* w : s.waiters) {
        if (names.size() >= limit) return;
        std::string name = w->describe();
        if (std::find(names.begin(), names.end(), name) == names.end())
          names.push_back(std::move(name));
      }
    });
  }

private:
  struct slot {
    std::optional<Value> value;
    std::vector<waiter*> waiters;
    std::uint32_t remaining_gets = 0;  // 0 = keep forever
  };

  /// Counted lookup shared by the environment path: a success consumes one
  /// of the item's declared gets.
  bool try_get_counted(const Key& key, Value& out) const {
    bool found = false;
    bool erase_after = false;
    map_.mutate(key, [&](slot& s) {
      if (s.value.has_value()) {
        out = *s.value;
        found = true;
        if (s.remaining_gets > 0 && --s.remaining_gets == 0)
          erase_after = true;
      }
    });
    if (found) {
      // Callers bump the per-context gets_ok themselves; the process-wide
      // registry counter is centralised here (every environment-side
      // success passes through exactly once).
      detail::cnc_metrics().gets_ok.add();
      if (erase_after) {
        map_.erase(key);
        detail::cnc_metrics().items_live.sub();
      }
    }
    return found;
  }

  /// Environment-side blocking get: help the pool until the item appears.
  /// If instead the graph quiesces without producing it (no step active,
  /// nothing runnable), waiting any longer can only spin forever — the same
  /// determinism argument as context_base::wait() — so this throws
  /// unsatisfied_dependency naming the collection and key. A step error
  /// recorded before quiescence is preferred over the diagnostic (the
  /// missing put is then a symptom of the dead step). As with wait(), the
  /// quiescence test assumes no OTHER environment thread is still putting
  /// tags or items concurrently.
  void environment_get(const Key& key, Value& out) const {
    // Fast path first so a hit costs no wait events; the slow path brackets
    // the blocked stretch in data_wait_begin/end — the trace analyzer's
    // *data-wait* idle bucket (true dependencies, vs fork-join join-wait).
    if (try_get_counted(key, out)) {
      ctx_.metrics().gets_ok.fetch_add(1, std::memory_order_relaxed);
      RDP_TRACE_EVENT(obs::event_kind::item_get, trace_name_, Hash{}(key), 0);
      return;
    }
    RDP_TRACE_EVENT(obs::event_kind::data_wait_begin, trace_name_,
                    Hash{}(key), 0);
    concurrent::backoff bo;
    for (;;) {
      if (try_get_counted(key, out)) {
        ctx_.metrics().gets_ok.fetch_add(1, std::memory_order_relaxed);
        RDP_TRACE_EVENT(obs::event_kind::data_wait_end, trace_name_,
                        Hash{}(key), 0);
        RDP_TRACE_EVENT(obs::event_kind::item_get, trace_name_, Hash{}(key),
                        0);
        return;
      }
      if (ctx_.pool().try_run_one()) {
        bo.reset();
        continue;
      }
      if (ctx_.active_count() == 0) {
        // Quiescent. Re-check once: a final put may have landed between
        // the failed lookup and the active-count read.
        if (try_get_counted(key, out)) {
          ctx_.metrics().gets_ok.fetch_add(1, std::memory_order_relaxed);
          RDP_TRACE_EVENT(obs::event_kind::data_wait_end, trace_name_,
                          Hash{}(key), 0);
          RDP_TRACE_EVENT(obs::event_kind::item_get, trace_name_,
                          Hash{}(key), 0);
          return;
        }
        RDP_TRACE_EVENT(obs::event_kind::data_wait_end, trace_name_,
                        Hash{}(key), 0);
        if (std::exception_ptr error = ctx_.take_error())
          std::rethrow_exception(error);
        const long s = ctx_.suspended_count();
        std::string msg = "blocking environment get on item collection '" +
                          name_ + "', key " + detail::key_string(key) +
                          ": graph is quiescent and the item was never "
                          "produced";
        if (s > 0)
          msg += " (" + std::to_string(s) +
                 " step instance(s) parked on unmet dependencies)";
        throw unsatisfied_dependency(msg);
      }
      bo.pause();
    }
  }

  context_base& ctx_;
  std::string name_;
  std::uint16_t trace_name_;  // interned name_ for trace events
  mutable concurrent::striped_hash_map<Key, slot, Hash> map_;
};

}  // namespace rdp::cnc
