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
// Slot stores. Each key owns one slot — its value, its remaining get count
// and its waiter list — and every operation runs on the slot under the lock
// that guards it. How a key finds its slot is the store, the collection's
// third template parameter, in the way Intel CnC pairs a hash-map item
// tuner with a vector one:
//   * hashed_slots (the default): a striped hash map for any hashable key;
//     a key's slot is created by the first operation that names it.
//   * dense_slots<Key, Value, Index>: one array of slots, allocated once
//     and indexed directly through Index, a key -> offset map over a fixed
//     key box (exec::tile_box over a spec's base tags). It allocates
//     nothing per key after construction, and a key outside the box is
//     refused with key_out_of_range instead of being stored.
// put, get_or_park, present_or_register, the get-count GC and the abandon
// logic are written once, over either store.
//
// The waiter lists own what is parked on them (intrusively, so parking
// allocates nothing); a collection destroyed with waiters still registered
// abandons them (waiter::abandon), which frees the step instances of a
// deadlocked or abandoned graph.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cnc/context.hpp"
#include "cnc/errors.hpp"
#include "cnc/key_string.hpp"
#include "cnc/step_instance.hpp"
#include "cnc/waiter.hpp"
#include "concurrent/backoff.hpp"
#include "concurrent/spinlock.hpp"
#include "concurrent/striped_hash_map.hpp"
#include "obs/tracer.hpp"
#include "support/assertions.hpp"

namespace rdp::cnc {

/// The state of one key, guarded by the lock its store pairs it with.
template <class Value>
struct item_slot {
  waiter_list waiters;
  std::uint32_t remaining_gets = 0;  // 0 = keep forever
  std::optional<Value> value;
};

/// A slot together with its held lock; empty when the store has no slot
/// for the key.
template <class Value>
class slot_ref {
public:
  slot_ref() = default;
  slot_ref(std::unique_lock<concurrent::spinlock> lock, item_slot<Value>* s)
      : lock_(std::move(lock)), slot_(s) {}

  explicit operator bool() const noexcept { return slot_ != nullptr; }
  item_slot<Value>* operator->() const noexcept { return slot_; }
  item_slot<Value>& operator*() const noexcept { return *slot_; }

private:
  std::unique_lock<concurrent::spinlock> lock_;
  item_slot<Value>* slot_ = nullptr;
};

/// Store for arbitrary hashable keys: a striped hash map of slots. Every
/// key is covered; a get-count-collected item leaves its empty slot behind.
template <class Key, class Value, class Hash = std::hash<Key>>
class hashed_slots {
public:
  bool covers(const Key&) const noexcept { return true; }

  /// The key's slot, locked; created if absent when `create`.
  slot_ref<Value> find(const Key& key, bool create) {
    auto [lock, s] = map_.lock_entry(key, create);
    return s != nullptr ? slot_ref<Value>(std::move(lock), s)
                        : slot_ref<Value>();
  }

  /// fn(slot&) on every slot, each under its lock.
  template <class Fn>
  void for_each(Fn&& fn) {
    map_.for_each([&](const Key&, item_slot<Value>& s) { fn(s); });
  }

private:
  concurrent::striped_hash_map<Key, item_slot<Value>, Hash> map_;
};

/// Store for keys that fill a known box: one slot per offset of `Index`,
/// which provides size() and offset(key), npos for a key outside the box.
template <class Key, class Value, class Index>
class dense_slots {
public:
  explicit dense_slots(Index index)
      : index_(std::move(index)),
        slots_(std::make_unique<locked_slot[]>(index_.size())) {}

  bool covers(const Key& key) const {
    return index_.offset(key) != Index::npos;
  }

  /// The key's slot, locked; empty only for a key outside the box.
  slot_ref<Value> find(const Key& key, bool /*create*/) {
    const std::size_t at = index_.offset(key);
    if (at == Index::npos) return {};
    locked_slot& s = slots_[at];
    return slot_ref<Value>(std::unique_lock(s.lock), &s.state);
  }

  template <class Fn>
  void for_each(Fn&& fn) {
    for (std::size_t at = 0; at < index_.size(); ++at) {
      std::scoped_lock lock(slots_[at].lock);
      fn(slots_[at].state);
    }
  }

private:
  struct locked_slot {
    concurrent::spinlock lock;
    item_slot<Value> state;
  };

  Index index_;
  std::unique_ptr<locked_slot[]> slots_;
};

template <class Key, class Value, class Store = hashed_slots<Key, Value>>
class item_collection final : public item_collection_base {
public:
  using key_type = Key;
  using value_type = Value;

  /// `store_args` construct the Store (dense_slots takes its Index).
  template <class... StoreArgs>
  item_collection(context_base& ctx, std::string name,
                  StoreArgs&&... store_args)
      : ctx_(ctx), name_(std::move(name)),
        trace_name_(obs::tracer::instance().intern(name_)),
        store_(std::forward<StoreArgs>(store_args)...) {
    ctx_.attach(this);
  }

  ~item_collection() {
    ctx_.detach(this);
    waiter_list orphans;
    store_.for_each([&](item_slot<Value>& s) { orphans.splice(s.waiters); });
    waiter_list::abandon(orphans.take());
  }

  item_collection(const item_collection&) = delete;
  item_collection& operator=(const item_collection&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Publish `value` under `key`. Exactly-once: a repeated put throws
  /// dsa_violation. Resumes every step instance parked on the key.
  ///
  /// `get_count` > 0 enables Intel-CnC-style item garbage collection: the
  /// value is released after exactly that many successful blocking get()s,
  /// bounding the collection's memory (essential for value-passing graphs
  /// like FW's tile items). Only safe when every consumer executes its
  /// gets exactly once — i.e. with the preschedule tuner or manual
  /// pre-declaration, NOT with abort-and-re-execute blocking steps (a
  /// re-executed step re-gets items it already counted).
  void put(const Key& key, Value value, std::uint32_t get_count = 0) {
    waiter* woken;
    {
      slot_ref<Value> s = slot(key);
      if (s->value.has_value())
        throw dsa_violation("duplicate put into item collection '" + name_ +
                            "'");
      s->value.emplace(std::move(value));
      s->remaining_gets = get_count;
      woken = s->waiters.take();
    }
    ctx_.metrics().items_put.fetch_add(1, std::memory_order_relaxed);
    RDP_TRACE_EVENT(obs::event_kind::item_put, trace_name_, trace_key(key),
                    waiter_list::count(woken));
    // Wake outside the slot lock: item_ready() may schedule work.
    waiter_list::wake(woken);
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
    bool found;
    {
      slot_ref<Value> s = slot(key);
      found = s->value.has_value();
      if (found)
        take_counted(*s, out);
      else
        self->park_on(s->waiters);  // atomic w.r.t. put() on this slot
    }
    if (!found) {
      ctx_.metrics().gets_failed.fetch_add(1, std::memory_order_relaxed);
      RDP_TRACE_EVENT(obs::event_kind::item_get_miss, trace_name_,
                      trace_key(key), 0);
      return false;
    }
    ctx_.metrics().gets_ok.fetch_add(1, std::memory_order_relaxed);
    RDP_TRACE_EVENT(obs::event_kind::item_get, trace_name_, trace_key(key), 0);
    return true;
  }

  /// get_or_park() for hand-written steps: a miss parks the step and
  /// unwinds it with detail::unmet_dependency_signal.
  void get(const Key& key, Value& out) const {
    if (!get_or_park(key, out)) throw detail::unmet_dependency_signal{};
  }

  /// Non-blocking get: true and a copy when present, false otherwise.
  bool try_get(const Key& key, Value& out) const {
    slot_ref<Value> s = existing_slot(key);
    if (!s || !s->value.has_value()) return false;
    out = *s->value;
    return true;
  }

  bool contains(const Key& key) const {
    slot_ref<Value> s = existing_slot(key);
    return s && s->value.has_value();
  }

  /// Number of *published* items (keys whose value was put and not yet
  /// collected).
  std::size_t size() const {
    std::size_t n = 0;
    store_.for_each([&](const item_slot<Value>& s) {
      if (s.value.has_value()) ++n;
    });
    return n;
  }

  /// Internal (pre-scheduling tuner): if the item exists return true;
  /// otherwise register `w` on the waiter list and return false.
  bool present_or_register(const Key& key, waiter* w) {
    slot_ref<Value> s = slot(key);
    if (s->value.has_value()) return true;
    s->waiters.push(w);
    return false;
  }

  void describe_parked(std::vector<std::string>& names,
                       std::size_t limit) const override {
    store_.for_each([&](const item_slot<Value>& s) {
      s.waiters.for_each([&](const waiter& w) {
        if (names.size() >= limit) return;
        std::string name = w.describe();
        if (std::find(names.begin(), names.end(), name) == names.end())
          names.push_back(std::move(name));
      });
    });
  }

private:
  static std::uint64_t trace_key(const Key& key) {
    return std::hash<Key>{}(key);
  }

  /// The key's slot, locked and created if absent; throws key_out_of_range
  /// for a key the store does not cover.
  slot_ref<Value> slot(const Key& key) const {
    slot_ref<Value> s = store_.find(key, true);
    if (!s) throw_out_of_range(key);
    return s;
  }

  /// The key's slot, locked, if it exists (never creates one). Still
  /// refuses a key the store does not cover: a poll on a key that can
  /// never be put would otherwise requeue forever.
  slot_ref<Value> existing_slot(const Key& key) const {
    slot_ref<Value> s = store_.find(key, false);
    if (!s && !store_.covers(key)) throw_out_of_range(key);
    return s;
  }

  [[noreturn]] void throw_out_of_range(const Key& key) const {
    throw key_out_of_range("key " + detail::key_string(key) +
                           " lies outside the key space of item "
                           "collection '" +
                           name_ + "'");
  }

  /// Copy the present value out of `s` (under its lock) and consume one
  /// declared get; the last declared consumer takes the value with it.
  void take_counted(item_slot<Value>& s, Value& out) const {
    if (s.remaining_gets > 0 && --s.remaining_gets == 0) {
      out = std::move(*s.value);
      s.value.reset();
      ctx_.metrics().collected.fetch_add(1, std::memory_order_relaxed);
    } else {
      out = *s.value;
    }
  }

  /// Counted lookup of the environment path: a success consumes one of
  /// the item's declared gets and counts as a successful get.
  bool try_get_counted(const Key& key, Value& out) const {
    {
      slot_ref<Value> s = existing_slot(key);
      if (!s || !s->value.has_value()) return false;
      take_counted(*s, out);
    }
    ctx_.metrics().gets_ok.fetch_add(1, std::memory_order_relaxed);
    return true;
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
      RDP_TRACE_EVENT(obs::event_kind::item_get, trace_name_, trace_key(key),
                      0);
      return;
    }
    RDP_TRACE_EVENT(obs::event_kind::data_wait_begin, trace_name_,
                    trace_key(key), 0);
    concurrent::backoff bo;
    for (;;) {
      if (try_get_counted(key, out)) {
        RDP_TRACE_EVENT(obs::event_kind::data_wait_end, trace_name_,
                        trace_key(key), 0);
        RDP_TRACE_EVENT(obs::event_kind::item_get, trace_name_,
                        trace_key(key), 0);
        return;
      }
      if (ctx_.pool().try_run_one()) {
        bo.reset();
        continue;
      }
      long s = 0;
      if (ctx_.quiescent(s)) {
        // Quiescent. Re-check once: a final put may have landed between
        // the failed lookup and the quiescence test.
        if (try_get_counted(key, out)) {
          RDP_TRACE_EVENT(obs::event_kind::data_wait_end, trace_name_,
                          trace_key(key), 0);
          RDP_TRACE_EVENT(obs::event_kind::item_get, trace_name_,
                          trace_key(key), 0);
          return;
        }
        RDP_TRACE_EVENT(obs::event_kind::data_wait_end, trace_name_,
                        trace_key(key), 0);
        if (std::exception_ptr error = ctx_.take_error())
          std::rethrow_exception(error);
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
  mutable Store store_;
};

}  // namespace rdp::cnc
