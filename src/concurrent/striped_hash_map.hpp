// Striped (lock-partitioned) concurrent hash map.
//
// This is the library's substitute for TBB's concurrent_hash_map, which the
// Intel CnC runtime uses to back item collections. Keys are hashed onto a
// power-of-two set of stripes, each protected by its own lock and holding an
// open-hashing bucket table. The map exposes a `mutate` primitive that runs a
// caller-supplied functor under the stripe lock — item collections use it to
// implement atomic "check value / enqueue waiter / publish value" steps.
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "concurrent/spinlock.hpp"
#include "support/assertions.hpp"
#include "support/math_utils.hpp"

namespace rdp::concurrent {

template <class Key, class Value, class Hash = std::hash<Key>>
class striped_hash_map {
public:
  explicit striped_hash_map(std::size_t stripe_count = 64)
      : stripes_(rdp::round_up_pow2(stripe_count)) {}

  striped_hash_map(const striped_hash_map&) = delete;
  striped_hash_map& operator=(const striped_hash_map&) = delete;

  /// Insert if absent. Returns true when this call inserted the value,
  /// false when the key was already present (value left untouched).
  bool insert(const Key& key, Value value) {
    stripe& s = stripe_for(key);
    std::scoped_lock lock(s.mutex);
    return s.table.emplace(key, std::move(value)).second;
  }

  /// Copy out the value for `key` if present.
  std::optional<Value> find(const Key& key) const {
    const stripe& s = stripe_for(key);
    std::scoped_lock lock(s.mutex);
    auto it = s.table.find(key);
    if (it == s.table.end()) return std::nullopt;
    return it->second;
  }

  bool contains(const Key& key) const {
    const stripe& s = stripe_for(key);
    std::scoped_lock lock(s.mutex);
    return s.table.count(key) != 0;
  }

  /// Run `fn(Value&)` under the stripe lock; the entry is default-constructed
  /// first if absent. The functor's return value is passed through.
  /// `fn` must not call back into this map (lock is held).
  template <class Fn>
  auto mutate(const Key& key, Fn&& fn) {
    stripe& s = stripe_for(key);
    std::scoped_lock lock(s.mutex);
    return fn(s.table[key]);
  }

  /// The entry for `key` together with its held stripe lock: default-
  /// constructed first if absent when `create`, else nullptr if absent.
  /// The pointer is valid while the lock is held; do not call back into
  /// the map meanwhile.
  std::pair<std::unique_lock<spinlock>, Value*> lock_entry(const Key& key,
                                                           bool create) {
    stripe& s = stripe_for(key);
    std::unique_lock lock(s.mutex);
    if (create) return {std::move(lock), &s.table[key]};
    auto it = s.table.find(key);
    return {std::move(lock), it == s.table.end() ? nullptr : &it->second};
  }

  /// Run `fn(const Value&)` under the stripe lock if the key exists;
  /// returns whether it existed.
  template <class Fn>
  bool visit(const Key& key, Fn&& fn) const {
    const stripe& s = stripe_for(key);
    std::scoped_lock lock(s.mutex);
    auto it = s.table.find(key);
    if (it == s.table.end()) return false;
    fn(it->second);
    return true;
  }

  bool erase(const Key& key) {
    stripe& s = stripe_for(key);
    std::scoped_lock lock(s.mutex);
    return s.table.erase(key) != 0;
  }

  /// Total element count. Takes every stripe lock; not for hot paths.
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : stripes_) {
      std::scoped_lock lock(s.mutex);
      n += s.table.size();
    }
    return n;
  }

  bool empty() const { return size() == 0; }

  void clear() {
    for (auto& s : stripes_) {
      std::scoped_lock lock(s.mutex);
      s.table.clear();
    }
  }

  /// Snapshot iteration: `fn(key, value)` per element, one stripe at a time.
  /// Concurrent mutation of *other* stripes is allowed meanwhile.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& s : stripes_) {
      std::scoped_lock lock(s.mutex);
      for (const auto& [k, v] : s.table) fn(k, v);
    }
  }
  template <class Fn>
  void for_each(Fn&& fn) {
    for (auto& s : stripes_) {
      std::scoped_lock lock(s.mutex);
      for (auto& [k, v] : s.table) fn(k, v);
    }
  }

private:
  struct stripe {
    mutable spinlock mutex;
    std::unordered_map<Key, Value, Hash> table;
  };

  stripe& stripe_for(const Key& key) {
    return stripes_[Hash{}(key) & (stripes_.size() - 1)];
  }
  const stripe& stripe_for(const Key& key) const {
    return stripes_[Hash{}(key) & (stripes_.size() - 1)];
  }

  std::vector<stripe> stripes_;
};

}  // namespace rdp::concurrent
