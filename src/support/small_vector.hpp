// Minimal inline-storage vector for hot per-step buffers. The first N
// elements live inside the object (no allocation on the fast path the
// executors care about: dependency lists of the classic O(1)-fan-in
// specs); growing past N moves to the heap, so variable-arity recurrences
// (Parenthesization-class, fan-in growing with problem size) use the same
// code path instead of overflowing a fixed array or being rejected at
// graph build. Deliberately tiny: exactly the surface the executors need,
// no insert/erase, non-copyable but movable (a spec's split() returns its
// plan by value).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace rdp {

template <class T, std::size_t N>
class small_vector {
  static_assert(N > 0, "inline capacity must be non-zero");

 public:
  small_vector() noexcept = default;
  small_vector(const small_vector&) = delete;
  small_vector& operator=(const small_vector&) = delete;

  /// Steals a heap buffer; moves inline elements one by one.
  small_vector(small_vector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (!other.is_inline()) {
      data_ = std::exchange(other.data_, other.inline_ptr());
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, N);
      return;
    }
    for (T& v : other) push_back(std::move(v));
    other.clear();
  }

  ~small_vector() {
    clear();
    if (!is_inline()) std::allocator<T>().deallocate(data_, capacity_);
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool empty() const noexcept { return size_ == 0; }
  bool is_inline() const noexcept {
    return data_ == reinterpret_cast<const T*>(static_cast<const void*>(inline_));
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T& back() noexcept { return data_[size_ - 1]; }

  void reserve(std::size_t cap) {
    if (cap > capacity_) grow(cap);
  }

  void push_back(const T& v) {
    if (size_ == capacity_) grow(capacity_ * 2);
    ::new (static_cast<void*>(data_ + size_)) T(v);
    ++size_;
  }

  void push_back(T&& v) {
    if (size_ == capacity_) grow(capacity_ * 2);
    ::new (static_cast<void*>(data_ + size_)) T(std::move(v));
    ++size_;
  }

  /// Destroy everything and value-initialize exactly `count` elements —
  /// the "fresh dependency-value slots for this tile" reset the data-flow
  /// steps perform per member without reallocating between tiles.
  void assign_default(std::size_t count) {
    clear();
    reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      ::new (static_cast<void*>(data_ + i)) T();
    size_ = count;
  }

  /// Destroy elements but keep the current capacity (inline or heap).
  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

 private:
  T* inline_ptr() noexcept {
    return reinterpret_cast<T*>(static_cast<void*>(inline_));
  }

  void grow(std::size_t want) {
    const std::size_t cap = want > 2 * capacity_ ? want : 2 * capacity_;
    T* fresh = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (!is_inline()) std::allocator<T>().deallocate(data_, capacity_);
    data_ = fresh;
    capacity_ = cap;
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* data_ = inline_ptr();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace rdp
