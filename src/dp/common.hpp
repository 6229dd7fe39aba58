// Shared types for the tiled / recursive DP implementations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>

#include "support/assertions.hpp"
#include "support/math_utils.hpp"

namespace rdp::dp {

/// Coordinates of one base-case tile task: tile (i, j) updated with pivot
/// block k (k is unused / zero for Smith-Waterman, whose tiles are written
/// once). This is the `CollectionT` of the paper's Listing 4, with the block
/// size implied by the context.
struct tile3 {
  std::int32_t i = 0;
  std::int32_t j = 0;
  std::int32_t k = 0;

  friend bool operator==(const tile3&, const tile3&) = default;
  friend std::ostream& operator<<(std::ostream& os, const tile3& t) {
    return os << '(' << t.i << ',' << t.j << ',' << t.k << ')';
  }
};

/// Recursive-subdivision tag: tile (i, j), pivot block k, block size b —
/// exactly the pair<pair<int,int>,pair<int,int>> of the paper's Listing 4.
struct tile4 {
  std::int32_t i = 0;
  std::int32_t j = 0;
  std::int32_t k = 0;
  std::int32_t b = 0;

  friend bool operator==(const tile4&, const tile4&) = default;
};

/// Kind of a GE/FW base task, derived from its coordinates: A updates the
/// pivot block itself, B a block in the pivot row, C in the pivot column,
/// D everything else.
enum class task_kind : std::uint8_t { A, B, C, D };

constexpr task_kind classify(std::int32_t i, std::int32_t j, std::int32_t k) {
  if (i == k && j == k) return task_kind::A;
  if (i == k) return task_kind::B;
  if (j == k) return task_kind::C;
  return task_kind::D;
}

constexpr const char* to_string(task_kind k) {
  switch (k) {
    case task_kind::A: return "A";
    case task_kind::B: return "B";
    case task_kind::C: return "C";
    case task_kind::D: return "D";
  }
  return "?";
}

/// Problem geometry: n×n table cut into T×T tiles of size b (b divides n).
struct tiling {
  std::size_t n = 0;
  std::size_t b = 0;

  tiling(std::size_t n_, std::size_t b_) : n(n_), b(b_) {
    RDP_REQUIRE_MSG(b > 0 && n % b == 0, "base size must divide n");
  }
  std::size_t tiles() const { return n / b; }
};

inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace rdp::dp

template <>
struct std::hash<rdp::dp::tile3> {
  std::size_t operator()(const rdp::dp::tile3& t) const noexcept {
    const std::uint64_t v = (static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(t.i)) << 42) ^
                            (static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(t.j)) << 21) ^
                            static_cast<std::uint32_t>(t.k);
    return static_cast<std::size_t>(rdp::dp::mix64(v));
  }
};

template <>
struct std::hash<rdp::dp::tile4> {
  std::size_t operator()(const rdp::dp::tile4& t) const noexcept {
    std::uint64_t v = static_cast<std::uint32_t>(t.i);
    v = v * 0x100000001b3ULL ^ static_cast<std::uint32_t>(t.j);
    v = v * 0x100000001b3ULL ^ static_cast<std::uint32_t>(t.k);
    v = v * 0x100000001b3ULL ^ static_cast<std::uint32_t>(t.b);
    return static_cast<std::size_t>(rdp::dp::mix64(v));
  }
};
