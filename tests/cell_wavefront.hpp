// Test-local wavefront DP defined by a cell functor
//
//     T operator()(T nw, T north, T west, std::size_t i, std::size_t j);
//
// (i, j are 1-based table coordinates). cell_spec is a dp::recurrence:
// the tile-wavefront structure (split, NW/N/W dependencies, consumer
// counts) comes from dp::wavefront_recurrence, the base case fills one tile
// with the functor. Any src/exec backend runs it; fill_cells over the whole
// table is the row-by-row loop oracle, and handles rectangular tables too.
#pragma once

#include <cstddef>
#include <functional>

#include "dp/spec/wavefront_base.hpp"
#include "support/assertions.hpp"
#include "support/matrix.hpp"

namespace rdp::test {

/// A (rows+1)×(cols+1) table whose row 0 / column 0 hold top(j) / left(i)
/// (T{} when the function is null) and whose interior is T{}.
template <class T>
matrix<T> boundary_table(std::size_t rows, std::size_t cols,
                         const std::function<T(std::size_t)>& top = nullptr,
                         const std::function<T(std::size_t)>& left = nullptr) {
  matrix<T> t(rows + 1, cols + 1, T{});
  for (std::size_t j = 0; j <= cols; ++j) t(0, j) = top ? top(j) : T{};
  for (std::size_t i = 0; i <= rows; ++i) t(i, 0) = left ? left(i) : T{};
  return t;
}

/// Fill rows [i0+1, i0+1+bi) × cols [j0+1, j0+1+bj) of `t` with `cell`.
template <class T, class Cell>
void fill_cells(matrix<T>& t, const Cell& cell, std::size_t i0,
                std::size_t j0, std::size_t bi, std::size_t bj) {
  RDP_REQUIRE_MSG(i0 + bi < t.rows() && j0 + bj < t.cols(),
                  "tile exceeds the table");
  for (std::size_t i = i0 + 1; i <= i0 + bi; ++i)
    for (std::size_t j = j0 + 1; j <= j0 + bj; ++j)
      t(i, j) = cell(t(i - 1, j - 1), t(i - 1, j), t(i, j - 1), i, j);
}

/// The row-by-row loop oracle over the whole interior.
template <class T, class Cell>
void fill_loop(matrix<T>& t, const Cell& cell) {
  fill_cells(t, cell, 0, 0, t.rows() - 1, t.cols() - 1);
}

/// The cell-functor wavefront as a recurrence spec over a square table.
template <class T, class Cell>
class cell_spec final : public dp::wavefront_recurrence {
 public:
  cell_spec(matrix<T>& t, Cell cell, std::size_t base)
      : wavefront_recurrence(t.rows() - 1, base), t_(t), cell_(cell) {
    RDP_REQUIRE_MSG(t.rows() == t.cols(),
                    "tiled execution needs a square problem");
  }

  const char* name() const override { return "cell_wavefront"; }

  void run_base(const dp::tile4& tile) override {
    const auto b = static_cast<std::size_t>(tile.b);
    fill_cells(t_, cell_, tile.i * b, tile.j * b, b, b);
  }

 private:
  matrix<T>& t_;
  Cell cell_;
};

}  // namespace rdp::test
