// Parenthesization (matrix-chain ordering) recurrence spec — the paper's
// third classic R-DP and this repo's first >O(1)-dependency recurrence:
//
//   C[i][j] = min_{i<=k<j} ( C[i][k] + C[k+1][j] + p[i]*p[k+1]*p[j+1] )
//   C[i][i] = 0
//
// over the upper triangle of an n×n table, where p = dims (the n+1 matrix
// dimensions). Tile (I,J) on diagonal d = J-I reads the whole row segment
// (I,K) for K < J and column segment (K,J) for K > I: fan-in 2(J-I),
// growing with the diagonal, so the executors' dependency lists spill
// past their inline storage (Tang's "Nested Dataflow Algorithms for
// DP Recurrences with more than O(1) Dependency", PAPERS.md). Each tile
// is written once, so boolean signalling over the shared table is
// race-free (token graph, like GE/SW).
//
// Its split is the diagonal_3way rule (spec/split.cpp); at r = 2 that is
// the classic Par-DP decomposition restated as staged regions: a diagonal
// region (I,I) splits into its two sub-diagonals (in parallel) then the
// off-diagonal block between them; an off-diagonal region (I,J) splits
// into its four quadrants in anti-diagonal phases, bottom-left (2I+1,2J)
// first — every quadrant's external reads lie in regions earlier stages
// (or ancestors' earlier stages) already ran, which dp::verify_spec checks
// mechanically.
#include "dp/spec/specs.hpp"

#include <limits>

#include "dp/common.hpp"
#include "support/assertions.hpp"

namespace rdp::dp {

namespace {

class paren_spec final : public recurrence {
 public:
  paren_spec(matrix<double>& c, const std::vector<double>& dims,
             std::size_t base)
      : c_(c), dims_(dims), base_(base) {
    RDP_REQUIRE(c.rows() == c.cols());
    RDP_REQUIRE_MSG(dims.size() == c.rows() + 1,
                    "Parenthesization needs n+1 dimensions for n matrices");
    RDP_REQUIRE_MSG(base > 0 && c.rows() % base == 0,
                    "base size must divide n");
  }

  const char* name() const override { return "Paren"; }
  structure_kind structure() const override {
    return structure_kind::diagonal_3way;
  }
  std::size_t size() const override { return c_.rows(); }
  std::size_t base() const override { return base_; }

  /// Row segment first (left to right), then column segment (top to
  /// bottom) — a fixed order so value-passing consumers (none today)
  /// would see deterministic slots.
  void depends(const tile3& t, const dep_sink& need) const override {
    for (std::int32_t k = t.i; k < t.j; ++k) need({t.i, k, 0});
    for (std::int32_t k = t.i + 1; k <= t.j; ++k) need({k, t.j, 0});
  }

  /// Diagonal-major (a topological order of the tile DAG).
  void enumerate_base(const tag_sink& emit) const override {
    const auto n_tiles = static_cast<std::int32_t>(c_.rows() / base_);
    const auto b = static_cast<std::int32_t>(base_);
    for (std::int32_t d = 0; d < n_tiles; ++d)
      for (std::int32_t i = 0; i + d < n_tiles; ++i) emit({i, i + d, 0, b});
  }

  /// Base kernel: rows descending, columns ascending — every in-tile read
  /// (row segment left of j, column segment below i) is already final.
  /// The full min over k per cell keeps every execution order bit-exact:
  /// each candidate is the same fixed expression, min is order-free.
  void run_base(const tile4& t) override {
    const auto b = static_cast<std::size_t>(t.b);
    const std::size_t i_lo = t.i * b, j_lo = t.j * b;
    for (std::size_t i = i_lo + b; i-- > i_lo;) {
      const std::size_t j_start = t.i == t.j ? i : j_lo;
      if (t.i == t.j) c_(i, i) = 0.0;
      for (std::size_t j = j_start + (t.i == t.j ? 1 : 0); j < j_lo + b;
           ++j) {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t k = i; k < j; ++k) {
          const double cand =
              c_(i, k) + c_(k + 1, j) + dims_[i] * dims_[k + 1] * dims_[j + 1];
          if (cand < best) best = cand;
        }
        c_(i, j) = best;
      }
    }
  }

 private:
  matrix<double>& c_;
  const std::vector<double>& dims_;
  std::size_t base_;
};

}  // namespace

std::unique_ptr<recurrence> make_paren_spec(matrix<double>& c,
                                            const std::vector<double>& dims,
                                            std::size_t base) {
  return std::make_unique<paren_spec>(c, dims, base);
}

void paren_loop_serial(matrix<double>& c, const std::vector<double>& dims) {
  RDP_REQUIRE(c.rows() == c.cols() && dims.size() == c.rows() + 1);
  const std::size_t n = c.rows();
  for (std::size_t i = 0; i < n; ++i) c(i, i) = 0.0;
  for (std::size_t len = 2; len <= n; ++len)
    for (std::size_t i = 0; i + len <= n; ++i) {
      const std::size_t j = i + len - 1;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t k = i; k < j; ++k) {
        const double cand =
            c(i, k) + c(k + 1, j) + dims[i] * dims[k + 1] * dims[j + 1];
        if (cand < best) best = cand;
      }
      c(i, j) = best;
    }
}

}  // namespace rdp::dp
