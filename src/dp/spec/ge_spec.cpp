// Gaussian Elimination recurrence spec (the paper's running example,
// Listings 2-5). The split stages reproduce Fig. 2 / Listing 3; the
// dependency function and consumer counts reproduce Listing 5.
#include "dp/spec/specs.hpp"

#include "dp/common.hpp"
#include "dp/kernels.hpp"
#include "support/assertions.hpp"

namespace rdp::dp {

namespace {

class ge_spec final : public recurrence {
 public:
  ge_spec(matrix<double>& m, std::size_t base) : m_(m), base_(base) {
    RDP_REQUIRE(m.rows() == m.cols());
    RDP_REQUIRE_MSG(base > 0 && m.rows() % base == 0,
                    "base size must divide n");
  }

  const char* name() const override { return "GE"; }
  structure_kind structure() const override {
    return structure_kind::abcd_triangular;
  }
  std::size_t size() const override { return m_.rows(); }
  std::size_t base() const override { return base_; }

  split_plan split(const tile4& t) const override {
    const std::int32_t h = t.b / 2;
    split_plan plan;
    switch (classify(t.i, t.j, t.k)) {
      case task_kind::A: {
        // funcA (Listing 3): A; {B ∥ C}; D; A on the lower-right half.
        const std::int32_t d = 2 * t.i;
        plan.stage({{d, d, d, h}});
        plan.stage({{d, d + 1, d, h}, {d + 1, d, d, h}});
        plan.stage({{d + 1, d + 1, d, h}});
        plan.stage({{d + 1, d + 1, d + 1, h}});
        break;
      }
      case task_kind::B: {
        const std::int32_t i2 = 2 * t.i, j2 = 2 * t.j, k2 = 2 * t.k;
        plan.stage({{i2, j2, k2, h}, {i2, j2 + 1, k2, h}});
        plan.stage({{i2 + 1, j2, k2, h}, {i2 + 1, j2 + 1, k2, h}});
        plan.stage({{i2 + 1, j2, k2 + 1, h}, {i2 + 1, j2 + 1, k2 + 1, h}});
        break;
      }
      case task_kind::C: {
        const std::int32_t i2 = 2 * t.i, j2 = 2 * t.j, k2 = 2 * t.k;
        plan.stage({{i2, j2, k2, h}, {i2 + 1, j2, k2, h}});
        plan.stage({{i2, j2 + 1, k2, h}, {i2 + 1, j2 + 1, k2, h}});
        plan.stage({{i2, j2 + 1, k2 + 1, h}, {i2 + 1, j2 + 1, k2 + 1, h}});
        break;
      }
      case task_kind::D: {
        const std::int32_t i2 = 2 * t.i, j2 = 2 * t.j, k2 = 2 * t.k;
        for (std::int32_t kk = 0; kk < 2; ++kk)
          plan.stage({{i2, j2, k2 + kk, h},
                      {i2, j2 + 1, k2 + kk, h},
                      {i2 + 1, j2, k2 + kk, h},
                      {i2 + 1, j2 + 1, k2 + kk, h}});
        break;
      }
    }
    return plan;
  }

  // Dependencies of a base task (I,J,K) of each kind, exactly as in
  // Listing 5: write-write on its own previous update (I,J,K-1) — always a
  // D output for K > 0 — plus read dependencies on the pivot-block outputs.
  //
  //   A(K,K,K): ww D(K,K,K-1)
  //   B(K,J,K): ww D(K,J,K-1); read A(K,K,K)
  //   C(I,K,K): ww D(I,K,K-1); read A(K,K,K)
  //   D(I,J,K): ww D(I,J,K-1); read A(K,K,K), B(K,J,K), C(I,K,K)
  void depends(const tile3& t, const dep_sink& need) const override {
    if (t.k > 0) need({t.i, t.j, t.k - 1});
    switch (classify(t.i, t.j, t.k)) {
      case task_kind::A:
        break;
      case task_kind::B:
      case task_kind::C:
        need({t.k, t.k, t.k});
        break;
      case task_kind::D:
        need({t.k, t.k, t.k});
        need({t.k, t.j, t.k});
        need({t.i, t.k, t.k});
        break;
    }
  }

  /// Tight instance-wide maximum. D tasks carry the widest fan-in
  /// (write-write + A + B + C reads = 4), but a D with a write-write
  /// predecessor needs K >= 1, i.e. at least 3 tiles per side; at T == 2
  /// the widest is a first-round D (3), and a single tile has none.
  std::size_t max_dependencies() const override {
    const std::size_t t = m_.rows() / base_;
    if (t <= 1) return 0;
    return t == 2 ? 3 : 4;
  }

  /// Per-tile: the write-write predecessor (K > 0 only) plus the kind's
  /// read fan-in from Listing 5.
  std::size_t dependency_bound(const tile3& t) const override {
    std::size_t b = t.k > 0 ? 1 : 0;
    switch (classify(t.i, t.j, t.k)) {
      case task_kind::A: break;
      case task_kind::B:
      case task_kind::C: b += 1; break;
      case task_kind::D: b += 3; break;
    }
    return b;
  }

  /// Exact consumer count of each output item (get-count GC):
  ///   A(K,K,K): (T-1-K) B readers + (T-1-K) C readers + (T-1-K)^2 D readers
  ///   B(K,J,K): (T-1-K) D readers;  C(I,K,K): (T-1-K) D readers
  ///   D(I,J,K): one write-write successor (always exists: K < min(I,J))
  /// A count of zero (the final A) means "keep forever".
  std::uint32_t consumer_count(const tile3& t) const override {
    const auto rest = static_cast<std::uint32_t>(
        m_.rows() / base_ - 1 - static_cast<std::size_t>(t.k));
    switch (classify(t.i, t.j, t.k)) {
      case task_kind::A: return 2 * rest + rest * rest;
      case task_kind::B:
      case task_kind::C: return rest;
      case task_kind::D: return 1;
    }
    return 0;
  }

  void enumerate_base(const tag_sink& emit) const override {
    const auto n_tiles = static_cast<std::int32_t>(m_.rows() / base_);
    const auto b = static_cast<std::int32_t>(base_);
    for (std::int32_t k = 0; k < n_tiles; ++k) {
      emit({k, k, k, b});
      for (std::int32_t j = k + 1; j < n_tiles; ++j) emit({k, j, k, b});
      for (std::int32_t i = k + 1; i < n_tiles; ++i) emit({i, k, k, b});
      for (std::int32_t i = k + 1; i < n_tiles; ++i)
        for (std::int32_t j = k + 1; j < n_tiles; ++j) emit({i, j, k, b});
    }
  }

  std::uint64_t base_work(const tile3& t, std::uint64_t b) const override {
    switch (classify(t.i, t.j, t.k)) {
      case task_kind::A:
        // sum_{k=0}^{b-1} (b-1-k)^2
        return (b - 1) * b * (2 * b - 1) / 6;
      case task_kind::B:
      case task_kind::C:
        // sum_{k=0}^{b-1} (b-1-k) * b
        return b * b * (b - 1) / 2;
      case task_kind::D:
        return b * b * b;
    }
    return 0;
  }

  void run_base(const tile4& t) override {
    const auto b = static_cast<std::size_t>(t.b);
    ge_kernel(m_.data(), m_.rows(), t.i * b, t.j * b, t.k * b, b);
  }

 private:
  matrix<double>& m_;
  std::size_t base_;
};

}  // namespace

std::unique_ptr<recurrence> make_ge_spec(matrix<double>& m,
                                         std::size_t base) {
  return std::make_unique<ge_spec>(m, base);
}

}  // namespace rdp::dp
