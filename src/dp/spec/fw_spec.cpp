// Floyd-Warshall recurrence spec. Unlike GE, every tile is updated in
// every pivot round, so the data-flow lowering is value-passing: a base
// step consumes immutable tile snapshots and produces a new one, and round
// K's tile (I,J) is keyed {I,J,K} with the environment seeding round -1.
// The in-place hooks (run_base) drive serial/fork-join/tiled/r-way, which
// order the rounds through joins instead.
#include "dp/spec/specs.hpp"

#include <utility>

#include "dp/common.hpp"
#include "dp/kernels.hpp"
#include "support/assertions.hpp"

namespace rdp::dp {

namespace {

class fw_spec final : public recurrence {
 public:
  fw_spec(matrix<double>& m, std::size_t base) : m_(m), base_(base) {
    RDP_REQUIRE(m.rows() == m.cols());
    RDP_REQUIRE_MSG(base > 0 && m.rows() % base == 0,
                    "base size must divide n");
  }

  const char* name() const override { return "FW"; }
  structure_kind structure() const override {
    return structure_kind::abcd_full;
  }
  std::size_t size() const override { return m_.rows(); }
  std::size_t base() const override { return base_; }

  split_plan split(const tile4& t) const override {
    const std::int32_t h = t.b / 2;
    const std::int32_t i2 = 2 * t.i, j2 = 2 * t.j, k2 = 2 * t.k;
    split_plan plan;
    switch (classify(t.i, t.j, t.k)) {
      case task_kind::A:
        // Forward sweep over the k2 half, then the backward sweep that
        // re-updates the first three quadrants against the new pivot —
        // FW's funcA spawns all eight children (§IV-A).
        plan.stage({{i2, j2, k2, h}});
        plan.stage({{i2, j2 + 1, k2, h}, {i2 + 1, j2, k2, h}});
        plan.stage({{i2 + 1, j2 + 1, k2, h}});
        plan.stage({{i2 + 1, j2 + 1, k2 + 1, h}});
        plan.stage({{i2 + 1, j2, k2 + 1, h}, {i2, j2 + 1, k2 + 1, h}});
        plan.stage({{i2, j2, k2 + 1, h}});
        break;
      case task_kind::B:
        plan.stage({{i2, j2, k2, h}, {i2, j2 + 1, k2, h}});
        plan.stage({{i2 + 1, j2, k2, h}, {i2 + 1, j2 + 1, k2, h}});
        plan.stage({{i2 + 1, j2, k2 + 1, h}, {i2 + 1, j2 + 1, k2 + 1, h}});
        plan.stage({{i2, j2, k2 + 1, h}, {i2, j2 + 1, k2 + 1, h}});
        break;
      case task_kind::C:
        plan.stage({{i2, j2, k2, h}, {i2 + 1, j2, k2, h}});
        plan.stage({{i2, j2 + 1, k2, h}, {i2 + 1, j2 + 1, k2, h}});
        plan.stage({{i2, j2 + 1, k2 + 1, h}, {i2 + 1, j2 + 1, k2 + 1, h}});
        plan.stage({{i2, j2, k2 + 1, h}, {i2 + 1, j2, k2 + 1, h}});
        break;
      case task_kind::D:
        for (std::int32_t kk = 0; kk < 2; ++kk)
          plan.stage({{i2, j2, k2 + kk, h},
                      {i2, j2 + 1, k2 + kk, h},
                      {i2 + 1, j2, k2 + kk, h},
                      {i2 + 1, j2 + 1, k2 + kk, h}});
        break;
    }
    return plan;
  }

  // Round-K tile (I,J) always consumes its own round-(K-1) snapshot (the
  // environment seeds round -1), plus the pivot-round inputs of its kind:
  //   A(K,K,K): nothing more — it is the pivot
  //   B(K,J,K): the pivot tile A(K,K,K)          (u = A, v = self)
  //   C(I,K,K): the pivot tile A(K,K,K)          (u = self, v = A)
  //   D(I,J,K): C's output (I,K,K), then B's output (K,J,K)
  void depends(const tile3& t, const dep_sink& need) const override {
    need({t.i, t.j, t.k - 1});
    switch (classify(t.i, t.j, t.k)) {
      case task_kind::A:
        break;
      case task_kind::B:
      case task_kind::C:
        need({t.k, t.k, t.k});
        break;
      case task_kind::D:
        need({t.i, t.k, t.k});
        need({t.k, t.j, t.k});
        break;
    }
  }

  /// Tight instance-wide maximum: D tasks carry the widest fan-in
  /// (round-(K-1) snapshot + C + B reads = 3); a single-tile instance has
  /// only the pivot A with its seed snapshot.
  std::size_t max_dependencies() const override {
    return m_.rows() / base_ <= 1 ? 1 : 3;
  }

  /// Per-tile: the previous-round snapshot (always, seeds cover k == 0)
  /// plus the kind's pivot-round reads.
  std::size_t dependency_bound(const tile3& t) const override {
    switch (classify(t.i, t.j, t.k)) {
      case task_kind::A: return 1;
      case task_kind::B:
      case task_kind::C: return 2;
      case task_kind::D: return 3;
    }
    return 3;
  }

  /// Exact consumer count of the snapshot produced for key t (seed keys
  /// have k == -1). Every non-final snapshot feeds its round-(k+1)
  /// successor; pivot-round outputs additionally feed the round's readers
  /// (A: the T-1 B tiles + T-1 C tiles; B/C: the T-1 D tiles in their
  /// column/row); final-round snapshots are collected once by the
  /// environment gather.
  std::uint32_t consumer_count(const tile3& t) const override {
    if (t.k < 0) return 1;  // seed: read only by the round-0 step
    const auto n_tiles = static_cast<std::int32_t>(m_.rows() / base_);
    const std::int32_t last = n_tiles - 1;
    const auto readers = static_cast<std::uint32_t>(last);
    std::uint32_t gets = t.k < last ? 1u : 0u;
    switch (classify(t.i, t.j, t.k)) {
      case task_kind::A: gets += 2 * readers; break;
      case task_kind::B:
      case task_kind::C: gets += readers; break;
      case task_kind::D: break;
    }
    if (t.k == last) ++gets;  // environment gather
    return gets;
  }

  void enumerate_base(const tag_sink& emit) const override {
    const auto n_tiles = static_cast<std::int32_t>(m_.rows() / base_);
    const auto b = static_cast<std::int32_t>(base_);
    for (std::int32_t k = 0; k < n_tiles; ++k)
      for (std::int32_t i = 0; i < n_tiles; ++i)
        for (std::int32_t j = 0; j < n_tiles; ++j) emit({i, j, k, b});
  }

  /// Every FW tile task relaxes the full cube slice.
  std::uint64_t base_work(const tile3&, std::uint64_t b) const override {
    return b * b * b;
  }

  void run_base(const tile4& t) override {
    const auto b = static_cast<std::size_t>(t.b);
    fw_kernel(m_.data(), m_.rows(), t.i * b, t.j * b, t.k * b, b);
  }

  // ---- value-passing data-flow lowering ---------------------------------

  bool value_passing() const override { return true; }

  tile_value run_base_value(const tile3& t,
                            const tile_value* deps) const override {
    const auto b = static_cast<std::size_t>(base_);
    auto out = std::make_shared<std::vector<double>>(*deps[0]);
    switch (classify(t.i, t.j, t.k)) {
      case task_kind::A:
        fw_tile_kernel(out->data(), out->data(), out->data(), b);
        break;
      case task_kind::B:
        fw_tile_kernel(out->data(), deps[1]->data(), out->data(), b);
        break;
      case task_kind::C:
        fw_tile_kernel(out->data(), out->data(), deps[1]->data(), b);
        break;
      case task_kind::D:
        fw_tile_kernel(out->data(), deps[1]->data(), deps[2]->data(), b);
        break;
    }
    return out;
  }

  void seed_values(value_store& store) override {
    const auto n_tiles = static_cast<std::int32_t>(m_.rows() / base_);
    for (std::int32_t ti = 0; ti < n_tiles; ++ti)
      for (std::int32_t tj = 0; tj < n_tiles; ++tj) {
        auto buf = std::make_shared<std::vector<double>>(base_ * base_);
        for (std::size_t r = 0; r < base_; ++r)
          for (std::size_t col = 0; col < base_; ++col)
            (*buf)[r * base_ + col] = m_(ti * base_ + r, tj * base_ + col);
        store.put({ti, tj, -1}, std::move(buf));
      }
  }

  void gather_values(value_store& store) override {
    const auto n_tiles = static_cast<std::int32_t>(m_.rows() / base_);
    const std::int32_t last = n_tiles - 1;
    for (std::int32_t ti = 0; ti < n_tiles; ++ti)
      for (std::int32_t tj = 0; tj < n_tiles; ++tj) {
        const tile_value out = store.get({ti, tj, last});
        for (std::size_t r = 0; r < base_; ++r)
          for (std::size_t col = 0; col < base_; ++col)
            m_(ti * base_ + r, tj * base_ + col) = (*out)[r * base_ + col];
      }
  }

 private:
  matrix<double>& m_;
  std::size_t base_;
};

}  // namespace

std::unique_ptr<recurrence> make_fw_spec(matrix<double>& m,
                                         std::size_t base) {
  return std::make_unique<fw_spec>(m, base);
}

}  // namespace rdp::dp
