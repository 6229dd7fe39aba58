// Test-local forwarding decorator over a recurrence spec, token- or
// value-passing: every hook delegates to the wrapped spec, so a test
// overrides exactly the hook it perturbs (a seeded inconsistency, a blocking
// or throwing kernel) and the rest of the graph stays the real one. split()
// is the shared rule of the forwarded structure(), as for every spec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "dp/spec/spec.hpp"

namespace rdp::test {

class forwarding_spec : public dp::recurrence {
 public:
  explicit forwarding_spec(std::unique_ptr<dp::recurrence> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  dp::structure_kind structure() const override { return inner_->structure(); }
  std::size_t size() const override { return inner_->size(); }
  std::size_t base() const override { return inner_->base(); }
  void depends(const dp::tile3& t, const dp::dep_sink& need) const override {
    inner_->depends(t, need);
  }
  void enumerate_base(const dp::tag_sink& emit) const override {
    inner_->enumerate_base(emit);
  }
  std::uint64_t base_work(const dp::tile3& t, std::uint64_t b) const override {
    return inner_->base_work(t, b);
  }
  void run_base(const dp::tile4& t) override { inner_->run_base(t); }
  bool value_passing() const override { return inner_->value_passing(); }
  dp::tile_value run_base_value(const dp::tile3& t,
                                const dp::tile_value* deps) const override {
    return inner_->run_base_value(t, deps);
  }
  void seed_values(dp::value_store& store) override {
    inner_->seed_values(store);
  }
  void gather_values(dp::value_store& store) override {
    inner_->gather_values(store);
  }

 protected:
  std::unique_ptr<dp::recurrence> inner_;
};

}  // namespace rdp::test
