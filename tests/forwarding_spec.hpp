// Test-local forwarding decorator over a token-passing recurrence spec:
// every hook delegates to the wrapped spec, so a test overrides exactly the
// hook it perturbs (a seeded inconsistency, a blocking kernel) and the rest
// of the graph stays the real one.
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
  dp::split_plan split(const dp::tile4& t) const override {
    return inner_->split(t);
  }
  void depends(const dp::tile3& t, const dp::dep_sink& need) const override {
    inner_->depends(t, need);
  }
  std::size_t max_dependencies() const override {
    return inner_->max_dependencies();
  }
  std::size_t dependency_bound(const dp::tile3& t) const override {
    return inner_->dependency_bound(t);
  }
  std::uint32_t consumer_count(const dp::tile3& t) const override {
    return inner_->consumer_count(t);
  }
  void enumerate_base(const dp::tag_sink& emit) const override {
    inner_->enumerate_base(emit);
  }
  void run_base(const dp::tile4& t) override { inner_->run_base(t); }

 protected:
  std::unique_ptr<dp::recurrence> inner_;
};

}  // namespace rdp::test
