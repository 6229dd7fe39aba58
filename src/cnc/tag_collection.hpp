// Tag collections: the control half of a CnC graph.
//
// Putting a tag causes one dynamic instance of every prescribed step
// collection to be created (with that tag as input). Tag collections are
// *sets*: putting the same tag twice prescribes only once — this memoisation
// is what lets several producers put the tag of a common successor (e.g. the
// three neighbours of a Smith-Waterman tile) without duplicating work.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cnc/context.hpp"
#include "concurrent/striped_hash_map.hpp"

namespace rdp::cnc {

template <class Tag, class Hash = std::hash<Tag>>
class tag_collection {
public:
  /// `memoize` == false disables the duplicate-tag filter (cheaper puts;
  /// only valid when the program provably puts each tag at most once).
  tag_collection(context_base& ctx, std::string name, bool memoize = true)
      : ctx_(ctx), name_(std::move(name)), memoize_(memoize) {}

  tag_collection(const tag_collection&) = delete;
  tag_collection& operator=(const tag_collection&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Wire this tag collection to prescribe `steps` (any step_collection
  /// whose tag type is Tag). May be called several times to prescribe
  /// multiple step collections, as in the CnC specification language
  ///     <myCtrl> :: (stepA), (stepB);
  template <class StepCollection>
  void prescribe(StepCollection& steps) {
    prescriptions_.push_back(
        [&steps](const Tag& tag) { steps.spawn(tag); });
  }

  /// Put a tag: prescribe one instance of every wired step collection.
  void put(const Tag& tag) {
    ctx_.metrics().tags_put.fetch_add(1, std::memory_order_relaxed);
    if (memoize_ && !seen_.insert(tag, true)) return;  // duplicate tag
    for (const auto& prescribe_fn : prescriptions_) prescribe_fn(tag);
  }

  std::size_t prescription_count() const noexcept {
    return prescriptions_.size();
  }

private:
  context_base& ctx_;
  std::string name_;
  bool memoize_;
  std::vector<std::function<void(const Tag&)>> prescriptions_;
  concurrent::striped_hash_map<Tag, bool, Hash> seen_;
};

}  // namespace rdp::cnc
