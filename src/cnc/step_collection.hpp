// Step collections: the computation half of a CnC graph.
//
// A step collection wraps a user functor `Step` with
//     int execute(const Tag& tag, Ctx& ctx) const;
// Each tag put into a prescribing tag collection creates one dynamic step
// instance. The collection's schedule_policy selects the tuner:
//
//  * spawn_immediately (Native-CnC): dispatch at prescription time; unmet
//    blocking gets abort + park + re-execute.
//  * preschedule (Tuner-CnC): if the step also provides
//        void depends(const Tag&, Ctx&, dependency_collector&) const;
//    the instance is dispatched only once every declared item exists, so
//    its gets never fail (the pre-scheduling tuner of §III-D).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "cnc/context.hpp"
#include "cnc/errors.hpp"
#include "cnc/key_string.hpp"
#include "cnc/step_instance.hpp"
#include "cnc/waiter.hpp"
#include "obs/tracer.hpp"
#include "support/assertions.hpp"

namespace rdp::cnc {

/// Collects the declared dependencies of a step instance (preschedule
/// tuner). require() registers the instance's countdown on the item's
/// waiter list immediately using an increment-then-register protocol, so
/// concurrent puts are safe. Each absent item takes one arena-allocated
/// countdown_registration; a present one reuses the spare for the next key.
class dependency_collector {
public:
  explicit dependency_collector(detail::preschedule_countdown& countdown)
      : countdown_(countdown) {}
  ~dependency_collector() { delete spare_; }

  dependency_collector(const dependency_collector&) = delete;
  dependency_collector& operator=(const dependency_collector&) = delete;

  /// Declare that the step will get() `key` from `items`. The key type is
  /// taken from the collection so braced initialiser lists work.
  template <class ItemCollection>
  void require(ItemCollection& items,
               const typename ItemCollection::key_type& key) {
    if (spare_ == nullptr)
      spare_ = new detail::countdown_registration(countdown_);
    std::atomic<long>& remaining = countdown_.remaining();
    remaining.fetch_add(1, std::memory_order_acq_rel);
    bool present;
    try {
      present = items.present_or_register(key, spare_);
    } catch (...) {
      // A key the collection refuses: nothing was registered for it.
      remaining.fetch_sub(1, std::memory_order_acq_rel);
      throw;
    }
    if (present) {
      // Already available: undo the provisional count (the arming guard
      // keeps it from reaching zero here).
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    } else {
      spare_ = nullptr;  // the item's waiter list owns it now
      ++absent_;
    }
  }

  /// Number of declared dependencies that were absent at declaration time.
  long absent() const noexcept { return absent_; }

private:
  detail::preschedule_countdown& countdown_;
  detail::countdown_registration* spare_ = nullptr;
  long absent_ = 0;
};

namespace detail {

/// Steps usable with the preschedule tuner declare their item reads.
template <class Step, class Tag, class Ctx>
concept declares_dependencies =
    requires(const Step s, const Tag& t, Ctx& c, dependency_collector& dc) {
      s.depends(t, c, dc);
    };

/// Concrete dynamic instance binding (step functor, tag, typed context).
/// `collection_name` must outlive the instance (it points at the owning
/// step_collection's name, and collections outlive their instances).
template <class Ctx, class Step, class Tag>
class typed_step_instance final : public step_instance_base {
public:
  typed_step_instance(Ctx& ctx, const Step& step, Tag tag,
                      const std::string& collection_name)
      : step_instance_base(ctx), typed_ctx_(ctx), step_(step),
        tag_(std::move(tag)), collection_name_(&collection_name) {}

  std::string describe() const override {
    return *collection_name_ + "(" + key_string(tag_) + ")";
  }

private:
  void run_body() override { (void)step_.execute(tag_, typed_ctx_); }

  Ctx& typed_ctx_;
  const Step& step_;
  const Tag tag_;
  const std::string* collection_name_;
};

}  // namespace detail

// Note: Ctx is typically the *incomplete* user context type at the point the
// collection members are declared inside it (exactly as in Intel CnC), so no
// compile-time base-of check is possible here; the constructor takes Ctx& and
// implicitly converts it to context_base&, which enforces the inheritance.
template <class Ctx, class Step, class Tag>
class step_collection {
public:
  step_collection(Ctx& ctx, std::string name, Step step = Step{},
                  schedule_policy policy = schedule_policy::spawn_immediately)
      : ctx_(ctx), name_(std::move(name)), step_(std::move(step)),
        policy_(policy),
        trace_name_(obs::tracer::instance().intern(name_)) {}

  step_collection(const step_collection&) = delete;
  step_collection& operator=(const step_collection&) = delete;

  const std::string& name() const noexcept { return name_; }
  const Step& step() const noexcept { return step_; }
  schedule_policy policy() const noexcept { return policy_; }

  /// Create and dispatch a dynamic instance for `tag` (called by the
  /// prescribing tag collection, or directly by the environment).
  void spawn(const Tag& tag) {
    ctx_.metrics().prescribed.fetch_add(1, std::memory_order_relaxed);
    auto* inst = new detail::typed_step_instance<Ctx, Step, Tag>(ctx_, step_,
                                                                 tag, name_);
    if (policy_ == schedule_policy::preschedule) {
      if constexpr (detail::declares_dependencies<Step, Tag, Ctx>) {
        detail::preschedule_countdown& cd = inst->countdown();
        // The instance starts out parked: it becomes active only when the
        // countdown fires (possibly during depends() below).
        ctx_.on_suspend();
        dependency_collector dc(cd);
        try {
          step_.depends(tag, ctx_, dc);
        } catch (...) {
          // Never dispatch a step whose declaration failed. The dead
          // countdown frees the instance when its last registration is
          // released, by a put or by the collection's destruction.
          cd.kill();
          throw;
        }
        if (dc.absent() > 0) {
          ctx_.metrics().deferrals.fetch_add(1, std::memory_order_relaxed);
          RDP_TRACE_EVENT(obs::event_kind::preschedule_defer, trace_name_,
                          static_cast<std::uint64_t>(dc.absent()), 0);
        }
        cd.finish_arming();
        return;
      } else {
        RDP_REQUIRE_MSG(false,
                        "preschedule policy requires the step to define "
                        "depends(tag, ctx, collector)");
      }
    }
    inst->initial_dispatch();
  }

  /// Requeue `tag` for a later retry (non-blocking get protocol, §IV-B):
  /// a fresh instance is dispatched through the pool's FIFO injection
  /// queue so the retry runs after currently queued producers. Once a step
  /// of the graph has failed the retry is dropped instead: the item it polls
  /// for may never be put, and requeueing forever would keep the graph from
  /// quiescing, so wait() could never rethrow the error.
  void respawn(const Tag& tag) {
    if (ctx_.failed()) return;
    ctx_.metrics().requeued.fetch_add(1, std::memory_order_relaxed);
    detail::cnc_metrics().steps_requeued.add();
    RDP_TRACE_EVENT(obs::event_kind::step_requeue, trace_name_, 0, 0);
    auto* inst = new detail::typed_step_instance<Ctx, Step, Tag>(ctx_, step_,
                                                                 tag, name_);
    inst->initial_dispatch_global();
  }

private:
  Ctx& ctx_;
  std::string name_;
  Step step_;
  schedule_policy policy_;
  std::uint16_t trace_name_;  // interned name_ for trace events
};

}  // namespace rdp::cnc
