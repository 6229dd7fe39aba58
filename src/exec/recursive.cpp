// Serial and fork-join lowerings: walk the spec's r-way split tree; run
// each stage's children inline (serial, or a single child) or as forked
// tasks with a join. The flattened child order of split_plan is the serial
// execution order. r = 2 is the classic 2-way recursion, wider r the r-way
// recursions of §I-A, and r = n/base the blocked tiled schedule.
#include "exec/backend.hpp"

#include "forkjoin/task_group.hpp"
#include "support/assertions.hpp"

namespace rdp::exec {

namespace {

struct walker {
  dp::recurrence& rec;
  std::size_t r;
  forkjoin::worker_pool* pool;  // nullptr => serial

  void run(const dp::tile4& t) const {
    if (rec.is_base(t)) {
      rec.run_base(t);
      return;
    }
    const dp::split_plan plan = rec.split(t, r);
    for (std::size_t s = 0; s < plan.stage_count(); ++s) {
      const std::size_t begin = plan.stage_begin(s);
      const std::size_t end = plan.stage_end[s];
      if (pool == nullptr || end - begin == 1) {
        for (std::size_t c = begin; c < end; ++c) run(plan.children[c]);
      } else {
        // The join below is precisely the artificial barrier of §III-B.
        forkjoin::task_group g(*pool);
        for (std::size_t c = begin; c < end; ++c)
          g.spawn([this, child = plan.children[c]] { run(child); });
        g.wait();
      }
    }
  }
};

/// Refuse, before any kernel runs, an r that does not split size() down to
/// base() exactly (dp::splits_evenly): every base task the walk runs is then
/// a base() tile that enumerate_base, depends and the DAGs also describe.
void require_splits(const dp::recurrence& rec, std::size_t r) {
  RDP_REQUIRE_MSG(dp::splits_evenly(rec.size(), rec.base(), r),
                  "the r-way recursion needs size() == base() * r^L");
}

}  // namespace

void run_serial(dp::recurrence& rec, std::size_t r) {
  require_splits(rec, r);
  walker{rec, r, nullptr}.run(rec.root());
}

void run_forkjoin(dp::recurrence& rec, forkjoin::worker_pool& pool,
                  std::size_t r) {
  require_splits(rec, r);
  const walker w{rec, r, &pool};
  pool.run([&] { w.run(rec.root()); });
}

}  // namespace rdp::exec
