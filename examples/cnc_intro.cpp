// A minimal Concurrent-Collections program — the Listing 1 of the paper,
// made concrete: one step collection prescribed by one tag collection,
// reading and writing one item collection.
//
//   <myCtrl> :: (myStep);
//   [myData] --> (myStep) --> [myData], <myCtrl>;
//
// The program computes a collatz-style chain through the data-flow graph:
// step t reads item t, writes item t+1, and prescribes tag t+1 — control
// and data both flow through the collections; the environment (main) only
// starts the worker pool the graph runs on, seeds the graph and gets the
// final item.
#include <iostream>

#include "cnc/cnc.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/cli.hpp"

namespace {

struct collatz_ctx;

struct collatz_step {
  // Executes once per tag: consume [myData] at `t`, produce at `t+1`,
  // and put the next control tag — unless the chain reached 1.
  int execute(int t, collatz_ctx& ctx) const;
};

struct collatz_ctx : rdp::cnc::context<collatz_ctx> {
  rdp::cnc::step_collection<collatz_ctx, collatz_step, int> my_step{
      *this, "myStep"};
  rdp::cnc::tag_collection<int> my_ctrl{*this, "myCtrl"};
  rdp::cnc::item_collection<int, long> my_data{*this, "myData"};
  int chain_limit = 1 << 20;

  explicit collatz_ctx(rdp::forkjoin::worker_pool& pool) : context(pool) {
    my_ctrl.prescribe(my_step);  // <myCtrl> :: (myStep);
  }
};

int collatz_step::execute(int t, collatz_ctx& ctx) const {
  long value = 0;
  ctx.my_data.get(t, value);  // [myData] --> (myStep)
  if (value == 1 || t + 1 >= ctx.chain_limit) return 0;
  const long next = value % 2 == 0 ? value / 2 : 3 * value + 1;
  ctx.my_data.put(t + 1, next);  // (myStep) --> [myData]
  ctx.my_ctrl.put(t + 1);        // (myStep) --> <myCtrl>
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t start = 27, workers = 2;
  rdp::cli_parser cli("Hello-CnC: a Collatz chain as a data-flow graph");
  cli.add_int("start", &start, "starting value (default 27)");
  cli.add_int("workers", &workers, "worker threads (default 2)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (workers < 1) {
    std::cerr << "--workers must be at least 1\n";
    return 2;
  }

  rdp::forkjoin::worker_pool pool(static_cast<unsigned>(workers));
  collatz_ctx ctx(pool);
  // The environment seeds the graph: one item, one tag.
  ctx.my_data.put(0, start);
  ctx.my_ctrl.put(0);
  ctx.wait();

  // Walk the produced items to print the chain.
  std::cout << "collatz(" << start << "): ";
  long v = 0;
  int steps = 0;
  for (int t = 0; ctx.my_data.try_get(t, v); ++t) {
    if (t <= 10) std::cout << v << (v == 1 ? "" : " -> ");
    steps = t;
  }
  if (steps > 10) std::cout << "... -> " << v;
  std::cout << "\nreached " << v << " after " << steps << " steps; the "
            << "runtime executed " << ctx.stats().steps_executed
            << " step instances, every one exactly once.\n";
  return v == 1 ? 0 : 1;
}
