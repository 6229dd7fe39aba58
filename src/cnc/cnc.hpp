// Umbrella header for the data-flow (Concurrent Collections style) runtime.
//
// Minimal usage, mirroring the CnC specification of Listing 1 in the paper:
//
//   struct my_ctx;
//   struct my_step {
//     int execute(int tag, my_ctx& ctx) const;
//   };
//   struct my_ctx : rdp::cnc::context<my_ctx> {
//     rdp::cnc::step_collection<my_ctx, my_step, int> steps{*this, "step"};
//     rdp::cnc::tag_collection<int> tags{*this, "ctrl"};
//     rdp::cnc::item_collection<int, double> data{*this, "data"};
//     explicit my_ctx(rdp::forkjoin::worker_pool& pool) : context(pool) {
//       tags.prescribe(steps);
//     }
//   };
//
//   rdp::forkjoin::worker_pool pool(4);
//   my_ctx ctx(pool);
//   ctx.data.put(0, 3.14);
//   ctx.tags.put(0);
//   ctx.wait();
#pragma once

#include "cnc/context.hpp"        // IWYU pragma: export
#include "cnc/errors.hpp"         // IWYU pragma: export
#include "cnc/item_collection.hpp"  // IWYU pragma: export
#include "cnc/step_collection.hpp"  // IWYU pragma: export
#include "cnc/step_instance.hpp"  // IWYU pragma: export
#include "cnc/tag_collection.hpp"  // IWYU pragma: export
