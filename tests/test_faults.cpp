// Fault injection: a kernel that throws from the k-th base task (the first,
// a seeded middle one, and the last) must surface from every executor — as
// the exception itself, or as a failed server response carrying its message
// — within a bounded time, and the same pool (or server) must then run a
// clean instance bit-exact against the serial oracle. The executor sweep
// includes value-passing FW, whose data-flow and prepared lowerings throw
// through run_base_value instead of run_base. Runs under the
// sanitizer presets (LABELS runtime), so ASan also checks that failed runs
// free their step instances, items and task nodes.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bounded_wait.hpp"
#include "dp/dp.hpp"
#include "dp/spec/specs.hpp"
#include "exec/backend.hpp"
#include "exec/prepared_graph.hpp"
#include "forkjoin/worker_pool.hpp"
#include "forwarding_spec.hpp"
#include "server/server.hpp"
#include "support/rng.hpp"

namespace rdp::server {
void PrintTo(exec_mode m, std::ostream* os) { *os << to_string(m); }
}  // namespace rdp::server

namespace {

using namespace rdp;
using namespace rdp::dp;
using namespace std::chrono_literals;

// n/base = 16 tiles per side: a power of 4, so rway:r4 runs it too, and
// its r = 4 plans outgrow split_plan's inline capacity (heap-spilled).
constexpr std::size_t k_n = 128, k_base = 8;
constexpr unsigned k_workers = 4;
constexpr auto k_limit = 20s;

std::string fault_message(std::uint64_t k) {
  return "injected fault at base task " + std::to_string(k);
}

/// Throws from the k-th base-kernel call (1-based, counted across threads
/// and across run_base/run_base_value). Every executor calls one of the two
/// exactly once per base tile, after the tile's inputs are ready, so k
/// ranges over [1, base-task count].
class throwing_spec final : public test::forwarding_spec {
 public:
  throwing_spec(std::unique_ptr<recurrence> inner, std::uint64_t k)
      : forwarding_spec(std::move(inner)), k_(k) {}

  void run_base(const tile4& t) override {
    count_call();
    inner_->run_base(t);
  }
  tile_value run_base_value(const tile3& t,
                            const tile_value* deps) const override {
    count_call();
    return inner_->run_base_value(t, deps);
  }

  /// Kernel calls so far, the throwing one included.
  std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  void count_call() const {
    if (calls_.fetch_add(1, std::memory_order_relaxed) + 1 == k_)
      throw std::runtime_error(fault_message(k_));
  }

  std::uint64_t k_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

/// One benchmark instance: fresh() resets the table and returns a spec over
/// it; exact() compares the table with the oracle.
struct instance {
  std::string name;
  std::function<std::unique_ptr<recurrence>()> fresh;
  std::function<bool()> exact;
};

template <class T, class Make>
instance make_instance(std::string name, matrix<T> input, Make make) {
  struct state {
    matrix<T> input, table, oracle;
    Make make;
  };
  auto s = std::make_shared<state>(state{input, input, input, std::move(make)});
  exec::run_serial(*s->make(s->oracle));
  return {std::move(name),
          [s] {
            s->table = s->input;
            return s->make(s->table);
          },
          [s] { return s->table == s->oracle; }};
}

std::vector<instance> token_instances() {
  const std::string a = make_dna(k_n, 11), b = make_dna(k_n, 12);
  std::vector<double> dims(k_n + 1);
  xoshiro256 gen(7);
  for (double& d : dims) d = static_cast<double>(1 + gen.next() % 64);
  const matrix<std::int32_t> scores(k_n + 1, k_n + 1, 0);
  return {
      make_instance("GE", make_diag_dominant(k_n, 3),
                    [](matrix<double>& m) { return make_ge_spec(m, k_base); }),
      make_instance("SW", scores,
                    [a, b, p = sw_params{}](matrix<std::int32_t>& s) {
                      return make_sw_spec(s, a, b, p, k_base);
                    }),
      make_instance("LCS", scores,
                    [a, b](matrix<std::int32_t>& s) {
                      return make_lcs_spec(s, a, b, lcs_mode::lcs, k_base);
                    }),
      make_instance("Paren", matrix<double>(k_n, k_n, 0.0),
                    [dims](matrix<double>& c) {
                      return make_paren_spec(c, dims, k_base);
                    }),
  };
}

/// The token instances plus value-passing FW (the executor sweep's set).
/// FW's weights are whole numbers so every executor's order of additions
/// gives the serial oracle's distances exactly.
std::vector<instance> sweep_instances() {
  std::vector<instance> out = token_instances();
  matrix<double> graph = make_digraph(k_n, 0.3, 5, 1e9);
  for (std::size_t i = 0; i < graph.size(); ++i)
    graph.data()[i] = std::floor(graph.data()[i]);
  out.push_back(
      make_instance("FW", std::move(graph),
                    [](matrix<double>& m) { return make_fw_spec(m, k_base); }));
  return out;
}

/// The first, a seeded middle and the last base task of `inst`.
std::vector<std::uint64_t> fault_points(const instance& inst,
                                        xoshiro256& gen) {
  std::uint64_t tasks = 0;
  auto count = [&](const tile4&) { ++tasks; };
  inst.fresh()->enumerate_base(tag_sink(count));
  return {1, 2 + gen.next() % (tasks - 2), tasks};
}

/// Runs `f` within the time bound; returns the message of what it threw,
/// or "" when it returned normally.
template <class F>
std::string error_of(const char* what, F&& f) {
  try {
    test::within(k_limit, what, std::forward<F>(f));
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

struct executor {
  std::string name;
  std::function<void(recurrence&, forkjoin::worker_pool&)> run;
};

void PrintTo(const executor& ex, std::ostream* os) { *os << ex.name; }

std::vector<executor> executors() {
  std::vector<executor> out = {
      {"serial", [](recurrence& r, forkjoin::worker_pool&) {
         exec::run_serial(r);
       }},
      {"forkjoin", [](recurrence& r, forkjoin::worker_pool& pool) {
         exec::run_forkjoin(r, pool);
       }},
      {"tiled", [](recurrence& r, forkjoin::worker_pool& pool) {
         exec::run_forkjoin(r, pool, r.size() / r.base());
       }},
      {"rway_r2", [](recurrence& r, forkjoin::worker_pool& pool) {
         exec::run_forkjoin(r, pool, 2);
       }},
      {"rway_r4", [](recurrence& r, forkjoin::worker_pool& pool) {
         exec::run_forkjoin(r, pool, 4);
       }},
      {"prepared", [](recurrence& r, forkjoin::worker_pool& pool) {
         exec::prepared_graph::freeze(r).execute(r, pool);
       }},
      {"prepared_batched", [](recurrence& r, forkjoin::worker_pool& pool) {
         exec::prepared_graph::freeze_batched(r, pool.worker_count())
             .execute(r, pool);
       }},
  };
  for (const cnc_variant v : {cnc_variant::native, cnc_variant::tuner,
                              cnc_variant::manual, cnc_variant::nonblocking}) {
    out.push_back({std::string(to_string(v)) + "_borrowed",
                   [v](recurrence& r, forkjoin::worker_pool& pool) {
                     exec::run_dataflow(r, {v, &pool});
                   }});
  }
  return out;
}

class FaultSweep : public ::testing::TestWithParam<executor> {};

TEST_P(FaultSweep, KernelErrorSurfacesAndThePoolStaysUsable) {
  const executor& ex = GetParam();
  forkjoin::worker_pool pool(k_workers);
  xoshiro256 gen(0xFA17);
  for (const instance& inst : sweep_instances()) {
    for (const std::uint64_t k : fault_points(inst, gen)) {
      SCOPED_TRACE(inst.name + " k=" + std::to_string(k));
      throwing_spec faulty(inst.fresh(), k);
      EXPECT_EQ(error_of(ex.name.c_str(), [&] { ex.run(faulty, pool); }),
                fault_message(k));

      const std::unique_ptr<recurrence> clean = inst.fresh();
      EXPECT_EQ(error_of(ex.name.c_str(), [&] { ex.run(*clean, pool); }), "");
      EXPECT_TRUE(inst.exact());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Executors, FaultSweep, ::testing::ValuesIn(executors()),
    [](const ::testing::TestParamInfo<executor>& p) {
      return p.param.name;
    });

// A prepared chain publishes its tile count once, when it ends. The count
// must still be exactly the kernels that returned — every call but the one
// that threw — for both freezes.
TEST(PreparedFaults, NodesExecutedCountsEveryKernelThatReturned) {
  forkjoin::worker_pool pool(k_workers);
  xoshiro256 gen(0xC0DE);
  for (const bool batched : {false, true}) {
    const char* what = batched ? "prepared_batched" : "prepared";
    for (const instance& inst : sweep_instances()) {
      for (const std::uint64_t k : fault_points(inst, gen)) {
        throwing_spec faulty(inst.fresh(), k);
        const exec::prepared_graph g =
            batched ? exec::prepared_graph::freeze_batched(
                          faulty, pool.worker_count())
                    : exec::prepared_graph::freeze(faulty);
        exec::prepared_execution ex(g, faulty, pool);
        EXPECT_EQ(error_of(what,
                           [&] {
                             ex.start();
                             ex.wait();
                           }),
                  fault_message(k));
        EXPECT_EQ(ex.nodes_executed(), faulty.calls() - 1)
            << what << " " << inst.name << " k=" << k;
      }
    }
  }
}

// The rway_r4 entry above throws from inside heap-spilled plans: every
// instance's root plan at r = 4 is wider than the inline capacity.
TEST(FaultSweepShape, RwayR4PlansSpillToTheHeap) {
  for (const instance& inst : sweep_instances()) {
    const std::unique_ptr<recurrence> rec = inst.fresh();
    const split_plan plan = rec->split(rec->root(), 4);
    EXPECT_FALSE(plan.children.is_inline()) << inst.name;
  }
}

class ServerFaultSweep : public ::testing::TestWithParam<server::exec_mode> {};

TEST_P(ServerFaultSweep, FailedRequestCarriesTheErrorAndTheServerRecovers) {
  server::server_config cfg;
  cfg.workers = k_workers;
  cfg.mode = GetParam();
  server::batch_server srv(cfg);
  auto serve = [&](server::graph_id id, std::shared_ptr<recurrence> rec) {
    server::response r;
    test::within(k_limit, "batch_server request",
                 [&] { r = srv.submit(id, std::move(rec)).get(); });
    return r;
  };

  xoshiro256 gen(0x5E4F);
  for (const instance& inst : token_instances()) {
    const server::graph_id id = srv.prepare(*inst.fresh());
    for (const std::uint64_t k : fault_points(inst, gen)) {
      SCOPED_TRACE(inst.name + " k=" + std::to_string(k));
      const server::response failed =
          serve(id, std::make_shared<throwing_spec>(inst.fresh(), k));
      EXPECT_EQ(failed.status, server::request_status::failed);
      EXPECT_EQ(failed.error, fault_message(k));

      const server::response ok = serve(id, inst.fresh());
      EXPECT_EQ(ok.status, server::request_status::ok) << ok.error;
      EXPECT_TRUE(inst.exact());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ServerFaultSweep,
    ::testing::Values(server::exec_mode::prepared, server::exec_mode::batched,
                      server::exec_mode::rebuild),
    [](const ::testing::TestParamInfo<server::exec_mode>& p) {
      return std::string(server::to_string(p.param));
    });

}  // namespace
