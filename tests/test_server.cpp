// Graph-reuse and batch-server coverage: a prepared_graph executed
// back-to-back must stay bit-identical to fresh-build runs for every
// benchmark, and the server must preserve that guarantee under admission
// control, batching, concurrent submission and shutdown. Runs under the
// sanitizer presets (LABELS runtime).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dp/dp.hpp"
#include "dp/spec/specs.hpp"
#include "exec/backend.hpp"
#include "exec/prepared_graph.hpp"
#include "forkjoin/worker_pool.hpp"
#include "forwarding_spec.hpp"
#include "obs/metrics.hpp"
#include "server/server.hpp"
#include "support/assertions.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

constexpr std::size_t k_n = 32, k_base = 8;

matrix<double> ge_input(std::uint64_t seed) {
  return make_diag_dominant(k_n, seed);
}

matrix<double> fw_input(std::uint64_t seed) {
  auto w = make_digraph(k_n, 0.3, seed, 1e9);
  // Integral weights: FW min/plus stays exact, so bit-comparison is fair.
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<double>(static_cast<long long>(w.data()[i]));
  return w;
}

matrix<double> ge_expected(const matrix<double>& input) {
  auto m = input;
  exec::run_serial(*make_ge_spec(m, k_base));
  return m;
}

matrix<double> fw_expected(const matrix<double>& input) {
  auto m = input;
  exec::run_serial(*make_fw_spec(m, k_base));
  return m;
}

// ---- prepared_graph reuse -------------------------------------------------

TEST(PreparedGraph, FreezeShapeAndMatches) {
  matrix<double> m = ge_input(1);
  auto spec = make_ge_spec(m, k_base);
  const exec::prepared_graph g = exec::prepared_graph::freeze(*spec);
  EXPECT_EQ(g.spec_name(), std::string(spec->name()));
  EXPECT_EQ(g.size(), k_n);
  EXPECT_EQ(g.base(), k_base);
  EXPECT_FALSE(g.value_passing());
  EXPECT_GT(g.node_count(), 0u);
  EXPECT_GT(g.edge_count(), 0u);
  EXPECT_GE(g.root_count(), 1u);
  EXPECT_EQ(g.seed_slot_count(), 0u);
  EXPECT_TRUE(g.matches(*spec));

  matrix<double> other(k_n * 2, k_n * 2, 1.0);
  auto bigger = make_ge_spec(other, k_base);
  EXPECT_FALSE(g.matches(*bigger));
  auto coarser = make_ge_spec(m, k_base * 2);
  EXPECT_FALSE(g.matches(*coarser));
}

TEST(PreparedGraph, RejectsStructuralMismatch) {
  forkjoin::worker_pool pool(2);
  matrix<double> m = ge_input(2);
  auto spec = make_ge_spec(m, k_base);
  const exec::prepared_graph g = exec::prepared_graph::freeze(*spec);
  auto coarser = make_ge_spec(m, k_base * 2);
  EXPECT_THROW(g.execute(*coarser, pool), contract_error);
}

/// Back-to-back executions of ONE frozen graph over fresh data planes must
/// be bit-identical to fresh freeze+execute runs and to the serial backend.
TEST(PreparedGraph, GeReuseBitExact) {
  forkjoin::worker_pool pool(3);
  matrix<double> exemplar = ge_input(3);
  auto structural = make_ge_spec(exemplar, k_base);
  const exec::prepared_graph g = exec::prepared_graph::freeze(*structural);
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    const matrix<double> input = ge_input(seed);
    const matrix<double> expected = ge_expected(input);
    auto reused = input;
    auto spec = make_ge_spec(reused, k_base);
    g.execute(*spec, pool);
    EXPECT_EQ(reused, expected) << "reused graph diverged, seed=" << seed;

    auto fresh = input;
    auto fresh_spec = make_ge_spec(fresh, k_base);
    exec::prepared_graph::freeze(*fresh_spec).execute(*fresh_spec, pool);
    EXPECT_EQ(fresh, expected) << "fresh graph diverged, seed=" << seed;
  }
}

TEST(PreparedGraph, SwReuseBitExact) {
  forkjoin::worker_pool pool(3);
  const sw_params p;
  const std::string ea = make_dna(k_n, 1), eb = make_dna(k_n, 2);
  matrix<std::int32_t> scratch(k_n + 1, k_n + 1, 0);
  auto structural = make_sw_spec(scratch, ea, eb, p, k_base);
  const exec::prepared_graph g = exec::prepared_graph::freeze(*structural);
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    const std::string a = make_dna(k_n, seed), b = make_dna(k_n, seed + 100);
    matrix<std::int32_t> expected(k_n + 1, k_n + 1, 0);
    exec::run_serial(*make_sw_spec(expected, a, b, p, k_base));
    matrix<std::int32_t> s(k_n + 1, k_n + 1, 0);
    auto spec = make_sw_spec(s, a, b, p, k_base);
    g.execute(*spec, pool);
    EXPECT_EQ(s, expected) << "reused SW graph diverged, seed=" << seed;
  }
}

/// FW is the value-passing spec: reuse also exercises the frozen seed
/// slots (environment-provided items) and the per-request value plane.
TEST(PreparedGraph, FwReuseBitExact) {
  forkjoin::worker_pool pool(3);
  matrix<double> exemplar = fw_input(4);
  auto structural = make_fw_spec(exemplar, k_base);
  const exec::prepared_graph g = exec::prepared_graph::freeze(*structural);
  EXPECT_TRUE(g.value_passing());
  for (std::uint64_t seed = 30; seed < 34; ++seed) {
    const matrix<double> input = fw_input(seed);
    const matrix<double> expected = fw_expected(input);
    auto m = input;
    auto spec = make_fw_spec(m, k_base);
    g.execute(*spec, pool);
    EXPECT_EQ(m, expected) << "reused FW graph diverged, seed=" << seed;
  }
}

/// Variable-arity fan-in through the frozen CSR: the Paren graph's widest
/// node carries 2(T-1) dependency slots, well past the executors' inline
/// buffers. Both freeze flavours (per-node and band-batched) must replay
/// bit-identically to the serial backend over fresh data planes.
TEST(PreparedGraph, ParenReuseBitExactIncludingBatched) {
  forkjoin::worker_pool pool(3);
  std::vector<double> exemplar_dims(k_n + 1, 2.0);
  matrix<double> scratch(k_n, k_n, 0.0);
  auto structural = make_paren_spec(scratch, exemplar_dims, k_base);
  const exec::prepared_graph g = exec::prepared_graph::freeze(*structural);
  const exec::prepared_graph gb =
      exec::prepared_graph::freeze_batched(*structural, pool.worker_count());
  EXPECT_EQ(g.size(), k_n);
  EXPECT_LT(gb.node_count(), g.node_count());
  for (std::uint64_t seed = 50; seed < 54; ++seed) {
    xoshiro256 gen(seed);
    std::vector<double> dims(k_n + 1);
    for (double& d : dims) d = static_cast<double>(1 + gen.next() % 50);
    matrix<double> expected(k_n, k_n, 0.0);
    paren_loop_serial(expected, dims);

    matrix<double> c(k_n, k_n, 0.0);
    auto spec = make_paren_spec(c, dims, k_base);
    g.execute(*spec, pool);
    EXPECT_EQ(c, expected) << "reused Paren graph diverged, seed=" << seed;

    matrix<double> cb(k_n, k_n, 0.0);
    auto spec_b = make_paren_spec(cb, dims, k_base);
    gb.execute(*spec_b, pool);
    EXPECT_EQ(cb, expected) << "batched Paren graph diverged, seed=" << seed;
  }
}

TEST(PreparedGraph, LcsReuseBitExact) {
  forkjoin::worker_pool pool(3);
  matrix<std::int32_t> scratch(k_n + 1, k_n + 1, 0);
  const std::string ea = make_dna(k_n, 5), eb = make_dna(k_n, 6);
  auto structural = make_lcs_spec(scratch, ea, eb, lcs_mode::lcs, k_base);
  const exec::prepared_graph g = exec::prepared_graph::freeze(*structural);
  for (std::uint64_t seed = 60; seed < 64; ++seed) {
    const std::string a = make_dna(k_n, seed), b = make_dna(k_n, seed + 7);
    matrix<std::int32_t> expected(k_n + 1, k_n + 1, 0);
    exec::run_serial(*make_lcs_spec(expected, a, b, lcs_mode::lcs, k_base));
    matrix<std::int32_t> t(k_n + 1, k_n + 1, 0);
    auto spec = make_lcs_spec(t, a, b, lcs_mode::lcs, k_base);
    g.execute(*spec, pool);
    EXPECT_EQ(t, expected) << "reused LCS graph diverged, seed=" << seed;
  }
}

/// Many executions of one graph racing on one pool: each binds its own data
/// plane, so concurrent requests must not interfere (TSan coverage).
TEST(PreparedGraph, ConcurrentExecutionsShareOneGraph) {
  forkjoin::worker_pool pool(4);
  matrix<double> exemplar = ge_input(5);
  auto structural = make_ge_spec(exemplar, k_base);
  const exec::prepared_graph g = exec::prepared_graph::freeze(*structural);

  constexpr std::size_t k_requests = 8;
  std::vector<matrix<double>> tables;
  std::vector<matrix<double>> expected;
  std::vector<std::unique_ptr<dp::recurrence>> specs;
  for (std::size_t i = 0; i < k_requests; ++i) {
    const matrix<double> input = ge_input(100 + i);
    expected.push_back(ge_expected(input));
    tables.push_back(input);
  }
  for (std::size_t i = 0; i < k_requests; ++i)
    specs.push_back(make_ge_spec(tables[i], k_base));

  std::vector<std::unique_ptr<exec::prepared_execution>> execs;
  for (std::size_t i = 0; i < k_requests; ++i)
    execs.push_back(
        std::make_unique<exec::prepared_execution>(g, *specs[i], pool));
  for (auto& e : execs) e->start();
  for (auto& e : execs) e->wait();
  for (std::size_t i = 0; i < k_requests; ++i) {
    EXPECT_EQ(execs[i]->nodes_executed(), g.node_count());
    EXPECT_EQ(tables[i], expected[i]) << "request " << i << " diverged";
  }
}

/// One prepared SW run of side n at `base` over a fresh frozen graph.
struct prepared_sw_run {
  std::size_t tiles = 0;
  std::uint64_t executed = 0;  // nodes_executed()
  bool exact = false;          // table bit-identical to the serial backend
};

prepared_sw_run run_prepared_sw(std::size_t n, std::size_t base,
                                forkjoin::worker_pool& pool) {
  const sw_params p;
  const std::string a = make_dna(n, 71), b = make_dna(n, 72);
  matrix<std::int32_t> expected(n + 1, n + 1, 0);
  exec::run_serial(*make_sw_spec(expected, a, b, p, base));
  matrix<std::int32_t> s(n + 1, n + 1, 0);
  auto spec = make_sw_spec(s, a, b, p, base);
  const exec::prepared_graph g = exec::prepared_graph::freeze(*spec);
  exec::prepared_execution ex(g, *spec, pool);
  ex.start();
  ex.wait();
  return {g.tile_count(), ex.nodes_executed(), s == expected};
}

/// A retiring node keeps one ready successor and runs it on the same
/// thread. Every tile but a root is made ready once, so the pool runs
/// tiles minus (nodes that made one ready) tasks: fewer than tiles, in any
/// interleaving. nodes_executed() still counts every tile.
TEST(PreparedGraph, ReadySuccessorRunsInline) {
  forkjoin::worker_pool pool(3);
  const prepared_sw_run r = run_prepared_sw(256, 8, pool);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.tiles, 1024u);
  EXPECT_EQ(r.executed, r.tiles);
  EXPECT_LT(pool.stats().tasks_spawned, r.tiles);
}

/// On one worker the whole DAG runs as chains on one thread; a chain is a
/// loop, not a recursion, so 65,536 tiles need no deeper stack than one.
TEST(PreparedGraph, LongChainsOnOneWorkerDoNotRecurse) {
  forkjoin::worker_pool pool(1);
  const prepared_sw_run r = run_prepared_sw(1024, 4, pool);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.tiles, 65536u);
  EXPECT_EQ(r.executed, r.tiles);
}

// ---- batch server ---------------------------------------------------------

/// One GE instance routed through the server; the table the caller handed
/// in must hold the serial result when the future resolves.
void check_server_ge(const server::server_config& cfg, std::size_t requests) {
  server::batch_server srv(cfg);
  matrix<double> exemplar = ge_input(8);
  auto structural = make_ge_spec(exemplar, k_base);
  const server::graph_id gid = srv.prepare(*structural);

  std::vector<std::shared_ptr<matrix<double>>> tables;
  std::vector<matrix<double>> expected;
  std::vector<std::future<server::response>> futs;
  for (std::size_t i = 0; i < requests; ++i) {
    const matrix<double> input = ge_input(200 + i);
    expected.push_back(ge_expected(input));
    tables.push_back(std::make_shared<matrix<double>>(input));
    // The spec must keep the table alive for the server: alias the spec's
    // shared ownership onto the table's.
    std::shared_ptr<dp::recurrence> spec(make_ge_spec(*tables[i], k_base));
    auto holder = std::make_shared<
        std::pair<std::shared_ptr<matrix<double>>, std::shared_ptr<dp::recurrence>>>(
        tables[i], std::move(spec));
    futs.push_back(srv.submit(
        gid, std::shared_ptr<dp::recurrence>(holder, holder->second.get())));
  }
  for (std::size_t i = 0; i < requests; ++i) {
    const server::response r = futs[i].get();
    ASSERT_EQ(r.status, server::request_status::ok)
        << to_string(r.status) << " " << r.error;
    EXPECT_GT(r.sojourn_ns, 0u);
    EXPECT_GE(r.sojourn_ns, r.exec_ns);
    EXPECT_EQ(*tables[i], expected[i]) << "request " << i << " diverged";
  }
}

TEST(BatchServer, PreparedModeBitExact) {
  server::server_config cfg;
  cfg.workers = 3;
  cfg.mode = server::exec_mode::prepared;
  check_server_ge(cfg, 8);
}

/// The server must carry the variable-arity graph end to end: prepare one
/// Paren shape, then stream requests with per-request chain dimensions.
TEST(BatchServer, ParenPreparedModeBitExact) {
  server::server_config cfg;
  cfg.workers = 3;
  cfg.mode = server::exec_mode::prepared;
  server::batch_server srv(cfg);

  std::vector<double> exemplar_dims(k_n + 1, 3.0);
  matrix<double> scratch(k_n, k_n, 0.0);
  auto structural = make_paren_spec(scratch, exemplar_dims, k_base);
  const server::graph_id gid = srv.prepare(*structural);

  struct request_state {
    std::vector<double> dims;
    matrix<double> table{k_n, k_n, 0.0};
    std::shared_ptr<dp::recurrence> spec;
  };
  constexpr std::size_t k_requests = 6;
  std::vector<std::shared_ptr<request_state>> states;
  std::vector<matrix<double>> expected;
  std::vector<std::future<server::response>> futs;
  for (std::size_t i = 0; i < k_requests; ++i) {
    auto st = std::make_shared<request_state>();
    xoshiro256 gen(300 + i);
    st->dims.resize(k_n + 1);
    for (double& d : st->dims) d = static_cast<double>(1 + gen.next() % 40);
    matrix<double> e(k_n, k_n, 0.0);
    paren_loop_serial(e, st->dims);
    expected.push_back(std::move(e));
    st->spec = make_paren_spec(st->table, st->dims, k_base);
    states.push_back(st);
    futs.push_back(srv.submit(
        gid, std::shared_ptr<dp::recurrence>(st, st->spec.get())));
  }
  for (std::size_t i = 0; i < k_requests; ++i) {
    const server::response r = futs[i].get();
    ASSERT_EQ(r.status, server::request_status::ok)
        << to_string(r.status) << " " << r.error;
    EXPECT_EQ(states[i]->table, expected[i]) << "request " << i;
  }
}

TEST(BatchServer, RebuildModeBitExact) {
  server::server_config cfg;
  cfg.workers = 3;
  cfg.mode = server::exec_mode::rebuild;
  cfg.max_inflight = 2;
  check_server_ge(cfg, 6);
}

TEST(BatchServer, PrepareIsIdempotentPerShape) {
  server::server_config cfg;
  cfg.workers = 2;
  server::batch_server srv(cfg);
  matrix<double> m = ge_input(9);
  auto spec1 = make_ge_spec(m, k_base);
  auto spec2 = make_ge_spec(m, k_base);
  const server::graph_id a = srv.prepare(*spec1);
  const server::graph_id b = srv.prepare(*spec2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(srv.graph_count(), 1u);
  auto coarser = make_ge_spec(m, k_base * 2);
  EXPECT_NE(srv.prepare(*coarser), a);
  EXPECT_EQ(srv.graph_count(), 2u);
}

TEST(BatchServer, SubmitRejectsMismatchedInstance) {
  server::server_config cfg;
  cfg.workers = 2;
  server::batch_server srv(cfg);
  matrix<double> m = ge_input(10);
  auto spec = make_ge_spec(m, k_base);
  const server::graph_id gid = srv.prepare(*spec);
  std::shared_ptr<dp::recurrence> coarser(make_ge_spec(m, k_base * 2));
  EXPECT_THROW((void)srv.submit(gid, coarser), contract_error);
  EXPECT_THROW((void)srv.submit(gid + 1, coarser), contract_error);
}

/// Admission control: a one-deep queue with one-at-a-time execution must
/// shed (not block, not fail) when the producer outruns the server.
TEST(BatchServer, ShedsWhenQueueIsFull) {
  server::server_config cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 1;
  cfg.max_inflight = 1;
  cfg.max_batch = 1;
  server::batch_server srv(cfg);
  matrix<double> exemplar = ge_input(11);
  auto structural = make_ge_spec(exemplar, k_base);
  const server::graph_id gid = srv.prepare(*structural);

  constexpr std::size_t k_requests = 24;
  std::vector<std::shared_ptr<matrix<double>>> tables;
  std::vector<std::future<server::response>> futs;
  for (std::size_t i = 0; i < k_requests; ++i) {
    tables.push_back(std::make_shared<matrix<double>>(ge_input(300 + i)));
    std::shared_ptr<dp::recurrence> spec(make_ge_spec(*tables[i], k_base));
    auto holder = std::make_shared<
        std::pair<std::shared_ptr<matrix<double>>, std::shared_ptr<dp::recurrence>>>(
        tables[i], std::move(spec));
    futs.push_back(srv.submit(
        gid, std::shared_ptr<dp::recurrence>(holder, holder->second.get())));
  }
  std::size_t ok = 0, shed = 0;
  for (auto& f : futs) {
    const server::response r = f.get();
    ASSERT_NE(r.status, server::request_status::failed) << r.error;
    if (r.status == server::request_status::ok)
      ++ok;
    else
      ++shed;
  }
  EXPECT_EQ(ok + shed, k_requests);
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u) << "burst of " << k_requests
                      << " never filled a 1-deep queue";
  EXPECT_EQ(srv.shed_count(), shed);
}

/// Multi-threaded submitters × multiple graph shapes × prepared mode:
/// the concurrent stress test the runtime sanitizer presets chew on.
TEST(BatchServer, ConcurrentSubmittersStress) {
  server::server_config cfg;
  cfg.workers = 4;
  cfg.max_inflight = 4;
  cfg.queue_capacity = 1024;  // no shedding: every result is checked
  server::batch_server srv(cfg);

  matrix<double> ge_ex = ge_input(12);
  auto ge_structural = make_ge_spec(ge_ex, k_base);
  const server::graph_id ge_gid = srv.prepare(*ge_structural);
  matrix<double> fw_ex = fw_input(13);
  auto fw_structural = make_fw_spec(fw_ex, k_base);
  const server::graph_id fw_gid = srv.prepare(*fw_structural);
  EXPECT_EQ(srv.graph_count(), 2u);

  constexpr std::size_t k_threads = 4, k_per_thread = 6;
  std::vector<std::thread> submitters;
  std::vector<std::string> failures(k_threads);
  for (std::size_t t = 0; t < k_threads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < k_per_thread; ++i) {
        const std::uint64_t seed = 1000 + t * 100 + i;
        const bool use_fw = (t + i) % 2 == 0;
        auto table = std::make_shared<matrix<double>>(
            use_fw ? fw_input(seed) : ge_input(seed));
        const matrix<double> expected =
            use_fw ? fw_expected(*table) : ge_expected(*table);
        std::shared_ptr<dp::recurrence> spec(
            use_fw ? make_fw_spec(*table, k_base)
                   : make_ge_spec(*table, k_base));
        auto holder = std::make_shared<std::pair<
            std::shared_ptr<matrix<double>>, std::shared_ptr<dp::recurrence>>>(
            table, std::move(spec));
        auto fut = srv.submit(
            use_fw ? fw_gid : ge_gid,
            std::shared_ptr<dp::recurrence>(holder, holder->second.get()));
        const server::response r = fut.get();
        if (r.status != server::request_status::ok) {
          failures[t] = "request failed: " + r.error;
          return;
        }
        if (*table != expected) {
          failures[t] = "table diverged at seed " + std::to_string(seed);
          return;
        }
      }
    });
  }
  for (auto& th : submitters) th.join();
  for (std::size_t t = 0; t < k_threads; ++t)
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
}

/// GE spec whose first base kernel blocks until the test opens the gate:
/// pins one request in flight while later ones wait in the queue.
class gated_ge_spec final : public test::forwarding_spec {
 public:
  struct gate {
    std::atomic<bool> entered{false};
    std::atomic<bool> open{false};
  };

  gated_ge_spec(matrix<double>& m, gate& g)
      : forwarding_spec(make_ge_spec(m, k_base)), gate_(g) {}

  void run_base(const tile4& t) override {
    if (!gate_.entered.exchange(true))
      while (!gate_.open.load()) std::this_thread::yield();
    inner_->run_base(t);
  }

 private:
  gate& gate_;
};

/// Sets an environment variable for one scope, restoring the old value.
class scoped_env {
 public:
  scoped_env(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~scoped_env() {
    if (old_.has_value())
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// Destroying a server under load: queued requests are shed, in-flight ones
/// run to completion, every future resolves and nothing hangs. The armed
/// fatal watchdog turns a wedged CnC wait (rebuild mode) into an abort.
TEST(BatchServer, ShutdownUnderLoadResolvesEveryRequest) {
  const scoped_env period("RDP_WATCHDOG_MS", "5000");
  const scoped_env fatal("RDP_WATCHDOG_FATAL", "1");
  for (const server::exec_mode mode :
       {server::exec_mode::prepared, server::exec_mode::rebuild}) {
    SCOPED_TRACE(server::to_string(mode));
    server::server_config cfg;
    cfg.workers = 2;
    cfg.mode = mode;
    cfg.queue_capacity = 64;

    // Deterministic phase: one request held in flight by the gate, the
    // rest queued behind it (max_inflight 1) when destruction starts.
    {
      cfg.max_inflight = 1;
      auto srv = std::make_unique<server::batch_server>(cfg);
      matrix<double> exemplar = ge_input(15);
      const server::graph_id gid = srv->prepare(*make_ge_spec(exemplar, k_base));

      constexpr std::size_t k_queued = 8;
      gated_ge_spec::gate g;
      const matrix<double> held_input = ge_input(600);
      auto held_table = std::make_shared<matrix<double>>(held_input);
      auto held_spec = std::make_shared<gated_ge_spec>(*held_table, g);
      std::future<server::response> held = srv->submit(gid, held_spec);
      while (!g.entered.load()) std::this_thread::yield();

      std::vector<std::shared_ptr<matrix<double>>> tables;
      std::vector<std::future<server::response>> queued;
      for (std::size_t i = 0; i < k_queued; ++i) {
        tables.push_back(std::make_shared<matrix<double>>(ge_input(610 + i)));
        std::shared_ptr<dp::recurrence> spec(make_ge_spec(*tables[i], k_base));
        auto holder = std::make_shared<std::pair<
            std::shared_ptr<matrix<double>>, std::shared_ptr<dp::recurrence>>>(
            tables[i], std::move(spec));
        queued.push_back(srv->submit(
            gid, std::shared_ptr<dp::recurrence>(holder, holder->second.get())));
      }

      std::thread destroyer([&] { srv.reset(); });
      // Shutdown sheds the queue while the held request is still running.
      for (std::size_t i = 0; i < k_queued; ++i) {
        const server::response r = queued[i].get();
        EXPECT_EQ(r.status, server::request_status::shed) << "request " << i;
        EXPECT_EQ(*tables[i], ge_input(610 + i)) << "shed table was touched";
      }
      g.open.store(true);
      destroyer.join();
      ASSERT_EQ(held.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      const server::response r = held.get();
      EXPECT_EQ(r.status, server::request_status::ok) << r.error;
      EXPECT_EQ(*held_table, ge_expected(held_input));
    }

    // Free-running phase: a burst destroyed right after submission, with
    // several requests in flight; whatever mix of ok and shed results, the
    // ok tables must be bit-exact.
    {
      cfg.max_inflight = 2;
      auto srv = std::make_unique<server::batch_server>(cfg);
      matrix<double> exemplar = ge_input(16);
      const server::graph_id gid = srv->prepare(*make_ge_spec(exemplar, k_base));
      constexpr std::size_t k_burst = 16;
      std::vector<std::shared_ptr<matrix<double>>> tables;
      std::vector<std::future<server::response>> futs;
      for (std::size_t i = 0; i < k_burst; ++i) {
        tables.push_back(std::make_shared<matrix<double>>(ge_input(700 + i)));
        std::shared_ptr<dp::recurrence> spec(make_ge_spec(*tables[i], k_base));
        auto holder = std::make_shared<std::pair<
            std::shared_ptr<matrix<double>>, std::shared_ptr<dp::recurrence>>>(
            tables[i], std::move(spec));
        futs.push_back(srv->submit(
            gid, std::shared_ptr<dp::recurrence>(holder, holder->second.get())));
      }
      srv.reset();
      for (std::size_t i = 0; i < k_burst; ++i) {
        ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "request " << i << " unresolved after destruction";
        const server::response r = futs[i].get();
        if (r.status == server::request_status::ok) {
          EXPECT_EQ(*tables[i], ge_expected(ge_input(700 + i)))
              << "request " << i;
        } else {
          EXPECT_EQ(r.status, server::request_status::shed)
              << "request " << i << ": " << r.error;
        }
      }
    }
  }
}

/// Per-request metrics scoping: with scoped_metrics the response carries
/// the delta window of exactly this request's execution.
TEST(BatchServer, ScopedMetricsDeltaIsPerRequest) {
  server::server_config cfg;
  cfg.workers = 2;
  cfg.max_inflight = 1;
  cfg.scoped_metrics = true;
  server::batch_server srv(cfg);
  matrix<double> exemplar = ge_input(14);
  auto structural = make_ge_spec(exemplar, k_base);
  const server::graph_id gid = srv.prepare(*structural);

  for (int round = 0; round < 2; ++round) {
    auto table = std::make_shared<matrix<double>>(ge_input(500 + round));
    std::shared_ptr<dp::recurrence> spec(make_ge_spec(*table, k_base));
    auto holder = std::make_shared<
        std::pair<std::shared_ptr<matrix<double>>, std::shared_ptr<dp::recurrence>>>(
        table, std::move(spec));
    const server::response r =
        srv.submit(gid,
                   std::shared_ptr<dp::recurrence>(holder, holder->second.get()))
            .get();
    ASSERT_EQ(r.status, server::request_status::ok) << r.error;
    // The window must contain this request's prepared execution — exactly
    // one, every round (a lifetime aggregate would keep growing).
    bool found = false;
    for (const obs::metric_sample& s : r.metrics_delta) {
      if (s.name == "prepared.executions") {
        found = true;
        EXPECT_EQ(s.value, 1u) << "round " << round;
      }
    }
    EXPECT_TRUE(found) << "round " << round
                       << ": no prepared.executions in the delta window";
  }
}

TEST(BatchServer, ScopedMetricsRequiresSerialInflight) {
  server::server_config cfg;
  cfg.scoped_metrics = true;
  cfg.max_inflight = 2;
  EXPECT_THROW(server::batch_server srv(cfg), contract_error);
}

}  // namespace
