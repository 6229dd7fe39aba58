#include "server/server.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "exec/backend.hpp"
#include "exec/prepared_graph.hpp"
#include "forkjoin/worker_pool.hpp"
#include "obs/tracer.hpp"
#include "support/assertions.hpp"

namespace rdp::server {

const char* to_string(exec_mode m) noexcept {
  switch (m) {
    case exec_mode::prepared: return "prepared";
    case exec_mode::batched: return "batched";
    case exec_mode::rebuild: return "rebuild";
  }
  return "?";
}

const char* to_string(request_status s) noexcept {
  switch (s) {
    case request_status::ok: return "ok";
    case request_status::shed: return "shed";
    case request_status::failed: return "failed";
  }
  return "?";
}

namespace {

using sclock = std::chrono::steady_clock;

/// The CnC variant rebuild mode runs: native, the "no server" per-run
/// baseline.
constexpr dp::cnc_variant k_baseline_variant = dp::cnc_variant::native;

std::uint64_t ns_between(sclock::time_point a, sclock::time_point b) {
  return b <= a ? 0
               : static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                         .count());
}

struct server_metrics {
  obs::counter& submitted;
  obs::counter& completed;
  obs::counter& shed;
  obs::counter& failed;
  obs::gauge& queue_depth;
  obs::gauge& inflight;
  obs::histogram& queue_ns;
  obs::histogram& exec_ns;
  obs::histogram& sojourn_ns;
};

server_metrics& smetrics() {
  auto& reg = obs::metrics_registry::instance();
  static server_metrics m{reg.get_counter("server.requests_submitted"),
                          reg.get_counter("server.requests_completed"),
                          reg.get_counter("server.requests_shed"),
                          reg.get_counter("server.requests_failed"),
                          reg.get_gauge("server.queue_depth"),
                          reg.get_gauge("server.inflight"),
                          reg.get_histogram("server.queue_ns"),
                          reg.get_histogram("server.exec_ns"),
                          reg.get_histogram("server.sojourn_ns")};
  return m;
}

}  // namespace

struct batch_server::impl {
  /// One frozen graph shape. Lives in a deque so pointers stay stable while
  /// prepare() grows the set.
  struct graph_slot {
    exec::prepared_graph graph;
    std::string label;  ///< "<spec>/<n>/<base>" (trace + errors)
    std::uint16_t trace_name = 0;

    explicit graph_slot(exec::prepared_graph g) : graph(std::move(g)) {}
  };

  struct request {
    std::uint64_t id = 0;
    graph_id graph = 0;
    std::shared_ptr<dp::recurrence> rec;
    std::promise<response> promise;
    sclock::time_point submit_tp{};
  };

  /// One admitted request. The completion fields are written by whichever
  /// worker finishes the execution, then published by the release store to
  /// `finished`; the dispatcher reads them after its acquire load.
  struct flight {
    request req;
    graph_slot* slot = nullptr;
    std::unique_ptr<exec::prepared_execution> exec;  // prepared mode only
    sclock::time_point admit_tp{};
    std::uint64_t queue_ns = 0;
    std::vector<obs::metric_sample> before;  // scoped_metrics window start

    request_status status = request_status::ok;
    std::string error;
    std::uint64_t nodes = 0;
    sclock::time_point end_tp{};
    std::atomic<bool> finished{false};
  };

  explicit impl(const server_config& c)
      : cfg(sanitize(c)), pool(cfg.workers) {
    RDP_REQUIRE_MSG(!cfg.scoped_metrics || cfg.max_inflight == 1,
                    "scoped_metrics needs max_inflight == 1");
    dispatcher = std::thread([this] { dispatcher_loop(); });
  }

  ~impl() {
    {
      std::lock_guard<std::mutex> lk(m);
      stop = true;
    }
    cv.notify_all();
    dispatcher.join();
    // pool is destroyed after the dispatcher has drained every flight, so
    // no detached task can outlive the server.
  }

  static server_config sanitize(server_config c) {
    if (c.workers == 0) c.workers = 1;
    if (c.max_inflight == 0) c.max_inflight = 1;
    if (c.max_batch == 0) c.max_batch = 1;
    return c;
  }

  graph_id prepare(dp::recurrence& structural) {
    const std::string key = std::string(structural.name()) + "/" +
                            std::to_string(structural.size()) + "/" +
                            std::to_string(structural.base());
    {
      std::lock_guard<std::mutex> lk(m);
      const auto it = graph_ids.find(key);
      if (it != graph_ids.end()) return it->second;
    }
    // Freeze outside the lock (dependency discovery is the expensive part);
    // a racing prepare() of the same shape loses and discards its copy.
    exec::prepared_graph g =
        cfg.mode == exec_mode::batched
            ? exec::prepared_graph::freeze_batched(structural, pool.worker_count())
            : exec::prepared_graph::freeze(structural);
    std::lock_guard<std::mutex> lk(m);
    const auto it = graph_ids.find(key);
    if (it != graph_ids.end()) return it->second;
    graphs.emplace_back(std::move(g));
    graph_slot& slot = graphs.back();
    slot.label = key;
    slot.trace_name = obs::tracer::instance().intern(key);
    const graph_id id = graphs.size() - 1;
    graph_ids.emplace(key, id);
    return id;
  }

  std::future<response> submit(graph_id id,
                               std::shared_ptr<dp::recurrence> rec) {
    RDP_REQUIRE_MSG(rec != nullptr, "submit: null recurrence");
    request r;
    r.graph = id;
    r.rec = std::move(rec);
    r.submit_tp = sclock::now();
    std::future<response> fut = r.promise.get_future();

    std::unique_lock<std::mutex> lk(m);
    RDP_REQUIRE_MSG(id < graphs.size(), "submit: unknown graph id");
    RDP_REQUIRE_MSG(graphs[id].graph.matches(*r.rec),
                    "submit: instance does not match the prepared graph");
    r.id = next_request_id++;
    if (stop || queue.size() >= cfg.queue_capacity) {
      lk.unlock();
      shed_request(std::move(r));
      return fut;
    }
    smetrics().submitted.add();
    smetrics().queue_depth.add();
    queue.push_back(std::move(r));
    lk.unlock();
    cv.notify_one();
    return fut;
  }

  /// Admission control's reject path: fulfil immediately, never block.
  void shed_request(request&& r) {
    shed_total.fetch_add(1, std::memory_order_relaxed);
    smetrics().shed.add();
    response resp;
    resp.status = request_status::shed;
    resp.request_id = r.id;
    resp.graph = r.graph;
    r.promise.set_value(std::move(resp));
  }

  // ---- dispatcher ---------------------------------------------------------

  bool any_finished() const {
    for (const auto& f : flights)
      if (f->finished.load(std::memory_order_acquire)) return true;
    return false;
  }

  /// A queued request the dispatcher could start right now.
  bool admissible() const {
    return !queue.empty() && flights.size() < cfg.max_inflight;
  }

  void dispatcher_loop() {
    obs::tracer::instance().set_thread_label("server dispatcher");
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
      cv.wait(lk, [&] { return stop || any_finished() || admissible(); });
      retire_finished();
      if (stop) {
        while (!queue.empty()) {
          request r = std::move(queue.front());
          queue.pop_front();
          smetrics().queue_depth.sub();
          shed_request(std::move(r));
        }
        if (flights.empty()) return;
        cv.wait(lk, [&] { return any_finished(); });
        continue;
      }
      admit_batch();
    }
  }

  /// Drain up to max_batch queued requests, in FIFO order, in one
  /// scheduling decision — the cross-request batching. Called under `m`.
  void admit_batch() {
    for (std::size_t admitted = 0;
         admitted < cfg.max_batch && admissible(); ++admitted) {
      auto f = std::make_unique<flight>();
      f->req = std::move(queue.front());
      queue.pop_front();
      smetrics().queue_depth.sub();
      graph_slot& slot = graphs[f->req.graph];
      f->slot = &slot;
      f->admit_tp = sclock::now();
      f->queue_ns = ns_between(f->req.submit_tp, f->admit_tp);
      smetrics().queue_ns.record(f->queue_ns);
      smetrics().inflight.add();
      RDP_TRACE_EVENT(obs::event_kind::request_begin, slot.trace_name,
                      f->req.id, f->queue_ns);
      if (cfg.scoped_metrics) {
        pool.publish_metrics();
        f->before = obs::metrics_registry::instance().snapshot();
      }
      launch(std::move(f));
    }
  }

  void launch(std::unique_ptr<flight> f) {
    flight* raw = f.get();
    flights.push_back(std::move(f));
    switch (cfg.mode) {
      case exec_mode::prepared:
      case exec_mode::batched: {
        raw->exec = std::make_unique<exec::prepared_execution>(
            raw->slot->graph, *raw->req.rec, pool);
        raw->exec->set_on_complete([this, raw] { finish_prepared(raw); });
        raw->exec->start();
        break;
      }
      case exec_mode::rebuild:
        pool.enqueue(forkjoin::make_task([this, raw] { run_rebuild(raw); },
                                         nullptr));
        break;
    }
  }

  // ---- completion paths (run on pool workers) -----------------------------

  void finish_prepared(flight* f) {
    f->nodes = f->exec->nodes_executed();
    if (const std::exception_ptr err = f->exec->error()) {
      f->status = request_status::failed;
      try {
        std::rethrow_exception(err);
      } catch (const std::exception& e) {
        f->error = e.what();
      } catch (...) {
        f->error = "unknown error";
      }
    }
    publish_finished(f);
  }

  void run_rebuild(flight* f) {
    try {
      exec::dataflow_options o;
      o.variant = k_baseline_variant;
      o.pool = &pool;
      const dp::cnc_run_info info = exec::run_dataflow(*f->req.rec, o);
      f->nodes = info.stats.steps_executed;
    } catch (const std::exception& e) {
      f->status = request_status::failed;
      f->error = e.what();
    } catch (...) {
      f->status = request_status::failed;
      f->error = "unknown error";
    }
    publish_finished(f);
  }

  void publish_finished(flight* f) {
    f->end_tp = sclock::now();
    // Notify UNDER the lock: the moment the dispatcher sees `finished` it
    // may fulfil the promise and the client may destroy the server, so the
    // cv access must be ordered before ~impl's own lock acquisition — a
    // notify after unlock would race server destruction.
    std::lock_guard<std::mutex> lk(m);
    f->finished.store(true, std::memory_order_release);
    cv.notify_all();
  }

  /// Fulfil and destroy every finished flight. Called under `m`.
  void retire_finished() {
    for (auto it = flights.begin(); it != flights.end();) {
      flight* f = it->get();
      if (!f->finished.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      response resp;
      resp.status = f->status;
      resp.request_id = f->req.id;
      resp.graph = f->req.graph;
      resp.queue_ns = f->queue_ns;
      resp.exec_ns = ns_between(f->admit_tp, f->end_tp);
      resp.sojourn_ns = ns_between(f->req.submit_tp, f->end_tp);
      resp.nodes = f->nodes;
      resp.error = std::move(f->error);
      if (cfg.scoped_metrics) {
        pool.publish_metrics();
        resp.metrics_delta = obs::snapshot_delta(
            f->before, obs::metrics_registry::instance().snapshot());
      }
      RDP_TRACE_EVENT(obs::event_kind::request_end, f->slot->trace_name,
                      f->req.id, resp.exec_ns);
      smetrics().exec_ns.record(resp.exec_ns);
      smetrics().sojourn_ns.record(resp.sojourn_ns);
      smetrics().inflight.sub();
      if (resp.status == request_status::failed)
        smetrics().failed.add();
      else
        smetrics().completed.add();
      f->req.promise.set_value(std::move(resp));
      it = flights.erase(it);
    }
  }

  server_config cfg;
  forkjoin::worker_pool pool;

  mutable std::mutex m;
  std::condition_variable cv;
  bool stop = false;
  std::deque<request> queue;
  std::vector<std::unique_ptr<flight>> flights;  // dispatcher-owned
  std::deque<graph_slot> graphs;  // deque: slot pointers stay stable
  std::unordered_map<std::string, graph_id> graph_ids;
  std::uint64_t next_request_id = 1;
  std::atomic<std::uint64_t> shed_total{0};

  /// Declared last: joined (and thus quiescent) before anything above dies.
  std::thread dispatcher;
};

batch_server::batch_server(const server_config& cfg)
    : impl_(std::make_unique<impl>(cfg)) {}

batch_server::~batch_server() = default;

graph_id batch_server::prepare(dp::recurrence& structural) {
  return impl_->prepare(structural);
}

std::size_t batch_server::graph_count() const {
  std::lock_guard<std::mutex> lk(impl_->m);
  return impl_->graphs.size();
}

std::future<response> batch_server::submit(graph_id id,
                                           std::shared_ptr<dp::recurrence> rec) {
  return impl_->submit(id, std::move(rec));
}

std::uint64_t batch_server::shed_count() const noexcept {
  return impl_->shed_total.load(std::memory_order_relaxed);
}

}  // namespace rdp::server
