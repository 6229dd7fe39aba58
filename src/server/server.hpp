// batch_server — DP-as-a-service: a long-lived service that freezes each
// registered recurrence's executable graph ONCE (exec::prepared_graph) and
// re-executes it per request over a shared worker pool.
//
// The paper's executors pay their scheduling metadata on every run: the
// fork-join backends re-derive the recursion tree, the CnC backends re-expand
// tags and re-hash items. For a service answering a stream of structurally
// identical instances (same n/base/spec, different data planes) that cost is
// pure overhead. The server splits the two:
//
//   prepare(spec)   control plane — freeze the dependence DAG (idempotent
//                   per spec name × n × base), done once per graph shape
//   submit(id, rec) data plane — bind one instance's data to the frozen
//                   graph and run it; scheduling metadata is never rebuilt
//
// Architecture (DESIGN.md §13):
//
//   submit() ──▶ bounded queue ──▶ dispatcher thread ──▶ in-flight set
//                 (shed-on-full)     (admits ≤ max_batch   (≤ max_inflight,
//                                     per wake — the        runs on the one
//                                     cross-request batch)  shared pool)
//
//   * Admission control: the queue is bounded; a full queue sheds the
//     request immediately (status::shed) instead of blocking the producer —
//     open-loop clients keep their latency measurements honest.
//   * Batching: the dispatcher drains up to max_batch admissible requests
//     per wake-up, so consecutive requests share one scheduling decision.
//   * Tracing: every request rides the obs tracer as request_begin (arg0 =
//     request id, arg1 = queue ns) / request_end (arg1 = exec ns) under the
//     graph's interned label — chrome_trace renders them on the timeline.
//   * Metrics scoping: with scoped_metrics (requires max_inflight == 1) the
//     response carries the request's own metrics window — the delta of two
//     registry snapshots (obs::snapshot_delta) bracketing the execution.
//
// Execution modes — the same request stream over three cost models, which is
// what bench/server_load measures:
//   prepared  frozen-DAG execution (the tentpole; no per-request discovery)
//   batched   frozen band-fused DAG (prepared_graph::freeze_batched) — same
//             data plane as prepared, but schedule nodes are band chunks,
//             collapsing per-tile countdowns into per-band barriers
//   rebuild   full exec::run_dataflow per request on the shared pool — the
//             "no server" baseline every prior bench measured
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "dp/spec/spec.hpp"
#include "obs/metrics.hpp"

namespace rdp::server {

enum class exec_mode : std::uint8_t {
  prepared,  ///< frozen prepared_graph, per-request data plane
  batched,   ///< frozen band-fused prepared_graph (freeze_batched)
  rebuild,   ///< fresh CnC graph per request (baseline)
};

const char* to_string(exec_mode m) noexcept;

struct server_config {
  /// Shared pool size (all requests execute on these workers).
  unsigned workers = 4;
  /// Bounded admission queue; submissions beyond this are shed.
  std::size_t queue_capacity = 256;
  /// Max requests admitted per dispatcher wake (the batching knob).
  std::size_t max_batch = 16;
  /// Max requests executing concurrently (clamped to >= 1).
  std::size_t max_inflight = 4;
  exec_mode mode = exec_mode::prepared;
  /// Attach a per-request metrics window (snapshot delta) to responses.
  /// Only meaningful when requests run one at a time; the constructor
  /// enforces max_inflight == 1 via RDP_REQUIRE when set.
  bool scoped_metrics = false;
};

enum class request_status : std::uint8_t {
  ok,      ///< executed; the instance's table holds the result
  shed,    ///< rejected at admission (queue full or server stopping)
  failed,  ///< a kernel threw; `error` carries the message
};

const char* to_string(request_status s) noexcept;

/// Opaque handle to one frozen graph shape.
using graph_id = std::size_t;

struct response {
  request_status status = request_status::shed;
  std::uint64_t request_id = 0;
  graph_id graph = 0;
  std::uint64_t queue_ns = 0;    ///< submit → dispatcher admission
  std::uint64_t exec_ns = 0;     ///< admission → completion
  std::uint64_t sojourn_ns = 0;  ///< submit → completion (queue + exec)
  std::uint64_t nodes = 0;       ///< base tasks run (prepared mode)
  std::string error;             ///< non-empty iff status == failed
  /// Per-request metrics window (scoped_metrics only): every counter/gauge/
  /// histogram delta between admission and completion.
  std::vector<obs::metric_sample> metrics_delta;
};

class batch_server {
 public:
  explicit batch_server(const server_config& cfg);
  /// Sheds every queued request, waits for in-flight requests, stops.
  ~batch_server();

  batch_server(const batch_server&) = delete;
  batch_server& operator=(const batch_server&) = delete;

  /// Freeze `structural`'s graph (or return the existing id for an already
  /// prepared name × n × base shape — idempotent). The spec is only read
  /// during the call; it is not retained.
  graph_id prepare(dp::recurrence& structural);

  /// Number of distinct graph shapes prepared so far.
  std::size_t graph_count() const;

  /// Enqueue one instance for execution over graph `id`. `rec` must be
  /// structurally identical to the prepared exemplar (same spec name, n,
  /// base — checked); only its data plane may differ. The server shares
  /// ownership of `rec` until the response is fulfilled. Returns a future
  /// that is fulfilled on completion — or immediately, with status::shed,
  /// when the admission queue is full.
  std::future<response> submit(graph_id id, std::shared_ptr<dp::recurrence> rec);

  /// Requests shed at admission since construction.
  std::uint64_t shed_count() const noexcept;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace rdp::server
