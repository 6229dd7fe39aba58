// perfbench_run — one run of one benchmark workload (see perfbench/README.md).
//
// A workload is a list of solve shapes and a list of serve shapes
// (benchmark:n:base). One run:
//
//   set-up     solver pool + batch_server start-up, input generation,
//              serial-loop oracle per input plane, server prepare(); done
//              --setup-reps times (the first is kept, the others are spread
//              over the blocks and torn down), median reported as setup_s
//   warm-up    solver rounds and closed-loop server requests, not timed
//   blocks     kBlocks repetitions of
//                solver rounds over the serial / forkjoin / dataflow:native
//                / prepared registry rows (one sample = one pass over the
//                solve shapes; medians are reported),
//                an open loop at a fixed offered rate, each request timed
//                from when it was due to be sent,
//                a closed loop with max_inflight requests outstanding
//                (completions per second)
//
// Every solve and every response is compared bit-exactly with its plane's
// oracle outside the timed interval; a wrong table, a throw, or a shed or
// failed response counts as a failed operation.
//
// --trace=0 prints the end-to-end metrics. --trace=1 is a separate run that
// additionally records a span around every call into the program (kept in
// memory, written to --trace-out at exit), takes the per-layer measurements
// and prints the per-layer metrics. Alternate rounds and requests are
// traced, so the two halves give the tracing overhead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "dp/dp.hpp"
#include "dp/kernels.hpp"
#include "exec/backend.hpp"
#include "exec/prepared_graph.hpp"
#include "forkjoin/worker_pool.hpp"
#include "server/server.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using sclock = std::chrono::steady_clock;

double ms_between(sclock::time_point a, sclock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double s_since(sclock::time_point a) { return ms_between(a, sclock::now()) / 1e3; }

/// Linear-interpolated quantile (q in [0,1]); NaN for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- workload data -------------------------------------------------------

struct shape {
  dp::benchmark_id bm;
  std::size_t n, base;
};

std::vector<shape> parse_shapes(const std::string& csv) {
  std::vector<shape> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::string bm;
    std::size_t n = 0, base = 0;
    std::stringstream is(item);
    if (!std::getline(is, bm, ':') || !(is >> n) || is.get() != ':' ||
        !(is >> base))
      throw std::runtime_error("bad shape '" + item + "' (want bm:n:base)");
    shape s{dp::benchmark_id::ge, n, base};
    if (bm == "sw") s.bm = dp::benchmark_id::sw;
    else if (bm == "fw") s.bm = dp::benchmark_id::fw;
    else if (bm != "ge") throw std::runtime_error("unknown benchmark " + bm);
    out.push_back(s);
  }
  if (out.empty()) throw std::runtime_error("empty shape list");
  return out;
}

bool is_sw(const shape& s) { return s.bm == dp::benchmark_id::sw; }

// Run constants. They are fixed here, not options, so that no run can
// differ from the benchmark's by a forgotten flag.

/// Input planes per shape. Rounds and requests alternate between them, so
/// no single input decides a number.
constexpr std::size_t kPlanes = 2;
/// Output tables per solve shape that solver rounds rotate over: where a
/// table's allocation lands in the caches moves a serial GE solve by up to
/// ~20% within one process, so no single allocation may decide a run.
constexpr std::size_t kTables = 8;
/// Blocks per run, each {solver rounds, open loop, closed loop}. Every phase
/// is spread over the whole run, and the blocks are the unit the calm-block
/// selection works on (0.4 s each at the benchmark's 40 s).
constexpr std::size_t kBlocks = 100;
/// Blocks whose samples make an end-to-end metric: the calmest fifth, by
/// the interference measured during the metric's own phase (see run()).
/// Against the calmest quarter, this narrowed the widest ten-seed spread
/// beside two busy loops at 3-10% steal from 0.17 to 0.14 on sw-fine and
/// from 0.11 to 0.07 on ge-coarse.
constexpr std::size_t kCalmBlocks = kBlocks / 5;
/// Shares of a block spent on solver rounds and on the open loop; the rest
/// is the closed loop. The open loop needs enough requests per run for a
/// steady p90 (~2 500 at the benchmark's rates); the closed loop enough
/// completions per block (15-30) for a per-block rate.
constexpr double kSolverShare = 0.55;
constexpr double kOpenShare = 0.3;

const dp::sw_params kSwParams{};
constexpr double kFwInf = 1.0e9;
constexpr double kFwDensity = 0.3;
/// Request tables the server phase cycles through (at least max_inflight).
constexpr std::size_t kSlots = 12;
/// The batch server as users get it: default admission, batching and
/// in-flight limits, prepared mode.
const server::server_config kServerDefaults{};

/// One generated problem instance and its serial-loop result.
struct plane {
  shape sh;
  matrix<double> input;  // GE/FW problem data
  std::string a, b;      // SW sequences
  matrix<double> oracle_d;
  matrix<std::int32_t> oracle_s;
};

/// The table one solve or request writes into.
struct workspace {
  matrix<double> d;
  matrix<std::int32_t> s;
};

plane make_plane(const shape& sh, std::uint64_t seed) {
  plane p{sh, {}, {}, {}, {}, {}};
  switch (sh.bm) {
    case dp::benchmark_id::ge: p.input = make_diag_dominant(sh.n, seed); break;
    case dp::benchmark_id::fw:
      // Integer weights and a finite big-M keep every min-plus sum exact,
      // so any evaluation order reproduces the loop oracle bit for bit.
      p.input = make_digraph(sh.n, kFwDensity, seed, kFwInf);
      for (std::size_t i = 0; i < p.input.size(); ++i)
        p.input.data()[i] = std::floor(p.input.data()[i]);
      break;
    default:
      p.a = make_dna(sh.n, seed);
      p.b = make_dna(sh.n, seed ^ 0x5bd1e995u);
  }
  return p;
}

void solve_oracle(plane& p) {
  switch (p.sh.bm) {
    case dp::benchmark_id::ge: p.oracle_d = p.input; dp::ge_loop_serial(p.oracle_d); break;
    case dp::benchmark_id::fw: p.oracle_d = p.input; dp::fw_loop_serial(p.oracle_d); break;
    default:
      p.oracle_s = matrix<std::int32_t>(p.sh.n + 1, p.sh.n + 1, 0);
      dp::sw_loop_serial(p.oracle_s, p.a, p.b, kSwParams);
  }
}

workspace make_workspace(const shape& sh) {
  workspace w;
  if (is_sw(sh)) w.s = matrix<std::int32_t>(sh.n + 1, sh.n + 1, 0);
  else w.d = matrix<double>(sh.n, sh.n);
  return w;
}

/// Reset `w` to the plane's unsolved state.
void load(const plane& p, workspace& w) {
  if (is_sw(p.sh)) std::fill(w.s.data(), w.s.data() + w.s.size(), 0);
  else std::copy(p.input.data(), p.input.data() + p.input.size(), w.d.data());
}

dp::problem_ref problem(const plane& p, workspace& w) {
  switch (p.sh.bm) {
    case dp::benchmark_id::ge: return dp::ge_problem(w.d);
    case dp::benchmark_id::fw: return dp::fw_problem(w.d);
    default: return dp::sw_problem(w.s, p.a, p.b, kSwParams);
  }
}

std::unique_ptr<dp::recurrence> spec(const plane& p, workspace& w) {
  switch (p.sh.bm) {
    case dp::benchmark_id::ge: return dp::make_ge_spec(w.d, p.sh.base);
    case dp::benchmark_id::fw: return dp::make_fw_spec(w.d, p.sh.base);
    default: return dp::make_sw_spec(w.s, p.a, p.b, kSwParams, p.sh.base);
  }
}

bool matches_oracle(const plane& p, const workspace& w) {
  if (is_sw(p.sh))
    return w.s.size() == p.oracle_s.size() &&
           std::memcmp(w.s.data(), p.oracle_s.data(),
                       w.s.size() * sizeof(std::int32_t)) == 0;
  return w.d.size() == p.oracle_d.size() &&
         std::memcmp(w.d.data(), p.oracle_d.data(),
                     w.d.size() * sizeof(double)) == 0;
}

/// Flip one output cell (the smoke test's proof that checks bite).
void corrupt(const plane& p, workspace& w) {
  if (is_sw(p.sh)) w.s(p.sh.n, p.sh.n) += 1;
  else w.d(p.sh.n - 1, p.sh.n - 1) += 1.0;
}

// ---- spans ---------------------------------------------------------------

/// In-memory span log: one entry per call into the program, recorded from
/// the benchmark's own code. Layers name the repository module the call
/// enters ("bench" is the benchmark's own copy/verify work).
class span_log {
 public:
  explicit span_log(bool on) : on_(on) {}

  /// Open a span; returns its index, or -1 when logging is off.
  int begin(const char* name, const char* layer, std::uint64_t id,
            int parent) {
    return add(name, layer, id, parent, sclock::now(), {});
  }
  void end(int idx) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].t1 = sclock::now();
  }
  /// Record an already finished span.
  int add(const char* name, const char* layer, std::uint64_t id, int parent,
          sclock::time_point t0, sclock::time_point t1) {
    if (!on_) return -1;
    spans_.push_back({name, layer, id, parent, t0, t1});
    return static_cast<int>(spans_.size() - 1);
  }

  std::size_t size() const { return spans_.size(); }

  /// Self time (duration minus child durations) summed per layer, as a
  /// share of the summed duration of root spans.
  std::vector<std::pair<std::string, double>> self_shares(
      const std::vector<std::string>& layers) const {
    std::vector<double> child(spans_.size(), 0.0);
    double roots = 0;
    for (const auto& s : spans_) {
      const double d = ms_between(s.t0, s.t1);
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += d;
      else roots += d;
    }
    std::vector<std::pair<std::string, double>> out;
    for (const auto& l : layers) {
      double self = 0;
      for (std::size_t i = 0; i < spans_.size(); ++i)
        if (l == spans_[i].layer)
          self += ms_between(spans_[i].t0, spans_[i].t1) - child[i];
      out.emplace_back(l, roots > 0 ? self / roots : 0.0);
    }
    return out;
  }

  /// Chrome trace_event JSON ("X" events; parent index in args).
  void write(const std::string& path, sclock::time_point origin,
             const std::string& header) const {
    std::ofstream f(path);
    f << "{\"otherData\":" << header << ",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.layer << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
        << std::fixed << std::setprecision(3) << ms_between(origin, s.t0) * 1e3
        << ",\"dur\":" << ms_between(s.t0, s.t1) * 1e3 << ",\"args\":{\"id\":"
        << s.id << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    f << "\n]}\n";
    if (!f) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  struct span {
    const char* name;
    const char* layer;
    std::uint64_t id;
    int parent;
    sclock::time_point t0, t1;
  };
  bool on_;
  std::vector<span> spans_;
};

// ---- options and results -------------------------------------------------

/// Command-line values. Every one but the test hook and the span file is
/// required; the unset markers below let main() tell a missing flag.
constexpr std::int64_t kUnsetInt = std::numeric_limits<std::int64_t>::min();
const double kUnsetDouble = std::nan("");

struct options {
  std::string workload;
  std::string solve_csv, serve_csv;
  std::vector<shape> solve, serve;
  std::int64_t seed = kUnsetInt;
  double seconds = kUnsetDouble;
  std::int64_t trace_flag = kUnsetInt;
  bool trace = false;
  std::string trace_out;
  std::int64_t solver_workers = kUnsetInt, server_workers = kUnsetInt;
  std::int64_t setup_reps = kUnsetInt;
  double rate_rps = kUnsetDouble;
  double warmup_s = kUnsetDouble, server_warmup_s = kUnsetDouble;
  std::int64_t corrupt = 0;
};

struct metric {
  std::string name;
  double value;
  std::string unit;
};

struct tally {
  std::uint64_t attempted = 0, failed = 0;
};

// ---- set-up --------------------------------------------------------------

struct setup_times {
  double pool_s = 0, inputs_s = 0, oracle_s = 0, prepare_s = 0;
};

/// Everything a user builds before the first solve or request.
struct state {
  std::unique_ptr<forkjoin::worker_pool> pool;
  std::unique_ptr<server::batch_server> srv;
  std::vector<plane> solve_planes;  // [shape * planes + k]
  std::vector<plane> serve_planes;  // [shape * planes + k]
  std::vector<server::graph_id> gids;
  setup_times t;
};

/// glibc's allocator policy, fixed for set-up or for measurement. Left to
/// adapt, the mmap threshold rises after the first large free, and whether
/// a repeated set-up's tables come from reused heap memory or fresh pages
/// then depends on what ran before it (sw-fine's ~40 ms set-up moved 2x
/// between repetitions). Set-ups run under glibc's initial policy, so each
/// pays for fresh pages as the first one in a new process does; solves and
/// requests run under the policy the adaptive one settles at in a
/// long-running process (large blocks reused from the heap, not trimmed).
void allocator_policy(bool setting_up) {
#ifdef __GLIBC__
  constexpr int kInitialMmapThreshold = 128 * 1024;
  constexpr int kSettledMmapThreshold = 32 * 1024 * 1024;
  mallopt(M_MMAP_THRESHOLD, setting_up ? kInitialMmapThreshold : kSettledMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, setting_up ? kInitialMmapThreshold : 2 * kSettledMmapThreshold);
#else
  (void)setting_up;
#endif
}

std::uint64_t plane_seed(std::uint64_t seed, std::size_t list,
                         std::size_t shape_idx, std::size_t k) {
  return seed * 0x9e3779b97f4a7c15ull + list * 1000003ull +
         shape_idx * 1009ull + k + 1;
}

std::unique_ptr<state> set_up(const options& o, span_log& log,
                              std::uint64_t rep) {
  auto st = std::make_unique<state>();
  const int root = log.begin("setup", "setup", rep, -1);

  auto t = sclock::now();
  int sp = log.begin("setup.pool", "setup", rep, root);
  st->pool = std::make_unique<forkjoin::worker_pool>(
      static_cast<unsigned>(o.solver_workers));
  server::server_config cfg = kServerDefaults;
  cfg.workers = static_cast<unsigned>(o.server_workers);
  cfg.mode = server::exec_mode::prepared;
  st->srv = std::make_unique<server::batch_server>(cfg);
  log.end(sp);
  st->t.pool_s = s_since(t);

  t = sclock::now();
  sp = log.begin("setup.inputs", "setup", rep, root);
  const std::size_t K = kPlanes;
  for (std::size_t j = 0; j < o.solve.size(); ++j)
    for (std::size_t k = 0; k < K; ++k)
      st->solve_planes.push_back(make_plane(
          o.solve[j], plane_seed(static_cast<std::uint64_t>(o.seed), 0, j, k)));
  for (std::size_t j = 0; j < o.serve.size(); ++j)
    for (std::size_t k = 0; k < K; ++k)
      st->serve_planes.push_back(make_plane(
          o.serve[j], plane_seed(static_cast<std::uint64_t>(o.seed), 1, j, k)));
  log.end(sp);
  st->t.inputs_s = s_since(t);

  t = sclock::now();
  sp = log.begin("setup.oracle", "setup", rep, root);
  for (auto& p : st->solve_planes) solve_oracle(p);
  for (auto& p : st->serve_planes) solve_oracle(p);
  log.end(sp);
  st->t.oracle_s = s_since(t);

  t = sclock::now();
  sp = log.begin("setup.prepare", "setup", rep, root);
  for (std::size_t j = 0; j < o.serve.size(); ++j) {
    workspace w = make_workspace(o.serve[j]);
    st->gids.push_back(st->srv->prepare(*spec(st->serve_planes[j * K], w)));
  }
  log.end(sp);
  st->t.prepare_s = s_since(t);
  log.end(root);
  return st;
}

// ---- solver phase ---------------------------------------------------------

/// One timed item of a solver round: a registry row, or (traced runs only)
/// a direct call that splits a row into its layers.
struct solver_item {
  enum kind_t { registry, borrowed_dataflow, prepared_split } kind;
  const char* name;   // metric prefix / span name
  const char* layer;
  std::vector<const dp::variant*> rows;  // per solve shape
  std::vector<double> ms, ms_traced, ms_untraced;
  std::vector<double> freeze_ms, execute_ms;  // prepared_split only
};

struct solver_result {
  std::vector<solver_item> items;
  double fj_tasks = 0, fj_steals = 0, fj_parks = 0;  // per solve
  double cnc_steps = 0, cnc_aborted = 0;             // per solve
  double prepared_nodes = 0;                         // per solve
};

class solver_phase {
 public:
  solver_phase(const options& o, state& st, span_log& log, tally& tl)
      : o_(o), st_(st), log_(log), tl_(tl) {
    // Rounds rotate over kTables allocations per shape.
    for (const auto& sh : o.solve)
      for (std::size_t t = 0; t < kTables; ++t) ws_.push_back(make_workspace(sh));
    add(solver_item::registry, "serial", "serial", "serial");
    add(solver_item::registry, "forkjoin", "forkjoin", "forkjoin");
    add(solver_item::registry, "dataflow", "dataflow:native", "cnc");
    add(solver_item::registry, "prepared", "prepared", "prepared");
    if (o.trace) {
      add(solver_item::borrowed_dataflow, "cnc.borrowed", "", "cnc");
      add(solver_item::prepared_split, "prepared.split", "", "prepared");
    }
  }

  /// Corrupt the next `n` measured outputs before they are checked.
  void arm_corruption(std::int64_t n) { corrupt_left_ = n; }

  /// At least one round, then rounds until `deadline`; samples are kept
  /// only when `measure`.
  void run_until(sclock::time_point deadline, bool measure) {
    do round(measure);
    while (sclock::now() < deadline);
  }

  const std::vector<solver_item>& items() const { return items_; }
  /// The planes whose oracles the outputs were checked against.
  const std::set<const plane*>& checked() const { return checked_; }

  solver_result finish() {
    solver_result r;
    const double solves = static_cast<double>(fj_solves_ ? fj_solves_ : 1);
    r.fj_tasks = static_cast<double>(fj_tasks_) / solves;
    r.fj_steals = static_cast<double>(fj_steals_) / solves;
    r.fj_parks = static_cast<double>(fj_parks_) / solves;
    const double cs = static_cast<double>(cnc_solves_ ? cnc_solves_ : 1);
    r.cnc_steps = static_cast<double>(cnc_steps_) / cs;
    r.cnc_aborted = static_cast<double>(cnc_aborted_) / cs;
    r.prepared_nodes = prepared_nodes_;
    r.items = std::move(items_);
    return r;
  }

 private:
  void add(solver_item::kind_t kind, const char* name, const char* label,
           const char* layer) {
    solver_item it{kind, name, layer, {}, {}, {}, {}, {}, {}};
    if (kind == solver_item::registry)
      for (const auto& sh : o_.solve) {
        const dp::variant* v = dp::find_variant(sh.bm, label);
        if (v == nullptr || !v->supports(sh.n, sh.base))
          throw std::runtime_error(std::string("registry row ") + label +
                                   " cannot run this shape");
        it.rows.push_back(v);
      }
    items_.push_back(std::move(it));
  }

  void round(bool measure) {
    const std::uint64_t id = rounds_++;
    const bool traced = o_.trace && id % 2 == 0;
    span_log off(false);
    span_log& log = traced ? log_ : off;
    const int root = log.begin("round", "bench", id, -1);
    const std::size_t K = kPlanes;
    for (auto& it : items_) {
      double total = 0, freeze = 0, execute = 0;
      const int isp = log.begin(it.name, it.layer, id, root);
      forkjoin::pool_stats before{};
      const bool fj = o_.trace && measure && std::strcmp(it.name, "forkjoin") == 0;
      if (fj) before = st_.pool->stats();
      for (std::size_t j = 0; j < o_.solve.size(); ++j) {
        const plane& p = st_.solve_planes[j * K + id % K];
        workspace& w = ws_[j * kTables + id % kTables];
        int sp = log.begin("bench.load", "bench", id, isp);
        load(p, w);
        log.end(sp);
        bool ok = true;
        try {
          total += solve_one(it, j, p, w, id, isp, log, freeze, execute);
        } catch (const std::exception& e) {
          std::cerr << "perfbench: " << it.name << " threw: " << e.what() << "\n";
          ok = false;
        }
        sp = log.begin("bench.verify", "bench", id, isp);
        if (ok && measure && corrupt_left_ > 0) {
          corrupt(p, w);
          --corrupt_left_;
        }
        ok = ok && matches_oracle(p, w);
        checked_.insert(&p);
        log.end(sp);
        ++tl_.attempted;
        if (!ok) {
          ++tl_.failed;
          std::cerr << "perfbench: " << it.name << " round " << id
                    << " differs from the oracle\n";
        }
      }
      if (fj) {
        const forkjoin::pool_stats after = st_.pool->stats();
        fj_tasks_ += after.tasks_executed - before.tasks_executed;
        fj_steals_ += after.steals - before.steals;
        fj_parks_ += after.parks - before.parks;
        ++fj_solves_;
      }
      log.end(isp);
      if (!measure) continue;
      it.ms.push_back(total);
      if (o_.trace) (traced ? it.ms_traced : it.ms_untraced).push_back(total);
      if (it.kind == solver_item::prepared_split) {
        it.freeze_ms.push_back(freeze);
        it.execute_ms.push_back(execute);
      }
    }
    log.end(root);
  }

  /// Time one call for solve shape `j`; returns its wall ms.
  double solve_one(solver_item& it, std::size_t j, const plane& p,
                   workspace& w, std::uint64_t id, int parent, span_log& log,
                   double& freeze, double& execute) {
    if (it.kind == solver_item::registry) {
      dp::run_options ro;
      ro.base = p.sh.base;
      ro.workers = static_cast<unsigned>(o_.solver_workers);
      ro.pool = st_.pool.get();
      const dp::problem_ref ref = problem(p, w);
      const int sp = log.begin("registry.run", it.layer, id, parent);
      const auto t0 = sclock::now();
      const dp::run_outcome out = it.rows[j]->run(*it.rows[j], ref, ro);
      const auto t1 = sclock::now();
      log.end(sp);
      if (out.used_dataflow && o_.trace) {
        cnc_steps_ += out.info.stats.steps_executed;
        cnc_aborted_ += out.info.stats.steps_aborted;
        if (j + 1 == o_.solve.size()) ++cnc_solves_;
      }
      return ms_between(t0, t1);
    }
    const auto rec = spec(p, w);
    if (it.kind == solver_item::borrowed_dataflow) {
      exec::dataflow_options dopts;
      dopts.pool = st_.pool.get();
      const int sp = log.begin("exec.run_dataflow", it.layer, id, parent);
      const auto t0 = sclock::now();
      exec::run_dataflow(*rec, dopts);
      const auto t1 = sclock::now();
      log.end(sp);
      return ms_between(t0, t1);
    }
    int sp = log.begin("prepared.freeze", it.layer, id, parent);
    const auto t0 = sclock::now();
    const exec::prepared_graph g = exec::prepared_graph::freeze(*rec);
    const auto t1 = sclock::now();
    log.end(sp);
    sp = log.begin("prepared.execute", it.layer, id, parent);
    g.execute(*rec, *st_.pool);
    const auto t2 = sclock::now();
    log.end(sp);
    if (j == 0) prepared_nodes_ = 0;
    prepared_nodes_ += static_cast<double>(g.node_count());
    freeze += ms_between(t0, t1);
    execute += ms_between(t1, t2);
    return ms_between(t0, t2);
  }

  const options& o_;
  state& st_;
  span_log& log_;
  tally& tl_;
  std::vector<workspace> ws_;  // [shape * kTables + t]
  std::vector<solver_item> items_;
  std::set<const plane*> checked_;
  std::uint64_t rounds_ = 0;
  std::int64_t corrupt_left_ = 0;
  std::uint64_t fj_tasks_ = 0, fj_steals_ = 0, fj_parks_ = 0, fj_solves_ = 0;
  std::uint64_t cnc_steps_ = 0, cnc_aborted_ = 0, cnc_solves_ = 0;
  double prepared_nodes_ = 0;
};

// ---- server phase ---------------------------------------------------------

struct server_result {
  std::vector<double> sojourn_ms, queue_ms, exec_ms, late_ms;
  std::vector<double> sojourn_traced, sojourn_untraced;
  std::uint64_t shed = 0, failed = 0;
};

class server_phase {
 public:
  server_phase(const options& o, state& st, span_log& log, tally& tl)
      : o_(o), st_(st), log_(log), tl_(tl) {
    // Slot s always serves shape s % shapes, so its workspace fits.
    const std::size_t ns = o.serve.size();
    const std::size_t want = std::max(kSlots, kServerDefaults.max_inflight);
    const std::size_t slots = (want + ns - 1) / ns * ns;
    for (std::size_t s = 0; s < slots; ++s)
      slots_.push_back({make_workspace(o.serve[s % ns]), {}, {}, {}, 0, false,
                        false, false});
  }

  /// Closed loop with max_inflight requests outstanding until `deadline`.
  /// Requests are verified, not recorded; returns (completions, seconds).
  std::pair<std::uint64_t, double> closed_loop(sclock::time_point deadline) {
    const std::uint64_t M = kServerDefaults.max_inflight;
    const std::uint64_t first = next_;
    const auto t0 = sclock::now();
    sclock::time_point last = t0;
    std::uint64_t i = first;
    for (; i < first + M || sclock::now() < deadline; ++i) {
      if (i >= first + M) last = std::max(last, finish(i - M, false));
      send(i, sclock::now(), false);
    }
    for (std::uint64_t r = i > first + M ? i - M : first; r < i; ++r)
      last = std::max(last, finish(r, false));
    next_ = i;
    return {i - first, ms_between(t0, last) / 1e3};
  }

  /// Open loop at o.rate_rps for `seconds`, every request recorded.
  void open_loop(double seconds) {
    const auto start = sclock::now() + std::chrono::milliseconds(5);
    const auto gap = std::chrono::duration<double>(1.0 / o_.rate_rps);
    const auto count =
        static_cast<std::uint64_t>(std::max(1.0, seconds * o_.rate_rps));
    const std::uint64_t first = next_;
    for (std::uint64_t k = 0; k < count; ++k) {
      const std::uint64_t i = first + k;
      if (i >= first + slots_.size()) finish(i - slots_.size(), true);
      const auto due =
          start + std::chrono::duration_cast<sclock::duration>(gap * k);
      send(i, due, true);
    }
    const std::uint64_t end = first + count;
    for (std::uint64_t i = end > slots_.size() ? std::max(first, end - slots_.size())
                                               : first;
         i < end; ++i)
      finish(i, true);
    next_ = end;
  }

  server_result& result() { return res_; }
  /// The planes whose oracles the responses were checked against.
  const std::set<const plane*>& checked() const { return checked_; }

 private:
  struct slot {
    workspace ws;
    std::future<server::response> fut;
    sclock::time_point due, submit;
    std::size_t plane = 0;
    bool busy = false, measured = false, traced = false;
  };

  slot& slot_of(std::uint64_t i) { return slots_[i % slots_.size()]; }

  /// Load request i's plane into its slot, wait until `due`, submit.
  void send(std::uint64_t i, sclock::time_point due, bool measured) {
    const std::size_t ns = o_.serve.size();
    const std::size_t j = i % ns;
    const std::size_t K = kPlanes;
    slot& s = slot_of(i);
    s.plane = j * K + (i / ns) % K;
    const plane& p = st_.serve_planes[s.plane];
    load(p, s.ws);
    std::shared_ptr<dp::recurrence> rec = spec(p, s.ws);
    std::this_thread::sleep_until(due);
    s.due = due;
    s.measured = measured;
    s.traced = measured && o_.trace && i % 2 == 0;
    s.busy = true;
    s.submit = sclock::now();
    s.fut = st_.srv->submit(st_.gids[j], std::move(rec));
  }

  /// Wait for request i, verify it, record it; returns its completion time.
  sclock::time_point finish(std::uint64_t i, bool measured) {
    slot& s = slot_of(i);
    if (!s.busy) return s.submit;
    s.busy = false;
    const server::response r = s.fut.get();
    const auto done = s.submit + std::chrono::nanoseconds(r.sojourn_ns);
    ++tl_.attempted;
    bool ok = r.status == server::request_status::ok;
    if (r.status == server::request_status::shed) ++res_.shed;
    if (r.status == server::request_status::failed) {
      ++res_.failed;
      std::cerr << "perfbench: request " << i << " failed: " << r.error << "\n";
    }
    checked_.insert(&st_.serve_planes[s.plane]);
    if (ok && !matches_oracle(st_.serve_planes[s.plane], s.ws)) {
      ok = false;
      std::cerr << "perfbench: request " << i << " differs from the oracle\n";
    }
    if (!ok) ++tl_.failed;
    if (!(measured && s.measured)) return done;
    const double late = ms_between(s.due, s.submit);
    const double sojourn = late + static_cast<double>(r.sojourn_ns) / 1e6;
    res_.sojourn_ms.push_back(sojourn);
    res_.queue_ms.push_back(static_cast<double>(r.queue_ns) / 1e6);
    res_.exec_ms.push_back(static_cast<double>(r.exec_ns) / 1e6);
    res_.late_ms.push_back(late);
    if (o_.trace) {
      (s.traced ? res_.sojourn_traced : res_.sojourn_untraced)
          .push_back(sojourn);
      if (s.traced) {
        const int root = log_.add("server.request", "server", i, -1, s.due, done);
        log_.add("server.late", "bench", i, root, s.due, s.submit);
        const auto admitted = s.submit + std::chrono::nanoseconds(r.queue_ns);
        log_.add("server.queue", "server", i, root, s.submit, admitted);
        log_.add("server.exec", "prepared", i, root, admitted, done);
      }
    }
    return done;
  }

  const options& o_;
  state& st_;
  span_log& log_;
  tally& tl_;
  std::vector<slot> slots_;
  std::uint64_t next_ = 0;
  server_result res_;
  std::set<const plane*> checked_;
};

// ---- per-layer probes (traced runs) ---------------------------------------

/// Median wall time of one base-kernel call on a hot interior tile of
/// `sh`'s base size, restored from a copy before every call.
double kernel_tile_us(const shape& sh) {
  const std::size_t b = sh.base, n = 2 * b;
  std::vector<double> us;
  const auto budget = sclock::now() + std::chrono::milliseconds(150);
  if (is_sw(sh)) {
    const std::string a = make_dna(n, 7), bb = make_dna(n, 8);
    matrix<std::int32_t> s(n + 1, n + 1, 0);
    dp::sw_kernel(s.data(), n + 1, a, bb, kSwParams, 0, 0, b);
    dp::sw_kernel(s.data(), n + 1, a, bb, kSwParams, 0, b, b);
    dp::sw_kernel(s.data(), n + 1, a, bb, kSwParams, b, 0, b);
    while (us.size() < 50 || (sclock::now() < budget && us.size() < 5000)) {
      const auto t0 = sclock::now();
      dp::sw_kernel(s.data(), n + 1, a, bb, kSwParams, b, b, b);
      us.push_back(ms_between(t0, sclock::now()) * 1e3);
    }
    return median(us);
  }
  const bool ge = sh.bm == dp::benchmark_id::ge;
  const matrix<double> init =
      ge ? make_diag_dominant(n, 7) : make_digraph(n, kFwDensity, 7, kFwInf);
  matrix<double> m = init;
  while (us.size() < 50 || (sclock::now() < budget && us.size() < 5000)) {
    std::copy(init.data(), init.data() + init.size(), m.data());
    const auto t0 = sclock::now();
    if (ge) dp::ge_kernel(m.data(), n, b, b, 0, b);
    else dp::fw_kernel(m.data(), n, b, b, 0, b);
    us.push_back(ms_between(t0, sclock::now()) * 1e3);
  }
  return median(us);
}

/// Median construct+destroy time of a worker_pool of `workers` threads.
double pool_start_ms(unsigned workers) {
  std::vector<double> ms;
  for (int r = 0; r < 15; ++r) {
    const auto t0 = sclock::now();
    { forkjoin::worker_pool p(workers); }
    ms.push_back(ms_between(t0, sclock::now()));
  }
  return median(ms);
}

/// Cumulative CPU time of the machine (all CPUs, in clock ticks, from
/// /proc/stat; zeros where it cannot be read) and of this process.
struct cpu_mark {
  std::uint64_t steal = 0, busy = 0, total = 0;
  double own_s = 0;
};

cpu_mark cpu_now() {
  cpu_mark m;
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  m.own_s = static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  std::uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
  for (auto& x : v) f >> x;
  if (!f || cpu != "cpu") return m;
  m.steal = v[7];
  m.busy = v[0] + v[1] + v[2] + v[5] + v[6];
  m.total = m.busy + v[3] + v[4] + v[7];
  return m;
}

/// Shares of the machine's CPU time between two readings that this process
/// could not have had: stolen by the hypervisor, or used by other processes
/// (the machine's busy time minus this process's own). Both 0 where
/// /proc/stat cannot be read.
struct interference {
  double steal = 0, others = 0;
  double total() const { return steal + others; }
};

interference interference_between(const cpu_mark& from, const cpu_mark& to) {
  if (to.total <= from.total) return {};
  static const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double total = static_cast<double>(to.total - from.total);
  const double busy = static_cast<double>(to.busy - from.busy);
  const double own = (to.own_s - from.own_s) * ticks_per_s;
  return {static_cast<double>(to.steal - from.steal) / total,
          std::max(0.0, busy - own) / total};
}

/// FNV-1a digest (hex) of the oracle tables of `planes`, in plane order: a
/// deterministic record of what a phase was checked against, so that runs
/// of different workloads can be told apart by more than their timings.
std::string oracle_digest(const std::set<const plane*>& planes) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* c = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) h = (h ^ c[i]) * 1099511628211ull;
  };
  for (const plane* p : planes) {
    if (is_sw(p->sh)) mix(p->oracle_s.data(), p->oracle_s.size() * sizeof(std::int32_t));
    else mix(p->oracle_d.data(), p->oracle_d.size() * sizeof(double));
  }
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h;
  return os.str();
}

// ---- output ---------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int run(const options& o) {
  const auto origin = sclock::now();
  const cpu_mark cpu_start = cpu_now();
  span_log log(o.trace);
  tally tl;

  // Set-up. The first one is kept for the run. The other setup_reps - 1 are
  // spread evenly over the blocks and torn down again, so that setup_s (the
  // median of all of them) samples the whole run, not only its first
  // second, when a burst on the shared machine can slow a set-up by a third.
  std::vector<double> setup_s;
  std::vector<setup_times> setups;
  auto timed_set_up = [&] {
    allocator_policy(true);
    const auto t0 = sclock::now();
    auto made = set_up(o, log, setups.size());
    setup_s.push_back(s_since(t0));
    allocator_policy(false);
    setups.push_back(made->t);
    return made;
  };
  const std::unique_ptr<state> st = timed_set_up();
  const auto reps = static_cast<std::size_t>(o.setup_reps);

  // Warm-up, then kBlocks repetitions of {solver rounds, open loop, closed
  // loop}, so every metric samples the same stretch of the run.
  auto after = [](double s) {
    return sclock::now() + std::chrono::duration_cast<sclock::duration>(
                               std::chrono::duration<double>(s));
  };
  solver_phase solver(o, *st, log, tl);
  server_phase srv(o, *st, log, tl);
  solver.run_until(after(o.warmup_s), false);
  srv.closed_loop(after(o.server_warmup_s));
  solver.arm_corruption(o.corrupt);
  // Each end-to-end metric is computed from the kCalmBlocks blocks in which
  // its phase ran with the least interference: CPU time stolen by the
  // hypervisor or used by other processes on the machine. On a shared VM
  // steal swings between ~0% and ~20% within a minute and slows parallel
  // solves and the server tail by up to 2x. Ranking each phase by the steal
  // during that phase, and keeping the calmest quarter of short blocks
  // instead of the calmer half of one-second blocks ranked by whole-block
  // steal, cut the run-to-run spread of the server p90 from 0.15-0.43 to
  // 0.04-0.14 (IQR/median over six seeds per workload, runs at 2-16% steal
  // on a 4-vCPU Xeon VM). A busy neighbour process slows them as much
  // without any steal: beside two intermittent one-core busy loops, ranking
  // by steal alone left sw-fine's prepared.solve_ms and server.capacity_rps
  // spread 0.21-0.22 over five seeds, ranking by interference 0.10-0.12 over
  // ten. Ties go to the earlier block.
  const double block_s = o.seconds / static_cast<double>(kBlocks);
  const double closed_share = 1.0 - kSolverShare - kOpenShare;
  enum phase { solver_phase_id, open_phase_id, closed_phase_id, phase_count };
  struct block {
    std::map<std::string, std::vector<double>> samples;
    std::uint64_t completed = 0;
    double closed_s = 0;
    double interference[phase_count] = {};
  };
  std::vector<block> blocks(kBlocks);
  auto since = [](const std::vector<double>& v, std::size_t from) {
    return std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(from),
                               v.end());
  };
  for (std::size_t b = 0; b < kBlocks; ++b) {
    // Set-up r (0-based) runs before the first block b >= r * kBlocks / reps.
    if (setups.size() < reps && setups.size() * kBlocks <= b * reps)
      timed_set_up();
    block& blk = blocks[b];
    cpu_mark cpu = cpu_now();
    auto phase_done = [&](phase ph) {
      const cpu_mark now = cpu_now();
      blk.interference[ph] = interference_between(cpu, now).total();
      cpu = now;
    };
    std::vector<std::size_t> from, from_untraced;
    for (const auto& it : solver.items()) {
      from.push_back(it.ms.size());
      from_untraced.push_back(it.ms_untraced.size());
    }
    solver.run_until(after(block_s * kSolverShare), true);
    for (std::size_t i = 0; i < from.size(); ++i) {
      const solver_item& it = solver.items()[i];
      blk.samples[std::string(it.name) + ".solve_ms"] = since(it.ms, from[i]);
      blk.samples[std::string(it.name) + ".untraced"] =
          since(it.ms_untraced, from_untraced[i]);
    }
    phase_done(solver_phase_id);
    const std::size_t first = srv.result().sojourn_ms.size();
    srv.open_loop(block_s * kOpenShare);
    blk.samples["sojourn"] = since(srv.result().sojourn_ms, first);
    phase_done(open_phase_id);
    std::tie(blk.completed, blk.closed_s) =
        srv.closed_loop(after(block_s * closed_share));
    phase_done(closed_phase_id);
  }
  const interference whole_run = interference_between(cpu_start, cpu_now());
  std::vector<std::size_t> calm[phase_count];
  for (int ph = 0; ph < phase_count; ++ph) {
    auto& c = calm[ph];
    for (std::size_t b = 0; b < kBlocks; ++b) c.push_back(b);
    std::stable_sort(c.begin(), c.end(), [&](std::size_t x, std::size_t y) {
      return blocks[x].interference[ph] < blocks[y].interference[ph];
    });
    c.resize(kCalmBlocks);
    std::sort(c.begin(), c.end());
  }
  auto calm_samples = [&](phase ph, const std::string& key) {
    std::vector<double> v;
    for (std::size_t b : calm[ph]) {
      const auto& s = blocks[b].samples.at(key);
      v.insert(v.end(), s.begin(), s.end());
    }
    return v;
  };
  // An end-to-end metric is the median, over the calm blocks of its phase,
  // of each block's own statistic. Pooling the calm blocks' samples instead
  // let the few calm blocks that still caught a stall set the pooled tail:
  // on sw-fine beside two busy loops at 3-10% steal, the pooled p90 of the
  // calmest quarter spread 0.29 over ten seeds, the median of the blocks'
  // p90s 0.17.
  auto calm_median = [&](phase ph, const auto& stat) {
    std::vector<double> v;
    for (std::size_t b : calm[ph]) v.push_back(stat(blocks[b]));
    return median(v);
  };
  auto e2e = [&](const std::string& name) {
    if (name == "setup_s") return median(setup_s);
    if (name == "server.sojourn_ms.p50" || name == "server.sojourn_ms.p90") {
      const double q = name == "server.sojourn_ms.p50" ? 0.5 : 0.9;
      return calm_median(open_phase_id, [q](const block& blk) {
        return quantile(blk.samples.at("sojourn"), q);
      });
    }
    if (name == "server.capacity_rps")
      return calm_median(closed_phase_id, [](const block& blk) {
        return static_cast<double>(blk.completed) / blk.closed_s;
      });
    return calm_median(solver_phase_id, [&name](const block& blk) {
      return median(blk.samples.at(name));
    });
  };
  // Per-layer numbers derived from solve times take the untraced rounds of
  // the calm blocks, so that differences such as cnc.context_ms compare
  // like with like.
  auto layer_ms = [&](const std::string& item_name) {
    return median(calm_samples(solver_phase_id, item_name + ".untraced"));
  };
  solver_result sr = solver.finish();
  const server_result& vr = srv.result();

  std::vector<metric> m;
  auto item = [&](const char* name) -> solver_item& {
    for (auto& it : sr.items)
      if (std::strcmp(it.name, name) == 0) return it;
    throw std::logic_error("no solver item");
  };
  const char* backends[] = {"serial", "forkjoin", "dataflow", "prepared"};
  if (!o.trace) {
    for (const char* b : backends)
      m.push_back({std::string(b) + ".solve_ms", e2e(std::string(b) + ".solve_ms"), "ms"});
    m.push_back({"server.sojourn_ms.p50", e2e("server.sojourn_ms.p50"), "ms"});
    m.push_back({"server.sojourn_ms.p90", e2e("server.sojourn_ms.p90"), "ms"});
    m.push_back({"server.capacity_rps", e2e("server.capacity_rps"), "1/s"});
    m.push_back({"setup_s", e2e("setup_s"), "s"});
  } else {
    const auto W = static_cast<double>(o.solver_workers);
    double kernel_ms = 0, tiles = 0;
    for (const auto& sh : o.solve) {
      workspace w = make_workspace(sh);
      plane p = make_plane(sh, 1);
      const double nt = static_cast<double>(
          exec::prepared_graph::freeze(*spec(p, w)).tile_count());
      kernel_ms += nt * kernel_tile_us(sh) / 1e3;
      tiles += nt;
    }
    m.push_back({"kernels.tile_us", kernel_ms * 1e3 / tiles, "us"});
    m.push_back({"kernels.solve_kernel_ms", kernel_ms, "ms"});
    for (const char* b : backends) {
      const double w = std::strcmp(b, "serial") == 0 ? 1.0 : W;
      m.push_back({std::string("kernels.share.") + b,
                   kernel_ms / (w * layer_ms(b)),
                   "ratio"});
    }
    const double fj = layer_ms("forkjoin");
    m.push_back({"forkjoin.tasks_per_solve", sr.fj_tasks, "count"});
    m.push_back({"forkjoin.steals_per_solve", sr.fj_steals, "count"});
    m.push_back({"forkjoin.parks_per_solve", sr.fj_parks, "count"});
    m.push_back({"forkjoin.nonkernel_us_per_task",
                 (W * fj - kernel_ms) * 1e3 / std::max(sr.fj_tasks, 1.0), "us"});
    m.push_back({"pool.start_ms",
                 pool_start_ms(static_cast<unsigned>(o.solver_workers)), "ms"});
    const double df = layer_ms("dataflow");
    const double borrowed = layer_ms("cnc.borrowed");
    m.push_back({"cnc.steps_per_solve", sr.cnc_steps, "count"});
    m.push_back({"cnc.aborted_per_solve", sr.cnc_aborted, "count"});
    m.push_back({"cnc.useful_ratio",
                 sr.cnc_steps / std::max(sr.cnc_steps + sr.cnc_aborted, 1.0),
                 "ratio"});
    m.push_back({"cnc.borrowed_solve_ms", borrowed, "ms"});
    m.push_back({"cnc.context_ms", df - borrowed, "ms"});
    m.push_back({"cnc.nonkernel_us_per_step",
                 (W * df - kernel_ms) * 1e3 / std::max(sr.cnc_steps, 1.0), "us"});
    const solver_item& split = item("prepared.split");
    m.push_back({"prepared.freeze_ms", median(split.freeze_ms), "ms"});
    m.push_back({"prepared.execute_ms", median(split.execute_ms), "ms"});
    m.push_back({"prepared.nodes", sr.prepared_nodes, "count"});
    m.push_back({"server.queue_ms.p50", quantile(vr.queue_ms, 0.5), "ms"});
    m.push_back({"server.queue_ms.p90", quantile(vr.queue_ms, 0.9), "ms"});
    m.push_back({"server.exec_ms.p50", quantile(vr.exec_ms, 0.5), "ms"});
    m.push_back({"server.exec_ms.p90", quantile(vr.exec_ms, 0.9), "ms"});
    m.push_back({"server.shed", static_cast<double>(vr.shed), "count"});
    m.push_back({"server.failed", static_cast<double>(vr.failed), "count"});
    m.push_back({"server.generator_late_ms.max",
                 *std::max_element(vr.late_ms.begin(), vr.late_ms.end()), "ms"});
    auto setup_median = [&](double setup_times::*f) {
      std::vector<double> v;
      for (const auto& s : setups) v.push_back(s.*f);
      return median(v);
    };
    m.push_back({"setup.pool_s", setup_median(&setup_times::pool_s), "s"});
    m.push_back({"setup.inputs_s", setup_median(&setup_times::inputs_s), "s"});
    m.push_back({"setup.oracle_s", setup_median(&setup_times::oracle_s), "s"});
    m.push_back({"setup.prepare_s", setup_median(&setup_times::prepare_s), "s"});
    double overhead = 0;
    for (const char* b : backends) {
      const auto& it = item(b);
      m.push_back({std::string(b) + ".solve_ms.p95", quantile(it.ms, 0.95), "ms"});
      m.push_back({std::string(b) + ".solve_ms.count",
                   static_cast<double>(it.ms.size()), "count"});
      overhead += median(it.ms_traced) - median(it.ms_untraced);
    }
    m.push_back({"trace.overhead_ms.solve", overhead, "ms"});
    m.push_back({"trace.overhead_ms.sojourn_p50",
                 median(vr.sojourn_traced) - median(vr.sojourn_untraced), "ms"});
    m.push_back({"trace.spans", static_cast<double>(log.size()), "count"});
    for (const auto& [layer, share] : log.self_shares(
             {"serial", "forkjoin", "cnc", "prepared", "server", "setup",
              "bench"}))
      m.push_back({"trace.self_share." + layer, share, "ratio"});
  }

  std::ostringstream info;
  info << "{\"workload\":" << json_str(o.workload)
       << ",\"seed\":" << o.seed
       << ",\"kernel_impl\":" << json_str(dp::to_string(dp::active_kernel_impl()))
       << ",\"solver_workers\":" << o.solver_workers
       << ",\"server_workers\":" << o.server_workers
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << ",\"compiler\":" << json_str(compiler_id())
       << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
       << ",\"solve\":" << json_str(o.solve_csv)
       << ",\"serve\":" << json_str(o.serve_csv)
       << ",\"solve_oracle_digest\":" << json_str(oracle_digest(solver.checked()))
       << ",\"serve_oracle_digest\":" << json_str(oracle_digest(srv.checked()))
       << ",\"rate_rps\":" << json_number(o.rate_rps)
       << ",\"open_loop_requests\":" << vr.sojourn_ms.size()
       << ",\"solver_rounds\":" << item("serial").ms.size()
       << ",\"steal_share\":" << json_number(whole_run.steal)
       << ",\"others_share\":" << json_number(whole_run.others)
       << ",\"setup_s\":[";
  for (std::size_t r = 0; r < setup_s.size(); ++r)
    info << (r ? "," : "") << json_number(setup_s[r]);
  info << "]";
  // Per phase: the interference of every block (3 digits) and the calm blocks.
  const char* phase_names[] = {"solver", "open_loop", "closed_loop"};
  for (int ph = 0; ph < phase_count; ++ph) {
    info << ",\"" << phase_names[ph] << "_interference\":[" << std::setprecision(3);
    for (std::size_t b = 0; b < kBlocks; ++b)
      info << (b ? "," : "") << blocks[b].interference[ph];
    info << "],\"" << phase_names[ph] << "_calm_blocks\":[";
    for (std::size_t i = 0; i < kCalmBlocks; ++i)
      info << (i ? "," : "") << calm[ph][i];
    info << "]";
  }
  info << "}";

  if (o.trace && !o.trace_out.empty())
    log.write(o.trace_out, origin, info.str());

  std::ostringstream out;
  out << "{\"attempted\":" << tl.attempted << ",\"failed\":" << tl.failed
      << ",\"info\":" << info.str() << ",\"metrics\":{";
  for (std::size_t i = 0; i < m.size(); ++i)
    out << (i ? "," : "") << json_str(m[i].name) << ":{\"value\":"
        << json_number(m[i].value) << ",\"unit\":" << json_str(m[i].unit) << "}";
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  rdp::cli_parser cli("perfbench_run: one run of one benchmark workload");
  cli.add_string("workload", &o.workload, "workload name (for the record)");
  cli.add_string("solve", &o.solve_csv, "solve shapes, bm:n:base[,...]");
  cli.add_string("serve", &o.serve_csv, "serve shapes, bm:n:base[,...]");
  cli.add_int("seed", &o.seed, "input seed");
  cli.add_double("seconds", &o.seconds, "measured seconds");
  cli.add_int("trace", &o.trace_flag, "1 = traced run with per-layer metrics");
  cli.add_int("solver-workers", &o.solver_workers, "shared solver pool size");
  cli.add_int("server-workers", &o.server_workers, "batch_server pool size");
  cli.add_double("rate", &o.rate_rps, "open-loop offered rate, requests/s");
  cli.add_int("setup-reps", &o.setup_reps, "set-ups per run");
  cli.add_double("warmup", &o.warmup_s, "solver warm-up seconds");
  cli.add_double("server-warmup", &o.server_warmup_s, "server warm-up seconds");
  cli.add_string("trace-out", &o.trace_out, "span file for traced runs (optional)");
  cli.add_int("corrupt", &o.corrupt, "corrupt this many solver outputs (test hook)");
  try {
    if (!cli.parse(argc, argv)) return 2;
    const std::pair<const char*, bool> given[] = {
        {"workload", !o.workload.empty()},
        {"solve", !o.solve_csv.empty()},
        {"serve", !o.serve_csv.empty()},
        {"seed", o.seed != kUnsetInt},
        {"seconds", !std::isnan(o.seconds)},
        {"trace", o.trace_flag != kUnsetInt},
        {"solver-workers", o.solver_workers != kUnsetInt},
        {"server-workers", o.server_workers != kUnsetInt},
        {"rate", !std::isnan(o.rate_rps)},
        {"setup-reps", o.setup_reps != kUnsetInt},
        {"warmup", !std::isnan(o.warmup_s)},
        {"server-warmup", !std::isnan(o.server_warmup_s)},
    };
    for (const auto& [name, ok] : given)
      if (!ok) throw std::runtime_error(std::string("missing --") + name);
    o.solve = parse_shapes(o.solve_csv);
    o.serve = parse_shapes(o.serve_csv);
    o.trace = o.trace_flag == 1;
    if (o.seconds <= 0 || o.rate_rps <= 0 || o.setup_reps < 1 ||
        o.solver_workers < 1 || o.server_workers < 1 || o.warmup_s < 0 ||
        o.server_warmup_s < 0 || (o.trace_flag != 0 && o.trace_flag != 1))
      throw std::runtime_error("invalid option values");
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_run: " << e.what() << "\n";
    return 1;
  }
}
