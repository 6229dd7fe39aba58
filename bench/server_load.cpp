// server_load — open-loop load generator for the DP batch server.
//
//     server_load [--n=128] [--base=8] [--workers=2] [--requests=200]
//                 [--warmup=16] [--reps=3] [--rate=R|auto] [--util=0.5]
//                 [--modes=prepared,batched,rebuild] [--check]
//                 [--min-amortization=X] [--report=FILE]
//
// Drives a stream of GE instances (same shape, fresh data planes) through
// the batch server in each execution mode and reports steady-state latency
// and throughput. The arrival process is OPEN-LOOP: requests are submitted
// on a fixed schedule regardless of completions, so queueing delay shows up
// in the numbers instead of silently throttling the generator (the
// coordinated-omission trap). A request's reported sojourn is generator
// lateness + the server-measured sojourn — the latency a punctual client
// would have seen.
//
// The arrival rate is shared by every mode and auto-calibrated to --util
// (default 0.5) of the REBUILD mode's closed-loop service rate, so the
// baseline is moderately loaded and the cheaper modes are measured at
// identical offered load.
//
// Per mode × repetition, three run-report entries (benchmark "ge"):
//     server:<mode>:p50   median sojourn, ms
//     server:<mode>:p99   99th-percentile sojourn, ms
//     server:<mode>:mspr  elapsed ms / completed request (1000/throughput)
// All three are lower-is-better wall measures, so bench/report_compare
// gates them directly (CI: --normalize=server:rebuild:p50 --stat=min).
//
// --check verifies every completed table bit-exactly against the serial
// backend; --min-amortization=X fails (exit 1) unless best-round p50 of
// prepared is at least X times lower than rebuild's — the PR's >= 2x
// steady-state acceptance criterion, machine-independently.
//
// Exit codes: 0 ok, 1 check/amortization failure, 2 usage error.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dp/dp.hpp"
#include "dp/spec/specs.hpp"
#include "obs/report.hpp"
#include "server/server.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using sclock = std::chrono::steady_clock;

struct options {
  std::size_t n = 128, base = 8;
  unsigned workers = 2;
  std::size_t requests = 200;
  std::size_t warmup = 16;
  int reps = 3;
  double rate = 0;  // arrivals/sec; 0 = auto-calibrate
  double util = 0.5;
  std::vector<server::exec_mode> modes = {server::exec_mode::prepared,
                                          server::exec_mode::batched,
                                          server::exec_mode::rebuild};
  bool check = false;
  double min_amortization = 0;  // 0 = don't enforce
  std::string report_path;
};

void usage(std::ostream& os) {
  os << "usage: server_load [--n=N] [--base=B] [--workers=W]\n"
        "  [--requests=R] [--warmup=K] [--reps=P] [--rate=R|auto]\n"
        "  [--util=U] [--modes=CSV of prepared,batched,rebuild]\n"
        "  [--check]\n"
        "  [--min-amortization=X] [--report=FILE]\n";
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "server_load: " << msg << "\n";
  usage(std::cerr);
  std::exit(2);
}

double parse_double(const std::string& v, const char* flag) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == nullptr || *end != '\0') usage_error(std::string(flag) + ": not a number: " + v);
  return d;
}

server::exec_mode parse_mode(const std::string& v) {
  if (v == "prepared") return server::exec_mode::prepared;
  if (v == "batched") return server::exec_mode::batched;
  if (v == "rebuild") return server::exec_mode::rebuild;
  usage_error("unknown mode: " + v);
}

options parse_args(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) {
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos || eq + 1 >= arg.size())
        usage_error(std::string(flag) + " needs a value");
      return arg.substr(eq + 1);
    };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (arg.rfind("--n=", 0) == 0) {
      o.n = static_cast<std::size_t>(parse_double(value("--n"), "--n"));
    } else if (arg.rfind("--base=", 0) == 0) {
      o.base = static_cast<std::size_t>(parse_double(value("--base"), "--base"));
    } else if (arg.rfind("--workers=", 0) == 0) {
      o.workers =
          static_cast<unsigned>(parse_double(value("--workers"), "--workers"));
    } else if (arg.rfind("--requests=", 0) == 0) {
      o.requests = static_cast<std::size_t>(
          parse_double(value("--requests"), "--requests"));
    } else if (arg.rfind("--warmup=", 0) == 0) {
      o.warmup =
          static_cast<std::size_t>(parse_double(value("--warmup"), "--warmup"));
    } else if (arg.rfind("--reps=", 0) == 0) {
      o.reps = static_cast<int>(parse_double(value("--reps"), "--reps"));
    } else if (arg.rfind("--rate=", 0) == 0) {
      const std::string v = value("--rate");
      o.rate = v == "auto" ? 0 : parse_double(v, "--rate");
    } else if (arg.rfind("--util=", 0) == 0) {
      o.util = parse_double(value("--util"), "--util");
    } else if (arg.rfind("--modes=", 0) == 0) {
      o.modes.clear();
      std::string csv = value("--modes");
      std::size_t pos = 0;
      while (pos <= csv.size()) {
        const std::size_t comma = csv.find(',', pos);
        const std::string part = csv.substr(
            pos, comma == std::string::npos ? csv.size() - pos : comma - pos);
        if (!part.empty()) o.modes.push_back(parse_mode(part));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      if (o.modes.empty()) usage_error("--modes: empty list");
    } else if (arg == "--check") {
      o.check = true;
    } else if (arg.rfind("--min-amortization=", 0) == 0) {
      o.min_amortization =
          parse_double(value("--min-amortization"), "--min-amortization");
    } else if (arg.rfind("--report=", 0) == 0) {
      o.report_path = value("--report");
    } else {
      usage_error("unknown option: " + arg);
    }
  }
  if (o.n == 0 || o.base == 0 || o.n % o.base != 0)
    usage_error("need base > 0 and n % base == 0");
  if (o.requests == 0 || o.reps <= 0) usage_error("need requests/reps >= 1");
  if (o.util <= 0 || o.util > 1) usage_error("--util must be in (0, 1]");
  return o;
}

/// Distinct data planes cycled by the request stream, with their serial
/// reference results for --check. A small pool is enough: what matters is
/// that consecutive requests bind different data.
struct instance_pool {
  std::vector<matrix<double>> inputs;
  std::vector<matrix<double>> expected;

  instance_pool(const options& o, bool with_expected) {
    constexpr std::size_t k_distinct = 8;
    for (std::size_t i = 0; i < k_distinct; ++i) {
      inputs.push_back(make_diag_dominant(o.n, 0xC0FFEE + i));
      if (with_expected) {
        matrix<double> m = inputs.back();
        exec::run_serial(*dp::make_ge_spec(m, o.base));
        expected.push_back(std::move(m));
      }
    }
  }
};

/// One in-flight request's keep-alive: the table plus the spec viewing it.
struct bound_instance {
  std::shared_ptr<matrix<double>> table;
  std::shared_ptr<dp::recurrence> spec;
};

/// Copy input `i` of the pool and bind a spec to it; the returned aliasing
/// pointer keeps both alive for as long as the server holds the request.
std::pair<std::shared_ptr<dp::recurrence>, std::shared_ptr<matrix<double>>>
bind_instance(const instance_pool& pool, std::size_t i, std::size_t base) {
  auto holder = std::make_shared<bound_instance>();
  holder->table =
      std::make_shared<matrix<double>>(pool.inputs[i % pool.inputs.size()]);
  holder->spec = dp::make_ge_spec(*holder->table, base);
  return {std::shared_ptr<dp::recurrence>(holder, holder->spec.get()),
          holder->table};
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

struct round_result {
  double p50_ms = 0, p99_ms = 0, mspr_ms = 0;
  std::size_t completed = 0, shed = 0, diverged = 0;
};

void bind_and_run(server::batch_server& srv, server::graph_id gid,
                  const instance_pool& pool, std::size_t i, std::size_t base) {
  auto [spec, table] = bind_instance(pool, i, base);
  const server::response r = srv.submit(gid, std::move(spec)).get();
  if (r.status != server::request_status::ok)
    throw std::runtime_error("probe request not ok: " +
                             std::string(to_string(r.status)) + " " + r.error);
}

/// Closed-loop mean service time (seconds/request) of `mode` — the rate
/// calibration probe.
double probe_service_time(const options& o, const instance_pool& pool,
                          server::exec_mode mode) {
  server::server_config cfg;
  cfg.workers = o.workers;
  cfg.mode = mode;
  server::batch_server srv(cfg);
  matrix<double> exemplar = pool.inputs[0];
  auto structural = dp::make_ge_spec(exemplar, o.base);
  const server::graph_id gid = srv.prepare(*structural);
  const std::size_t probes = std::max<std::size_t>(o.warmup, 8);
  // One unmeasured request absorbs cold-start effects.
  bind_and_run(srv, gid, pool, 0, o.base);
  const sclock::time_point t0 = sclock::now();
  for (std::size_t i = 0; i < probes; ++i)
    bind_and_run(srv, gid, pool, i, o.base);
  const double secs =
      std::chrono::duration<double>(sclock::now() - t0).count();
  return secs / static_cast<double>(probes);
}

/// One open-loop measurement round at `rate` arrivals/sec. The first
/// o.warmup requests ride the SAME open-loop schedule as the measured ones
/// and are simply discarded from every statistic. A closed-loop warmup
/// (run-one-wait-one) leaves an idle gap before the first open-loop
/// arrival, and the resulting cold re-entry — parked workers, evicted
/// caches — showed up as a multi-ms outlier in BENCH_pr8's
/// server:prepared:p99. An in-schedule discard phase keeps the pool busy
/// straight into the measured window.
round_result run_round(const options& o, const instance_pool& pool,
                       server::exec_mode mode, double rate) {
  const std::size_t total = o.warmup + o.requests;
  server::server_config cfg;
  cfg.workers = o.workers;
  cfg.mode = mode;
  cfg.queue_capacity = std::max<std::size_t>(total, 64);
  server::batch_server srv(cfg);
  matrix<double> exemplar = pool.inputs[0];
  auto structural = dp::make_ge_spec(exemplar, o.base);
  const server::graph_id gid = srv.prepare(*structural);

  const std::chrono::nanoseconds interval(
      static_cast<std::uint64_t>(1e9 / rate));
  std::vector<std::future<server::response>> futs;
  std::vector<std::shared_ptr<matrix<double>>> tables;
  futs.reserve(total);
  tables.reserve(total);
  std::vector<std::uint64_t> lateness_ns(total, 0);

  const sclock::time_point start = sclock::now();
  for (std::size_t i = 0; i < total; ++i) {
    const sclock::time_point scheduled = start + interval * i;
    std::this_thread::sleep_until(scheduled);
    const sclock::time_point now = sclock::now();
    if (now > scheduled)
      lateness_ns[i] =
          static_cast<std::uint64_t>(std::chrono::duration_cast<
                                         std::chrono::nanoseconds>(
                                         now - scheduled)
                                         .count());
    auto [spec, table] = bind_instance(pool, i, o.base);
    tables.push_back(std::move(table));
    futs.push_back(srv.submit(gid, std::move(spec)));
  }

  round_result res;
  std::vector<double> sojourn_ms;
  sojourn_ms.reserve(o.requests);
  for (std::size_t i = 0; i < total; ++i) {
    const bool measured = i >= o.warmup;
    const server::response r = futs[i].get();
    if (r.status == server::request_status::shed) {
      if (measured) ++res.shed;
      continue;
    }
    if (r.status == server::request_status::failed)
      throw std::runtime_error("request failed: " + r.error);
    // Bit-exactness is checked on every completed table, warmup included.
    if (o.check &&
        *tables[i] != pool.expected[i % pool.expected.size()])
      ++res.diverged;
    if (!measured) continue;
    ++res.completed;
    sojourn_ms.push_back(
        static_cast<double>(lateness_ns[i] + r.sojourn_ns) / 1e6);
  }
  // Throughput over the measured window only: from the first measured
  // request's scheduled arrival, not from the warmup's.
  const sclock::time_point measured_start = start + interval * o.warmup;
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(sclock::now() - measured_start)
          .count();
  res.p50_ms = percentile(sojourn_ms, 0.50);
  res.p99_ms = percentile(sojourn_ms, 0.99);
  res.mspr_ms = res.completed == 0
                    ? 0
                    : elapsed_ms / static_cast<double>(res.completed);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const options o = parse_args(argc, argv);
  const instance_pool pool(o, /*with_expected=*/o.check);

  double rate = o.rate;
  if (rate <= 0) {
    // Calibrate offered load off the most expensive mode so every mode is
    // measured at an identical, moderate utilisation.
    const double svc = probe_service_time(o, pool, server::exec_mode::rebuild);
    rate = o.util / std::max(svc, 1e-9);
    std::cout << "calibrated: rebuild service time "
              << svc * 1e3 << " ms -> " << rate << " req/s at util "
              << o.util << "\n";
  }

  obs::run_report report;
  report.tool = "server_load";
  report.git_sha = obs::build_git_sha();
  report.repetitions = static_cast<std::uint32_t>(o.reps);

  bool check_failed = false;
  double best_p50_prepared = -1, best_p50_rebuild = -1;
  for (const server::exec_mode mode : o.modes) {
    std::vector<double> p50s, p99s, msprs;
    for (int rep = 0; rep < o.reps; ++rep) {
      const round_result r = run_round(o, pool, mode, rate);
      p50s.push_back(r.p50_ms);
      p99s.push_back(r.p99_ms);
      msprs.push_back(r.mspr_ms);
      std::cout << to_string(mode) << " rep " << rep << ": p50 " << r.p50_ms
                << " ms, p99 " << r.p99_ms << " ms, " << r.mspr_ms
                << " ms/req (" << r.completed << " ok, " << r.shed
                << " shed)";
      if (o.check) std::cout << (r.diverged ? " CHECK FAILED" : " check ok");
      std::cout << "\n";
      if (r.diverged > 0 || (o.check && r.completed == 0)) check_failed = true;
    }
    const double best_p50 = *std::min_element(p50s.begin(), p50s.end());
    if (mode == server::exec_mode::prepared) best_p50_prepared = best_p50;
    if (mode == server::exec_mode::rebuild) best_p50_rebuild = best_p50;
    auto add_entry = [&](const char* stat, std::vector<double> walls) {
      obs::report_entry e;
      e.benchmark = "ge";
      e.impl = std::string("server:") + to_string(mode) + ":" + stat;
      e.n = o.n;
      e.base = o.base;
      e.workers = o.workers;
      e.wall_ms = std::move(walls);
      report.entries.push_back(std::move(e));
    };
    add_entry("p50", std::move(p50s));
    add_entry("p99", std::move(p99s));
    add_entry("mspr", std::move(msprs));
  }

  if (!o.report_path.empty()) {
    obs::write_report_file(o.report_path, report);
    std::cout << "report written to " << o.report_path << "\n";
  }

  int exit_code = 0;
  if (check_failed) {
    std::cout << "CHECK FAILED: a completed table diverged from serial\n";
    exit_code = 1;
  }
  if (o.min_amortization > 0) {
    if (best_p50_prepared < 0 || best_p50_rebuild < 0) {
      std::cout << "amortization gate needs both prepared and rebuild modes\n";
      exit_code = 1;
    } else {
      const double amort = best_p50_rebuild / std::max(best_p50_prepared, 1e-9);
      std::cout << "amortization: rebuild p50 / prepared p50 = " << amort
                << " (gate " << o.min_amortization << ")\n";
      if (amort < o.min_amortization) {
        std::cout << "AMORTIZATION GATE FAILED\n";
        exit_code = 1;
      }
    }
  }
  return exit_code;
}
