#include "dp/registry.hpp"

#include "dp/spec/specs.hpp"
#include "dp/verify/verify.hpp"
#include "exec/backend.hpp"
#include "exec/prepared_graph.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/assertions.hpp"
#include "support/math_utils.hpp"

namespace rdp::dp {

const char* to_string(benchmark_id b) noexcept {
  switch (b) {
    case benchmark_id::ge: return "GE";
    case benchmark_id::sw: return "SW";
    case benchmark_id::fw: return "FW";
    case benchmark_id::lcs: return "LCS";
    case benchmark_id::paren: return "Paren";
  }
  return "?";
}

const char* to_string(backend_kind b) noexcept {
  switch (b) {
    case backend_kind::serial: return "serial";
    case backend_kind::forkjoin: return "forkjoin";
    case backend_kind::tiled: return "tiled";
    case backend_kind::dataflow: return "dataflow";
    case backend_kind::rway: return "rway";
    case backend_kind::prepared: return "prepared";
  }
  return "?";
}

problem_ref ge_problem(matrix<double>& m) {
  return {benchmark_id::ge, &m, nullptr, {}, {}, nullptr};
}

problem_ref fw_problem(matrix<double>& m) {
  return {benchmark_id::fw, &m, nullptr, {}, {}, nullptr};
}

problem_ref sw_problem(matrix<std::int32_t>& s, std::string_view a,
                       std::string_view b, const sw_params& p) {
  return {benchmark_id::sw, nullptr, &s, a, b, &p, nullptr};
}

problem_ref lcs_problem(matrix<std::int32_t>& s, std::string_view a,
                        std::string_view b) {
  return {benchmark_id::lcs, nullptr, &s, a, b, nullptr, nullptr};
}

problem_ref paren_problem(matrix<double>& c, const std::vector<double>& dims) {
  return {benchmark_id::paren, &c, nullptr, {}, {}, nullptr, &dims};
}

std::size_t problem_size(const problem_ref& p) {
  return p.bm == benchmark_id::sw || p.bm == benchmark_id::lcs
             ? p.a.size()
             : p.table->rows();
}

namespace {

// ---- precondition predicates --------------------------------------------

bool supports_pow2(std::size_t n, std::size_t base) {
  return is_pow2(n) && is_pow2(base) && base > 0 && base <= n;
}

bool supports_tiled(std::size_t n, std::size_t base) {
  return base > 0 && n % base == 0;
}

bool supports_r2(std::size_t n, std::size_t base) {
  return splits_evenly(n, base, 2);
}
bool supports_r4(std::size_t n, std::size_t base) {
  return splits_evenly(n, base, 4);
}

// ---- runners -------------------------------------------------------------

/// Run `fn(pool)` on the caller's pool, or a transient one of opts.workers.
template <class Fn>
void with_pool(const run_options& opts, Fn&& fn) {
  if (opts.pool != nullptr) {
    fn(*opts.pool);
    return;
  }
  forkjoin::worker_pool pool(opts.workers);
  fn(pool);
}

/// Spec for one problem instance — the one place a registry row turns a
/// problem_ref into a recurrence. The spec constructors check the problem's
/// shape (square table, equal-length sequences, dims of length n+1).
std::unique_ptr<recurrence> make_problem_spec(const problem_ref& p,
                                              std::size_t base) {
  switch (p.bm) {
    case benchmark_id::ge: return make_ge_spec(*p.table, base);
    case benchmark_id::fw: return make_fw_spec(*p.table, base);
    case benchmark_id::sw:
      return make_sw_spec(*p.sw_table, p.a, p.b, *p.params, base);
    case benchmark_id::lcs:
      return make_lcs_spec(*p.sw_table, p.a, p.b, lcs_mode::lcs, base);
    case benchmark_id::paren:
      return make_paren_spec(*p.table, *p.dims, base);
  }
  RDP_REQUIRE_MSG(false, "unknown benchmark");
  return nullptr;
}

/// The single precondition check of every row: the row's own
/// supports(n, base), then the spec's shape checks. A shape the row
/// rejects raises contract_error before any backend sees it.
std::unique_ptr<recurrence> checked_spec(const variant& self,
                                         const problem_ref& p,
                                         const run_options& opts) {
  RDP_REQUIRE_MSG(self.supports(problem_size(p), opts.base),
                  std::string(to_string(p.bm)) + " × " +
                      std::string(self.label) +
                      " does not support this (n, base)");
  return make_problem_spec(p, opts.base);
}

run_outcome run_serial_v(const variant& self, const problem_ref& p,
                         const run_options& opts) {
  exec::run_serial(*checked_spec(self, p, opts));
  return {};
}

run_outcome run_forkjoin_v(const variant& self, const problem_ref& p,
                           const run_options& opts) {
  const std::unique_ptr<recurrence> spec = checked_spec(self, p, opts);
  with_pool(opts, [&](forkjoin::worker_pool& pool) {
    exec::run_forkjoin(*spec, pool);
  });
  return {};
}

/// The blocked schedule: one full-width level of the r-way recursion.
run_outcome run_tiled_v(const variant& self, const problem_ref& p,
                        const run_options& opts) {
  const std::unique_ptr<recurrence> spec = checked_spec(self, p, opts);
  with_pool(opts, [&](forkjoin::worker_pool& pool) {
    exec::run_forkjoin(*spec, pool, spec->size() / spec->base());
  });
  return {};
}

cnc_variant mode_to_variant(std::string_view mode) {
  if (mode == "native") return cnc_variant::native;
  if (mode == "tuner") return cnc_variant::tuner;
  if (mode == "manual") return cnc_variant::manual;
  if (mode == "nonblocking") return cnc_variant::nonblocking;
  RDP_REQUIRE_MSG(false, "unknown data-flow mode");
  return cnc_variant::native;
}

run_outcome run_dataflow_v(const variant& self, const problem_ref& p,
                           const run_options& opts) {
  const std::unique_ptr<recurrence> spec = checked_spec(self, p, opts);
  run_outcome out;
  out.used_dataflow = true;
  with_pool(opts, [&](forkjoin::worker_pool& pool) {
    out.info = exec::run_dataflow(*spec, {mode_to_variant(self.mode), &pool});
  });
  return out;
}

/// prepared rows exercise exec::prepared_graph through the same equivalence
/// gates as every other backend: freeze the dependence DAG once, then run it
/// over the request's data plane. The batch server reuses one frozen graph
/// across requests; here freeze+execute happen per run so the registry's
/// bit-exactness checks cover the frozen executor itself.
run_outcome run_prepared_v(const variant& self, const problem_ref& p,
                           const run_options& opts) {
  const std::unique_ptr<recurrence> spec = checked_spec(self, p, opts);
  with_pool(opts, [&](forkjoin::worker_pool& pool) {
    // The batched mode coarsens the frozen CSR to band chunks
    // (exec/banding.hpp) sized to the pool actually executing it.
    const exec::prepared_graph graph =
        self.mode == "batched"
            ? exec::prepared_graph::freeze_batched(*spec,
                                                   pool.worker_count())
            : exec::prepared_graph::freeze(*spec);
    graph.execute(*spec, pool);
  });
  return {};
}

run_outcome run_rway_v(const variant& self, const problem_ref& p,
                       const run_options& opts) {
  const std::size_t r = self.mode == "r4" ? 4 : 2;
  const std::unique_ptr<recurrence> spec = checked_spec(self, p, opts);
  with_pool(opts, [&](forkjoin::worker_pool& pool) {
    exec::run_forkjoin(*spec, pool, r);
  });
  return {};
}

#ifndef NDEBUG
/// Debug builds cross-check every registered spec with dp::verify_spec on a
/// small instance the first time the registry is built, so a spec edit that
/// breaks the depends/consumer_count/enumerate_base agreement fails at
/// registration with a report — not mid-graph as a hang or a leak. The
/// specs run over scratch data (verify drives gather_values destructively
/// for value-passing specs).
void verify_registered_specs() {
  constexpr std::size_t n = 16, base = 4;
  {
    matrix<double> m(n, n, 1.0);
    const verify_report r = verify_spec(*make_ge_spec(m, base));
    RDP_REQUIRE_MSG(r.ok(), r.summary());
  }
  {
    const std::string a(n, 'A'), b(n, 'C');
    matrix<std::int32_t> s(n + 1, n + 1, 0);
    const sw_params p;
    const verify_report r = verify_spec(*make_sw_spec(s, a, b, p, base));
    RDP_REQUIRE_MSG(r.ok(), r.summary());
  }
  {
    matrix<double> m(n, n, 1.0);
    const verify_report r = verify_spec(*make_fw_spec(m, base));
    RDP_REQUIRE_MSG(r.ok(), r.summary());
  }
  {
    const std::string a(n, 'A'), b(n, 'C');
    matrix<std::int32_t> s(n + 1, n + 1, 0);
    const verify_report r =
        verify_spec(*make_lcs_spec(s, a, b, lcs_mode::lcs, base));
    RDP_REQUIRE_MSG(r.ok(), r.summary());
  }
  {
    matrix<double> c(n, n, 0.0);
    const std::vector<double> dims(n + 1, 1.0);
    const verify_report r = verify_spec(*make_paren_spec(c, dims, base));
    RDP_REQUIRE_MSG(r.ok(), r.summary());
  }
}
#endif

std::vector<variant> build_registry() {
#ifndef NDEBUG
  verify_registered_specs();
#endif
  std::vector<variant> rows;
  for (const benchmark_id bm :
       {benchmark_id::ge, benchmark_id::sw, benchmark_id::fw,
        benchmark_id::lcs, benchmark_id::paren}) {
    rows.push_back({bm, backend_kind::serial, "", "serial",  //
                    &supports_pow2, &run_serial_v});
    rows.push_back({bm, backend_kind::forkjoin, "", "forkjoin",
                    &supports_pow2, &run_forkjoin_v});
    rows.push_back({bm, backend_kind::tiled, "", "tiled",  //
                    &supports_tiled, &run_tiled_v});
    rows.push_back({bm, backend_kind::dataflow, "native", "dataflow:native",
                    &supports_pow2, &run_dataflow_v});
    rows.push_back({bm, backend_kind::dataflow, "tuner", "dataflow:tuner",
                    &supports_pow2, &run_dataflow_v});
    rows.push_back({bm, backend_kind::dataflow, "manual", "dataflow:manual",
                    &supports_pow2, &run_dataflow_v});
    rows.push_back({bm, backend_kind::dataflow, "nonblocking",
                    "dataflow:nonblocking", &supports_pow2, &run_dataflow_v});
    rows.push_back({bm, backend_kind::rway, "r2", "rway:r2",  //
                    &supports_r2, &run_rway_v});
    rows.push_back({bm, backend_kind::rway, "r4", "rway:r4",  //
                    &supports_r4, &run_rway_v});
    rows.push_back({bm, backend_kind::prepared, "", "prepared",
                    &supports_tiled, &run_prepared_v});
    rows.push_back({bm, backend_kind::prepared, "batched", "prepared:batched",
                    &supports_tiled, &run_prepared_v});
  }
  return rows;
}

}  // namespace

const std::vector<variant>& registry() {
  static const std::vector<variant> rows = build_registry();
  return rows;
}

std::vector<const variant*> variants_for(benchmark_id bm) {
  std::vector<const variant*> out;
  for (const variant& v : registry())
    if (v.bm == bm) out.push_back(&v);
  return out;
}

const variant* find_variant(benchmark_id bm, std::string_view impl) {
  for (const variant& v : registry())
    if (v.bm == bm && v.label == impl) return &v;
  return nullptr;
}

std::shared_ptr<recurrence> make_tile_scale_spec(benchmark_id bm,
                                                 std::size_t tiles) {
  struct owner {
    matrix<double> table;
    matrix<std::int32_t> sw_table;
    std::string seq;
    sw_params params;
    std::vector<double> dims;
    std::unique_ptr<recurrence> spec;
  };
  auto o = std::make_shared<owner>();
  o->table = matrix<double>(tiles, tiles, 1.0);
  o->sw_table = matrix<std::int32_t>(tiles + 1, tiles + 1, 0);
  o->seq.assign(tiles, 'A');
  o->dims.assign(tiles + 1, 1.0);
  const problem_ref p{bm,     &o->table, &o->sw_table, o->seq,
                      o->seq, &o->params, &o->dims};
  o->spec = make_problem_spec(p, 1);
  return {o, o->spec.get()};
}

std::string trace_phase_label(const variant& v) {
  if (v.backend == backend_kind::dataflow)
    return to_string(mode_to_variant(v.mode));
  return std::string(v.label);
}

std::string impl_help() {
  std::string out;
  for (const variant& v : registry()) {
    if (v.bm != benchmark_id::ge) continue;  // labels repeat per benchmark
    if (!out.empty()) out += ", ";
    out += v.label;
  }
  return out;
}

}  // namespace rdp::dp
