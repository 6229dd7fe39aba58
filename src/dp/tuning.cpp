#include "dp/tuning.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>

#include "dp/kernels.hpp"
#include "dp/spec/specs.hpp"
#include "exec/backend.hpp"
#include "support/assertions.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace rdp::dp {

const char* to_string(tune_target t) noexcept {
  switch (t) {
    case tune_target::ge: return "GE";
    case tune_target::sw: return "SW";
    case tune_target::fw: return "FW";
  }
  return "?";
}

namespace {

constexpr std::size_t k_probe_cap = 512;

/// One timed serial-recursion run at base b; the serial recursion isolates
/// the grain's locality effect from scheduler noise, which is what the
/// calibration wants to rank.
double probe_once(tune_target target, std::size_t n, std::size_t b) {
  switch (target) {
    case tune_target::ge: {
      auto m = make_diag_dominant(n, 11);
      stopwatch sw_t;
      exec::run_serial(*make_ge_spec(m, b));
      return sw_t.seconds();
    }
    case tune_target::fw: {
      auto m = make_digraph(n, 0.3, 5, 1e9);
      stopwatch sw_t;
      exec::run_serial(*make_fw_spec(m, b));
      return sw_t.seconds();
    }
    case tune_target::sw: {
      const auto a = make_dna(n, 13);
      const auto bs = make_dna(n, 14);
      matrix<std::int32_t> s(n + 1, n + 1, 0);
      const sw_params p;
      stopwatch sw_t;
      exec::run_serial(*make_sw_spec(s, a, bs, p, b));
      return sw_t.seconds();
    }
  }
  return 0;
}

}  // namespace

tune_result calibrate_base(tune_target target, std::size_t n) {
  RDP_REQUIRE_MSG(n >= 2 && is_pow2(n),
                  "grain calibration needs a power-of-two size");
  const std::size_t probe_n = std::min(n, k_probe_cap);
  tune_result best;
  best.probe_n = probe_n;
  for (std::size_t cand : k_tune_candidates) {
    if (cand > probe_n) continue;
    // Two repetitions, minimum: the first touches cold tables, the second
    // confirms; min discards one-off interference.
    double secs = probe_once(target, probe_n, cand);
    secs = std::min(secs, probe_once(target, probe_n, cand));
    if (best.base == 0 || secs < best.best_seconds) {
      best.base = cand;
      best.best_seconds = secs;
    }
  }
  if (best.base == 0) best.base = probe_n;  // n smaller than every candidate
  return best;
}

std::size_t tuned_base(tune_target target, std::size_t n) {
  struct cache_entry {
    bool valid = false;
    std::size_t base = 0;
  };
  // Indexed [target][kernel_impl]: the best grain differs between the
  // scalar and blocked kernels (a faster kernel tolerates a smaller b).
  static cache_entry cache[3][2];
  static std::mutex mu;
  const auto ti = static_cast<std::size_t>(target);
  const auto ki = static_cast<std::size_t>(active_kernel_impl());
  std::scoped_lock lock(mu);
  cache_entry& e = cache[ti][ki];
  if (!e.valid) {
    e.base = calibrate_base(target, std::max<std::size_t>(n, 64)).base;
    e.valid = true;
  }
  return std::min(e.base, n);
}

std::size_t resolve_base_option(const std::string& opt, tune_target target,
                                std::size_t n, std::size_t fallback) {
  if (opt.empty()) return fallback;
  if (opt == "auto") return tuned_base(target, n);
  std::size_t pos = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(opt, &pos);
  } catch (const std::exception&) {
    throw std::runtime_error("--base must be an integer or 'auto' (got '" +
                             opt + "')");
  }
  if (pos != opt.size())
    throw std::runtime_error("--base must be an integer or 'auto' (got '" +
                             opt + "')");
  const auto b = static_cast<std::size_t>(v);
  if (b == 0 || !is_pow2(b) || b > n)
    throw std::runtime_error("--base must be a power of two <= " +
                             std::to_string(n));
  return b;
}

}  // namespace rdp::dp
