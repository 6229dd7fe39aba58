#include "obs/watchdog.hpp"

#include <cstdlib>
#include <cstring>
#include <iostream>

namespace rdp::obs {

watchdog::watchdog() = default;
watchdog::~watchdog() { stop(); }

void watchdog::add_progress(std::string_view name,
                            std::function<std::uint64_t()> fn) {
  progress_.push_back({std::string(name), std::move(fn)});
}

void watchdog::add_gauge(std::string_view name,
                         std::function<std::uint64_t()> fn) {
  gauges_.push_back({std::string(name), std::move(fn)});
}

void watchdog::add_dump_section(std::function<void(std::string&)> fn) {
  sections_.push_back(std::move(fn));
}

void watchdog::set_busy(std::function<bool()> fn) { busy_ = std::move(fn); }

void watchdog::start(const config& cfg) {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  cfg_ = cfg;
  if (cfg_.period <= std::chrono::milliseconds::zero())
    cfg_.period = std::chrono::milliseconds(100);
  if (cfg_.stall_periods == 0) cfg_.stall_periods = 1;
  {
    std::scoped_lock lock(stop_mutex_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void watchdog::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::scoped_lock lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::string watchdog::render_dump(std::uint64_t stuck_ticks,
                                  std::uint64_t progress_sum) const {
  std::string out;
  out += "=== rdp watchdog: STALL detected ===\n";
  out += "no progress for " + std::to_string(stuck_ticks) +
         " consecutive periods of " + std::to_string(cfg_.period.count()) +
         " ms (progress sum stuck at " + std::to_string(progress_sum) +
         ")\n";
  for (const source& p : progress_)
    out += "  progress " + p.name + " = " + std::to_string(p.read()) + "\n";
  for (const source& g : gauges_)
    out += "  gauge " + g.name + " = " + std::to_string(g.read()) + "\n";
  for (const auto& section : sections_) section(out);
  out += "=== end watchdog dump ===\n";
  return out;
}

void watchdog::run() {
  std::uint64_t last_progress = 0;
  bool have_baseline = false;
  unsigned stuck = 0;
  bool dumped_this_stall = false;

  for (;;) {
    {
      // Wait out one period, or less when stop() asks: it must not wait
      // for the period to end.
      std::unique_lock lock(stop_mutex_);
      if (stop_cv_.wait_for(lock, cfg_.period,
                            [this] { return stop_requested_; }))
        break;
    }
    ticks_.fetch_add(1, std::memory_order_relaxed);

    std::uint64_t sum = 0;
    for (const source& p : progress_) sum += p.read();
    const bool busy = busy_ ? busy_() : true;

    if (!have_baseline || sum != last_progress || !busy) {
      // Progress (or nothing to wait for): re-arm.
      have_baseline = true;
      last_progress = sum;
      stuck = 0;
      dumped_this_stall = false;
      continue;
    }
    ++stuck;
    if (stuck >= cfg_.stall_periods && !dumped_this_stall) {
      stalls_.fetch_add(1, std::memory_order_relaxed);
      dumped_this_stall = true;  // one dump per stall onset
      const std::string dump = render_dump(stuck, sum);
      if (cfg_.on_stall)
        cfg_.on_stall(dump);
      else
        std::cerr << dump << std::flush;
      if (cfg_.fatal) {
        std::cerr << "rdp watchdog: RDP_WATCHDOG_FATAL set — aborting\n"
                  << std::flush;
        std::abort();
      }
    }
  }
}

std::chrono::milliseconds watchdog_period_from_env() noexcept {
  static const std::chrono::milliseconds period = [] {
    const char* v = std::getenv("RDP_WATCHDOG_MS");
    if (v == nullptr || *v == '\0') return std::chrono::milliseconds(0);
    char* end = nullptr;
    const long ms = std::strtol(v, &end, 10);
    if (end == v || ms <= 0) return std::chrono::milliseconds(0);
    return std::chrono::milliseconds(ms);
  }();
  return period;
}

bool watchdog_fatal_from_env() noexcept {
  static const bool fatal = [] {
    const char* v = std::getenv("RDP_WATCHDOG_FATAL");
    return v != nullptr && std::strcmp(v, "1") == 0;
  }();
  return fatal;
}

}  // namespace rdp::obs
