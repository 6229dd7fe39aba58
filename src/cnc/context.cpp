#include "cnc/context.hpp"

#include <sstream>

#include "concurrent/backoff.hpp"
#include "obs/tracer.hpp"
#include "support/assertions.hpp"

namespace rdp::cnc {

namespace detail {

cnc_metrics_t& cnc_metrics() {
  auto& reg = obs::metrics_registry::instance();
  static cnc_metrics_t m{reg.get_counter("cnc.items_put"),
                         reg.get_counter("cnc.gets_ok"),
                         reg.get_counter("cnc.gets_failed"),
                         reg.get_counter("cnc.tags_put"),
                         reg.get_counter("cnc.steps_executed"),
                         reg.get_counter("cnc.steps_requeued"),
                         reg.get_gauge("cnc.items_live"),
                         reg.get_histogram("cnc.step_ns")};
  return m;
}

}  // namespace detail

context_base::context_base(forkjoin::worker_pool& pool) : pool_(pool) {}

context_base::~context_base() = default;

std::uint64_t context_base::total(
    std::atomic<std::uint64_t> counters::*field) const {
  std::uint64_t sum = 0;
  for (const counter_shard& s : shards_)
    sum += (s.*field).load(std::memory_order_relaxed);
  return sum;
}

void context_base::attach(const item_collection_base* items) {
  std::scoped_lock lock(collections_mutex_);
  item_collections_.push_back(items);
}

void context_base::detach(const item_collection_base* items) {
  std::scoped_lock lock(collections_mutex_);
  std::erase(item_collections_, items);
}

void context_base::record_error(std::exception_ptr e) noexcept {
  std::scoped_lock lock(error_mutex_);
  if (!first_error_) first_error_ = std::move(e);
  failed_.store(true, std::memory_order_relaxed);
}

void context_base::dump_state(std::string& out) const {
  std::ostringstream os;
  os << "  context: active=" << active_.load(std::memory_order_acquire)
     << " suspended=" << suspended_.load(std::memory_order_acquire)
     << " executed=" << total(&counters::executed)
     << " aborted=" << total(&counters::aborted)
     << " requeued=" << total(&counters::requeued)
     << " items_put=" << total(&counters::items_put)
     << " gets_ok=" << total(&counters::gets_ok)
     << " gets_failed="
     << total(&counters::gets_failed) << "\n";
  os << "  pool: ready~" << pool_.ready_estimate()
     << " injection~" << pool_.injection_depth()
     << " parked=" << pool_.parked_workers() << "/"
     << pool_.worker_count() << "\n";
  for (const forkjoin::worker_snapshot& w : pool_.worker_snapshots())
    os << "  worker " << w.index << ": executed=" << w.executed
       << " steals=" << w.steals << " parks=" << w.parks
       << " deque~" << w.deque_depth << "\n";
  const long parked = suspended_.load(std::memory_order_acquire);
  os << "  parked step instances: " << parked;
  if (parked > 0) {
    constexpr std::size_t kShown = 8;
    std::vector<std::string> names;
    {
      std::scoped_lock lock(collections_mutex_);
      for (const item_collection_base* items : item_collections_)
        items->describe_parked(names, kShown);
    }
    os << " (showing up to " << kShown << ")\n";
    for (const std::string& name : names) os << "    " << name << "\n";
  } else {
    os << "\n";
  }
  out += os.str();
}

void context_base::wait() {
  // Arm the stall watchdog for the duration of the wait when configured
  // (programmatically or via RDP_WATCHDOG_MS). Its thread only reads
  // relaxed counters and queue-depth estimates, so the cost while healthy
  // is one wakeup per period. The local's destructor stops it on every
  // exit path, including the deadlock throw below.
  obs::watchdog wd;
  const auto env_period = obs::watchdog_period_from_env();
  if (watchdog_cfg_.has_value() || env_period.count() > 0) {
    obs::watchdog::config cfg;
    if (watchdog_cfg_.has_value()) {
      cfg = *watchdog_cfg_;
    } else {
      cfg.period = env_period;
      cfg.fatal = obs::watchdog_fatal_from_env();
    }
    // Progress = data flowing, not steps dispatched: a livelocked
    // poll-and-requeue graph re-executes steps forever without a single
    // new item, tag or successful get, which is exactly what this sum
    // stays flat on. (steps_executed would mask that stall.)
    wd.add_progress("items_put", [this] {
      return total(&counters::items_put);
    });
    wd.add_progress("tags_put", [this] {
      return total(&counters::tags_put);
    });
    wd.add_progress("gets_ok", [this] {
      return total(&counters::gets_ok);
    });
    wd.add_gauge("active", [this] {
      return static_cast<std::uint64_t>(
          active_.load(std::memory_order_acquire));
    });
    wd.add_gauge("suspended", [this] {
      return static_cast<std::uint64_t>(
          suspended_.load(std::memory_order_acquire));
    });
    wd.add_gauge("queue_depth",
                 [this] { return pool_.ready_estimate(); });
    wd.set_busy([this] {
      return active_.load(std::memory_order_acquire) > 0 ||
             suspended_.load(std::memory_order_acquire) > 0;
    });
    wd.add_dump_section([this](std::string& out) { dump_state(out); });
    wd.start(cfg);
  }
  // Bracketed as a data-wait: the environment is blocked on the data-flow
  // graph draining (name 0 distinguishes it from an item-collection get).
  RDP_TRACE_EVENT(obs::event_kind::data_wait_begin, 0, 0, 0);
  concurrent::backoff bo;
  for (;;) {
    if (pool_.try_run_one()) {
      bo.reset();
      continue;
    }
    const long a = active_.load(std::memory_order_acquire);
    const long s = suspended_.load(std::memory_order_acquire);
    if (a == 0) {
      if (s == 0) break;
      RDP_TRACE_EVENT(obs::event_kind::data_wait_end, 0, 0, 0);
      // No step is runnable or running, yet some are parked: no producer
      // can ever publish the items they need. Deterministic deadlock —
      // unless a step already died with a real error, in which case the
      // parked instances are a *symptom* (the dead step's puts never
      // happened) and the error is the diagnosis. Prefer rethrowing it.
      if (std::exception_ptr error = take_error())
        std::rethrow_exception(error);
      std::ostringstream os;
      os << "CnC graph quiesced with " << s
         << " step instance(s) blocked on items that were never produced";
      throw unsatisfied_dependency(os.str());
    }
    bo.pause();
  }
  RDP_TRACE_EVENT(obs::event_kind::data_wait_end, 0, 0, 0);
  if (std::exception_ptr error = take_error()) std::rethrow_exception(error);
}

std::exception_ptr context_base::take_error() noexcept {
  std::scoped_lock lock(error_mutex_);
  std::exception_ptr error = first_error_;
  first_error_ = nullptr;
  failed_.store(false, std::memory_order_relaxed);
  return error;
}

context_stats context_base::stats() const {
  context_stats s;
  s.steps_executed = total(&counters::executed);
  s.steps_aborted = total(&counters::aborted);
  s.steps_prescribed = total(&counters::prescribed);
  s.items_put = total(&counters::items_put);
  s.gets_ok = total(&counters::gets_ok);
  s.gets_failed = total(&counters::gets_failed);
  s.tags_put = total(&counters::tags_put);
  s.preschedule_deferrals =
      total(&counters::deferrals);
  s.steps_requeued = total(&counters::requeued);
  return s;
}

}  // namespace rdp::cnc
