#include "obs/analyze.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/tracer.hpp"
#include "support/table_printer.hpp"

namespace rdp::obs {

// ---------------------------------------------------------------------------
// Raw trace IO
// ---------------------------------------------------------------------------

namespace {

// Names and labels are free text; the format is line-oriented, so the only
// characters that must not survive are line breaks (tabs/controls are
// mapped too so files stay grep-friendly).
std::string sanitize(std::string s) {
  for (char& c : s)
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  return s;
}

}  // namespace

void write_raw_trace(std::ostream& os, const std::vector<event>& events,
                     const tracer& t) {
  os << "rdp-trace 2\n";
  // Emit only the names the events reference: the tracer has no "all
  // names" accessor, and unreferenced names carry no information.
  std::vector<bool> used;
  for (const event& e : events) {
    if (e.name == 0) continue;
    if (e.name >= used.size()) used.resize(e.name + 1, false);
    used[e.name] = true;
  }
  for (std::size_t id = 1; id < used.size(); ++id)
    if (used[id])
      os << "name " << id << ' '
         << sanitize(t.name(static_cast<std::uint16_t>(id))) << '\n';
  const auto labels = t.thread_labels();
  for (std::size_t tid = 0; tid < labels.size(); ++tid)
    if (!labels[tid].empty())
      os << "thread " << tid << ' ' << sanitize(labels[tid]) << '\n';
  for (const event& e : events)
    os << "event " << e.ts_ns << ' ' << e.tid << ' '
       << static_cast<unsigned>(e.kind) << ' ' << e.name << ' ' << e.arg0
       << ' ' << e.arg1 << '\n';
}

bool write_raw_trace_file(const std::string& path,
                          const std::vector<event>& events, const tracer& t) {
  std::ofstream os(path);
  if (!os) return false;
  write_raw_trace(os, events, t);
  return static_cast<bool>(os);
}

raw_trace read_raw_trace(std::istream& is) {
  raw_trace rt;
  std::string line;
  std::size_t lineno = 0;
  auto fail = [&](const std::string& what) {
    throw std::runtime_error("raw trace, line " + std::to_string(lineno) +
                             ": " + what);
  };
  if (!std::getline(is, line)) fail("empty input");
  ++lineno;
  if (line != "rdp-trace 2") fail("bad header (expected \"rdp-trace 2\")");
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "name") {
      std::size_t id = 0;
      if (!(ls >> id) || id == 0 || id > 0xffff) fail("bad name id");
      std::string text;
      std::getline(ls, text);
      if (!text.empty() && text.front() == ' ') text.erase(0, 1);
      if (id >= rt.names.size()) rt.names.resize(id + 1);
      rt.names[id] = text;
    } else if (tag == "thread") {
      long tid = -1;
      if (!(ls >> tid) || tid < 0) fail("bad thread id");
      std::string text;
      std::getline(ls, text);
      if (!text.empty() && text.front() == ' ') text.erase(0, 1);
      if (static_cast<std::size_t>(tid) >= rt.thread_labels.size())
        rt.thread_labels.resize(tid + 1);
      rt.thread_labels[tid] = text;
    } else if (tag == "event") {
      event e;
      unsigned kind = 0;
      unsigned name = 0;
      long tid = 0;
      if (!(ls >> e.ts_ns >> tid >> kind >> name >> e.arg0 >> e.arg1))
        fail("bad event record");
      if (kind >= k_event_kind_count) fail("unknown event kind");
      if (name > 0xffff) fail("bad name id");
      e.tid = static_cast<std::int32_t>(tid);
      e.kind = static_cast<event_kind>(kind);
      e.name = static_cast<std::uint16_t>(name);
      rt.events.push_back(e);
    } else {
      fail("unknown record \"" + tag + "\"");
    }
  }
  std::stable_sort(rt.events.begin(), rt.events.end(),
                   [](const event& a, const event& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return rt;
}

raw_trace read_raw_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open trace file: " + path);
  return read_raw_trace(is);
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

namespace {

constexpr double k_ns_to_ms = 1e-6;
constexpr std::uint32_t k_no_run = 0xffffffffu;

enum class frame_kind : std::uint8_t { run, join, data };

struct frame {
  frame_kind kind;
  std::uint32_t run;  // index into runs for run frames
};

struct put_get_rec {
  std::uint64_t ts;
  std::uint16_t name;
  std::uint64_t key;
};

struct child_link {
  std::uint64_t spawn_ts;
  std::uint32_t run;
  bool joined = false;
};

/// One executed task occurrence. Its busy slices are *exclusive* — time a
/// nested helper task ran inside this run's frame belongs to the helper.
struct run_rec {
  std::int32_t tid = -1;
  std::uint64_t ptr = 0;
  std::uint64_t t0 = 0, t1 = 0;
  bool closed = false;
  bool aborted = false;  // a step_abort fired inside this run
  bool claimed = false;  // matched to some spawn event
  std::vector<std::pair<std::uint64_t, std::uint64_t>> busy;  // slices
  std::vector<std::uint64_t> cuts;       // interior segment boundaries
  std::vector<std::uint64_t> join_ends;  // in order
  std::vector<put_get_rec> puts, gets;
  std::vector<child_link> children;
  // After segmentation:
  std::vector<std::uint64_t> bounds;  // t0, interior cuts, t1
  std::uint32_t seg_begin = 0, seg_count = 0;
};

struct spawn_rec {
  std::uint64_t ts;
  std::uint64_t ptr;
  std::uint32_t parent;  // k_no_run when spawned from outside any task
};

struct thread_state {
  std::vector<frame> stack;
  std::uint64_t slice_start = 0;
  bool seen = false;
  bool participant = false;
  double busy_ns = 0, join_ns = 0, data_ns = 0;
};

struct segment {
  double w_ns = 0;
  std::uint32_t indeg = 0;
  std::vector<std::uint32_t> out;
};

/// Analyzes one phase's worth of (time-sorted) events.
class phase_builder {
public:
  phase_metrics build(const event* first, const event* last,
                      std::uint64_t window_begin,
                      const std::function<std::string(std::int32_t)>& label_of,
                      std::string phase_name) {
    m_.phase = std::move(phase_name);
    std::uint64_t window_end = window_begin;
    for (const event* e = first; e != last; ++e) {
      window_end = std::max(window_end, e->ts_ns);
      step(*e);
    }
    finish_threads(window_end);
    claim_spawn_children();
    segment_runs();
    add_spawn_and_join_edges();
    add_data_edges();
    longest_path();
    summarize(window_begin, window_end, label_of);
    return std::move(m_);
  }

private:
  // ---- event sweep ----

  thread_state& state(std::int32_t tid) { return threads_[tid]; }

  /// Close the current activity slice of `st`'s top frame at `ts`.
  void account(thread_state& st, std::uint64_t ts) {
    if (!st.seen) {
      st.seen = true;
      st.slice_start = ts;
      return;
    }
    if (ts < st.slice_start) ts = st.slice_start;  // clock safety net
    const std::uint64_t d = ts - st.slice_start;
    if (d != 0 && !st.stack.empty()) {
      const frame& top = st.stack.back();
      switch (top.kind) {
        case frame_kind::run:
          runs_[top.run].busy.emplace_back(st.slice_start, ts);
          st.busy_ns += static_cast<double>(d);
          break;
        case frame_kind::join:
          st.join_ns += static_cast<double>(d);
          break;
        case frame_kind::data:
          st.data_ns += static_cast<double>(d);
          break;
      }
    }
    st.slice_start = ts;
  }

  std::uint32_t innermost_run(const thread_state& st) const {
    for (auto it = st.stack.rbegin(); it != st.stack.rend(); ++it)
      if (it->kind == frame_kind::run) return it->run;
    return k_no_run;
  }

  void step(const event& e) {
    thread_state& st = state(e.tid);
    account(st, e.ts_ns);
    switch (e.kind) {
      case event_kind::task_run_begin: {
        st.participant = true;
        const auto idx = static_cast<std::uint32_t>(runs_.size());
        run_rec r;
        r.tid = e.tid;
        r.ptr = e.arg0;
        r.t0 = e.ts_ns;
        runs_.push_back(std::move(r));
        st.stack.push_back({frame_kind::run, idx});
        break;
      }
      case event_kind::task_run_end: {
        st.participant = true;
        bool found = false;
        while (!st.stack.empty()) {
          const frame f = st.stack.back();
          st.stack.pop_back();
          if (f.kind == frame_kind::run) {
            run_rec& r = runs_[f.run];
            r.t1 = e.ts_ns;
            r.closed = true;
            if (r.ptr != e.arg0) ++m_.unmatched;
            found = true;
            break;
          }
          ++m_.unmatched;  // wait bracket force-closed by a task end
        }
        if (!found) ++m_.unmatched;
        break;
      }
      case event_kind::join_begin:
        st.participant = true;
        st.stack.push_back({frame_kind::join, 0});
        break;
      case event_kind::join_end: {
        st.participant = true;
        if (!st.stack.empty() && st.stack.back().kind == frame_kind::join) {
          st.stack.pop_back();
          const std::uint32_t r = innermost_run(st);
          if (r != k_no_run) {
            runs_[r].cuts.push_back(e.ts_ns);
            runs_[r].join_ends.push_back(e.ts_ns);
          }
        } else {
          ++m_.unmatched;
        }
        break;
      }
      case event_kind::data_wait_begin:
        st.participant = true;
        st.stack.push_back({frame_kind::data, 0});
        break;
      case event_kind::data_wait_end:
        st.participant = true;
        if (!st.stack.empty() && st.stack.back().kind == frame_kind::data)
          st.stack.pop_back();
        else
          ++m_.unmatched;
        break;
      case event_kind::task_spawn:
      case event_kind::task_inject: {
        if (e.arg1 == 0) break;  // pre-PR-2 trace without task identities
        const std::uint32_t parent = innermost_run(st);
        spawns_.push_back({e.ts_ns, e.arg1, parent});
        if (parent != k_no_run) runs_[parent].cuts.push_back(e.ts_ns);
        break;
      }
      case event_kind::task_steal:
        st.participant = true;
        ++m_.steals;
        break;
      case event_kind::worker_park:
      case event_kind::worker_unpark:
        st.participant = true;
        break;
      case event_kind::step_abort: {
        const std::uint32_t r = innermost_run(st);
        if (r != k_no_run) runs_[r].aborted = true;
        aborts_[e.arg0].push_back(e.ts_ns);
        break;
      }
      case event_kind::step_resume: {
        auto it = aborts_.find(e.arg0);
        if (it != aborts_.end() && !it->second.empty()) {
          ++m_.suspensions;
          m_.suspend_latency_ms +=
              static_cast<double>(e.ts_ns - it->second.front()) * k_ns_to_ms;
          it->second.pop_front();
        } else {
          ++m_.unmatched;
        }
        break;
      }
      case event_kind::item_put: {
        const std::uint32_t r = innermost_run(st);
        if (r != k_no_run) {
          runs_[r].cuts.push_back(e.ts_ns);
          runs_[r].puts.push_back({e.ts_ns, e.name, e.arg0});
        }
        break;  // environment puts are DAG sources: no producing segment
      }
      case event_kind::item_get: {
        const std::uint32_t r = innermost_run(st);
        if (r != k_no_run) {
          runs_[r].cuts.push_back(e.ts_ns);
          runs_[r].gets.push_back({e.ts_ns, e.name, e.arg0});
        }
        break;
      }
      case event_kind::task_overflow:
      case event_kind::item_get_miss:
      case event_kind::step_requeue:
      case event_kind::preschedule_defer:
      case event_kind::counter_sample:
      case event_kind::phase_begin:
      // Request markers delimit server requests; they carry no DAG edges.
      case event_kind::request_begin:
      case event_kind::request_end:
        break;
    }
  }

  /// Close every thread's final slice and force-close runs left open at the
  /// window end (a sign of truncation — counted as unmatched).
  void finish_threads(std::uint64_t window_end) {
    for (auto& [tid, st] : threads_) {
      account(st, window_end);
      while (!st.stack.empty()) {
        const frame f = st.stack.back();
        st.stack.pop_back();
        if (f.kind == frame_kind::run) {
          runs_[f.run].t1 = window_end;
          runs_[f.run].closed = true;
        }
        ++m_.unmatched;
      }
    }
  }

  // ---- DAG construction ----

  bool in_dag(const run_rec& r) const { return r.closed && !r.aborted; }

  /// Match spawn events to the task occurrences they created. Task
  /// identities are heap pointers, which the allocator reuses, so matching
  /// is by (pointer, time): the first still-unclaimed run of that pointer
  /// beginning at or after the spawn. Both lists are time-sorted, so a
  /// per-pointer cursor suffices.
  void claim_spawn_children() {
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_ptr;
    for (std::uint32_t i = 0; i < runs_.size(); ++i)
      by_ptr[runs_[i].ptr].push_back(i);  // runs_ is t0-sorted already
    std::unordered_map<std::uint64_t, std::size_t> cursor;
    for (const spawn_rec& s : spawns_) {
      auto it = by_ptr.find(s.ptr);
      if (it == by_ptr.end()) {
        ++m_.unmatched;  // spawned but never seen running in this phase
        continue;
      }
      std::size_t& c = cursor[s.ptr];
      const auto& v = it->second;
      while (c < v.size() &&
             (runs_[v[c]].claimed || runs_[v[c]].t0 < s.ts))
        ++c;
      if (c >= v.size()) {
        ++m_.unmatched;
        continue;
      }
      const std::uint32_t child = v[c];
      runs_[child].claimed = true;
      if (s.parent != k_no_run)
        runs_[s.parent].children.push_back({s.ts, child, false});
      else
        env_children_.push_back(child);
    }
  }

  /// Split each run at its cuts; the pieces become DAG nodes weighted by
  /// the run's exclusive busy time inside the piece, chained sequentially.
  void segment_runs() {
    for (run_rec& r : runs_) {
      if (!in_dag(r)) {
        if (r.closed)
          for (const auto& [a, b] : r.busy)
            m_.aborted_ms += static_cast<double>(b - a) * k_ns_to_ms;
        continue;
      }
      r.bounds.clear();
      r.bounds.push_back(r.t0);
      std::sort(r.cuts.begin(), r.cuts.end());
      for (std::uint64_t c : r.cuts)
        if (c > r.bounds.back() && c < r.t1) r.bounds.push_back(c);
      r.bounds.push_back(std::max(r.t1, r.bounds.back()));
      r.seg_begin = static_cast<std::uint32_t>(segs_.size());
      r.seg_count = static_cast<std::uint32_t>(r.bounds.size() - 1);
      // Two-pointer sweep: busy slices and bounds are both sorted.
      std::size_t si = 0;
      for (std::uint32_t k = 0; k < r.seg_count; ++k) {
        const std::uint64_t lo = r.bounds[k], hi = r.bounds[k + 1];
        segment seg;
        while (si < r.busy.size() && r.busy[si].second <= lo) ++si;
        for (std::size_t j = si; j < r.busy.size() && r.busy[j].first < hi;
             ++j) {
          const std::uint64_t a = std::max(r.busy[j].first, lo);
          const std::uint64_t b = std::min(r.busy[j].second, hi);
          if (b > a) seg.w_ns += static_cast<double>(b - a);
        }
        segs_.push_back(std::move(seg));
        if (k > 0) add_edge(r.seg_begin + k - 1, r.seg_begin + k);
      }
    }
  }

  void add_edge(std::uint32_t u, std::uint32_t v) {
    segs_[u].out.push_back(v);
    ++segs_[v].indeg;
  }

  /// Segment of `r` whose half-open interval contains `ts`; when `ts` is
  /// exactly a cut, `before` selects the segment ending there instead of
  /// the one starting there.
  std::uint32_t seg_at(const run_rec& r, std::uint64_t ts, bool before) const {
    auto it = std::upper_bound(r.bounds.begin(), r.bounds.end(), ts);
    auto k = static_cast<std::int64_t>(it - r.bounds.begin()) - 1;
    if (before && k > 0 && r.bounds[k] == ts) --k;
    k = std::clamp<std::int64_t>(k, 0, r.seg_count - 1);
    return r.seg_begin + static_cast<std::uint32_t>(k);
  }

  std::uint32_t last_seg(const run_rec& r) const {
    return r.seg_begin + r.seg_count - 1;
  }

  void add_spawn_and_join_edges() {
    for (run_rec& r : runs_) {
      if (!in_dag(r)) continue;
      for (const child_link& c : r.children) {
        if (!in_dag(runs_[c.run])) continue;
        add_edge(seg_at(r, c.spawn_ts, /*before=*/true),
                 runs_[c.run].seg_begin);
        ++m_.spawn_edges;
      }
      // A join_end happens-after the completion of every child spawned
      // before it that has already finished (spawn events carry no group
      // identity, so membership is inferred from the timing discipline
      // task_group enforces: wait() returns only once its group drained).
      for (std::uint64_t ts : r.join_ends) {
        for (child_link& c : r.children) {
          if (c.joined || c.spawn_ts >= ts) continue;
          const run_rec& ch = runs_[c.run];
          if (!in_dag(ch) || ch.t1 > ts) continue;
          add_edge(last_seg(ch), seg_at(r, ts, /*before=*/false));
          c.joined = true;
          ++m_.join_edges;
        }
      }
    }
  }

  void add_data_edges() {
    // (collection, key-hash) -> producing put site. DSA guarantees one put
    // per item, so no collision policy is needed.
    auto mix = [](std::uint16_t name, std::uint64_t key) {
      return key ^ (static_cast<std::uint64_t>(name) * 0x9e3779b97f4a7c15ULL);
    };
    std::unordered_map<std::uint64_t, std::pair<std::uint32_t, std::uint64_t>>
        producer;
    for (std::uint32_t i = 0; i < runs_.size(); ++i) {
      if (!in_dag(runs_[i])) continue;
      for (const put_get_rec& p : runs_[i].puts)
        producer.emplace(mix(p.name, p.key), std::make_pair(i, p.ts));
    }
    for (std::uint32_t i = 0; i < runs_.size(); ++i) {
      run_rec& r = runs_[i];
      if (!in_dag(r)) continue;
      for (const put_get_rec& g : r.gets) {
        auto it = producer.find(mix(g.name, g.key));
        if (it == producer.end()) continue;  // produced by the environment
        const auto [src, put_ts] = it->second;
        if (src == i) continue;
        add_edge(seg_at(runs_[src], put_ts, /*before=*/true),
                 seg_at(r, g.ts, /*before=*/false));
        ++m_.data_edges;
      }
    }
  }

  /// Measured span: heaviest path through the segment DAG (Kahn order).
  /// Every edge points forward in time, so the graph is acyclic by
  /// construction; the processed-count check is a corruption guard.
  void longest_path() {
    std::vector<double> done(segs_.size());
    std::vector<std::uint32_t> ready;
    std::vector<std::uint32_t> indeg(segs_.size());
    for (std::uint32_t i = 0; i < segs_.size(); ++i) {
      indeg[i] = segs_[i].indeg;
      done[i] = segs_[i].w_ns;
      if (indeg[i] == 0) ready.push_back(i);
    }
    double span_ns = 0;
    std::size_t processed = 0;
    while (!ready.empty()) {
      const std::uint32_t u = ready.back();
      ready.pop_back();
      ++processed;
      span_ns = std::max(span_ns, done[u]);
      for (std::uint32_t v : segs_[u].out) {
        done[v] = std::max(done[v], done[u] + segs_[v].w_ns);
        if (--indeg[v] == 0) ready.push_back(v);
      }
    }
    if (processed != segs_.size()) ++m_.unmatched;
    m_.span_ms = span_ns * k_ns_to_ms;
    double work_ns = 0;
    for (const segment& s : segs_) work_ns += s.w_ns;
    m_.work_ms = work_ns * k_ns_to_ms;
  }

  void summarize(std::uint64_t window_begin, std::uint64_t window_end,
                 const std::function<std::string(std::int32_t)>& label_of) {
    m_.wall_ms =
        static_cast<double>(window_end - window_begin) * k_ns_to_ms;
    for (const run_rec& r : runs_) {
      if (!r.closed) continue;
      if (r.aborted)
        ++m_.aborted_tasks;
      else
        ++m_.tasks;
    }
    std::vector<std::int32_t> tids;
    for (const auto& [tid, st] : threads_)
      if (st.participant) tids.push_back(tid);
    std::sort(tids.begin(), tids.end());
    m_.threads = static_cast<unsigned>(tids.size());
    for (std::int32_t tid : tids) {
      const thread_state& st = threads_[tid];
      thread_breakdown tb;
      tb.tid = tid;
      if (label_of) tb.label = label_of(tid);
      tb.busy_ms = st.busy_ns * k_ns_to_ms;
      tb.join_wait_ms = st.join_ns * k_ns_to_ms;
      tb.data_wait_ms = st.data_ns * k_ns_to_ms;
      tb.other_idle_ms = std::max(
          0.0, m_.wall_ms - tb.busy_ms - tb.join_wait_ms - tb.data_wait_ms);
      m_.busy_ms += tb.busy_ms;
      m_.join_wait_ms += tb.join_wait_ms;
      m_.data_wait_ms += tb.data_wait_ms;
      m_.other_idle_ms += tb.other_idle_ms;
      m_.per_thread.push_back(std::move(tb));
    }
  }

  phase_metrics m_;
  std::unordered_map<std::int32_t, thread_state> threads_;
  std::vector<run_rec> runs_;  // in t0 order (events are time-sorted)
  std::vector<spawn_rec> spawns_;
  std::vector<std::uint32_t> env_children_;
  std::unordered_map<std::uint64_t, std::deque<std::uint64_t>> aborts_;
  std::vector<segment> segs_;
};

}  // namespace

std::vector<phase_metrics> analyze_trace(
    const std::vector<event>& events,
    const std::function<std::string(std::uint16_t)>& name_of,
    const std::function<std::string(std::int32_t)>& label_of) {
  std::vector<phase_metrics> out;
  std::size_t begin = 0;
  std::string phase_name = "(untitled)";
  std::uint64_t window_begin = events.empty() ? 0 : events.front().ts_ns;
  auto flush = [&](std::size_t end) {
    if (end == begin && phase_name == "(untitled)") return;
    phase_builder b;
    phase_metrics m =
        b.build(events.data() + begin, events.data() + end, window_begin,
                label_of, phase_name);
    // Drop an untitled prefix that holds no task span: pool workers may
    // emit events (a park, a steal attempt) between tracer start() and the
    // first phase marker. An unmarked trace keeps its one phase unless it
    // is empty.
    const bool marked_after = end < events.size();
    if (!(m.phase == "(untitled)" && m.tasks == 0 && m.aborted_tasks == 0 &&
          (marked_after || m.threads == 0)))
      out.push_back(std::move(m));
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != event_kind::phase_begin) continue;
    flush(i);
    begin = i + 1;
    window_begin = events[i].ts_ns;
    phase_name = name_of ? name_of(events[i].name) : std::string();
    if (phase_name.empty()) phase_name = "(unnamed phase)";
  }
  flush(events.size());
  return out;
}

std::vector<phase_metrics> analyze_trace(const raw_trace& rt) {
  return analyze_trace(
      rt.events, [&rt](std::uint16_t id) { return rt.name(id); },
      [&rt](std::int32_t tid) { return rt.thread_label(tid); });
}

void print_metrics(std::ostream& os, const std::vector<phase_metrics>& phases,
                   bool per_thread) {
  table_printer table({"Phase", "Thr", "Wall(ms)", "Work(ms)", "Span(ms)",
                       "Par", "Busy%", "Join%", "DWait%", "Other%", "Tasks",
                       "Abort", "Susp(ms)", "Edges(s/j/d)", "Steals", "Unm"});
  for (const phase_metrics& p : phases) {
    const double denom = p.wall_ms * std::max(1u, p.threads);
    auto pct = [&](double ms) {
      return denom > 0 ? table_printer::num(100.0 * ms / denom, 3) + "%"
                       : std::string("-");
    };
    table.add_row(
        {p.phase, std::to_string(p.threads), table_printer::num(p.wall_ms),
         table_printer::num(p.work_ms), table_printer::num(p.span_ms),
         table_printer::num(p.parallelism()), pct(p.busy_ms),
         pct(p.join_wait_ms), pct(p.data_wait_ms), pct(p.other_idle_ms),
         std::to_string(p.tasks), std::to_string(p.aborted_tasks),
         table_printer::num(p.suspend_latency_ms),
         std::to_string(p.spawn_edges) + "/" + std::to_string(p.join_edges) +
             "/" + std::to_string(p.data_edges),
         std::to_string(p.steals), std::to_string(p.unmatched)});
  }
  table.print(os);
  if (!per_thread) return;
  for (const phase_metrics& p : phases) {
    if (p.per_thread.empty()) continue;
    os << "\nPer-thread breakdown — " << p.phase << "\n";
    table_printer tt({"Thread", "Busy(ms)", "Join(ms)", "DWait(ms)",
                      "Other(ms)"});
    for (const thread_breakdown& t : p.per_thread) {
      std::string who = "tid " + std::to_string(t.tid);
      if (!t.label.empty()) who += " (" + t.label + ")";
      tt.add_row({who, table_printer::num(t.busy_ms),
                  table_printer::num(t.join_wait_ms),
                  table_printer::num(t.data_wait_ms),
                  table_printer::num(t.other_idle_ms)});
    }
    tt.print(os);
  }
}

void write_metrics_csv(std::ostream& os,
                       const std::vector<phase_metrics>& phases) {
  os << "phase,threads,wall_ms,work_ms,span_ms,parallelism,busy_ms,"
        "join_wait_ms,data_wait_ms,other_idle_ms,tasks,aborted_tasks,"
        "aborted_ms,suspensions,suspend_latency_ms,spawn_edges,join_edges,"
        "data_edges,steals,unmatched\n";
  for (const phase_metrics& p : phases) {
    std::string phase = p.phase;
    for (char& c : phase)
      if (c == ',') c = ';';
    os << phase << ',' << p.threads << ',' << p.wall_ms << ',' << p.work_ms
       << ',' << p.span_ms << ',' << p.parallelism() << ',' << p.busy_ms
       << ',' << p.join_wait_ms << ',' << p.data_wait_ms << ','
       << p.other_idle_ms << ',' << p.tasks << ',' << p.aborted_tasks << ','
       << p.aborted_ms << ',' << p.suspensions << ',' << p.suspend_latency_ms
       << ',' << p.spawn_edges << ',' << p.join_edges << ',' << p.data_edges
       << ',' << p.steals << ',' << p.unmatched << '\n';
  }
}

}  // namespace rdp::obs
