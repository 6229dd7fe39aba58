#include "obs/chrome_trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "obs/tracer.hpp"

namespace rdp::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Trace Event timestamps are microseconds; keep ns resolution as fractions.
std::string ts_us(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buf;
}

constexpr const char* category(event_kind k) {
  switch (k) {
    case event_kind::step_abort:
    case event_kind::step_resume:
    case event_kind::step_requeue:
    case event_kind::preschedule_defer:
    case event_kind::item_put:
    case event_kind::item_get:
    case event_kind::item_get_miss:
    case event_kind::data_wait_begin:
    case event_kind::data_wait_end:
      return "cnc";
    case event_kind::counter_sample:
    case event_kind::phase_begin:
      return "obs";
    case event_kind::request_begin:
    case event_kind::request_end:
      return "server";
    default:
      return "sched";
  }
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<event>& events,
                        const tracer& t) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit_json = [&](const std::string& line) {
    if (!first) os << ",";
    first = false;
    os << "\n" << line;
  };

  // Thread-name metadata first, so the viewer labels every track.
  const auto labels = t.thread_labels();
  for (std::size_t tid = 0; tid < labels.size(); ++tid) {
    if (labels[tid].empty()) continue;
    std::string line = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,";
    line += "\"tid\":" + std::to_string(tid) + ",\"args\":{\"name\":\"";
    append_escaped(line, labels[tid]);
    line += "\"}}";
    emit_json(line);
  }

  for (const event& e : events) {
    std::string line = "{\"name\":\"";
    const std::string interned = e.name != 0 ? t.name(e.name) : std::string();
    switch (e.kind) {
      case event_kind::task_run_begin:
      case event_kind::task_run_end:
        line += "task";
        break;
      case event_kind::counter_sample:
        append_escaped(line, interned.empty() ? "gauge" : interned);
        break;
      case event_kind::phase_begin:
        line += "phase: ";
        append_escaped(line, interned);
        break;
      default:
        line += to_string(e.kind);
        if (!interned.empty()) {
          line += ' ';
          append_escaped(line, interned);
        }
    }
    line += "\",\"cat\":\"";
    line += category(e.kind);
    line += "\",\"ph\":\"";
    switch (e.kind) {
      case event_kind::task_run_begin: line += 'B'; break;
      case event_kind::task_run_end: line += 'E'; break;
      case event_kind::counter_sample: line += 'C'; break;
      default: line += 'i';
    }
    line += "\",\"pid\":0,\"tid\":" + std::to_string(e.tid) +
            ",\"ts\":" + ts_us(e.ts_ns);
    switch (e.kind) {
      case event_kind::task_run_begin:
      case event_kind::task_run_end:
        break;  // duration slices carry no args (keeps files small)
      case event_kind::counter_sample:
        line += ",\"args\":{\"value\":" + std::to_string(e.arg0) + "}";
        break;
      case event_kind::phase_begin:
        line += ",\"s\":\"g\",\"args\":{}";
        break;
      case event_kind::task_steal:
        line += ",\"s\":\"t\",\"args\":{\"victim\":" +
                std::to_string(e.arg0) +
                ",\"thief\":" + std::to_string(e.arg1) + "}";
        break;
      case event_kind::request_begin:
      case event_kind::request_end:
        line += ",\"s\":\"p\",\"args\":{\"request\":" +
                std::to_string(e.arg0) + ",\"ns\":" + std::to_string(e.arg1) +
                "}";
        break;
      default:
        line += ",\"s\":\"t\",\"args\":{\"arg0\":" + std::to_string(e.arg0) +
                "}";
    }
    line += "}";
    emit_json(line);
  }
  os << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path,
                             const std::vector<event>& events,
                             const tracer& t) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os, events, t);
  return static_cast<bool>(os);
}

}  // namespace rdp::obs
