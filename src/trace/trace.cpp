#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace osap::trace {

namespace {

/// JSON string literal with minimal escaping (quote, backslash, control
/// characters). Track and event names are ASCII identifiers in practice,
/// but task names flow in from user-facing job specs.
std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// Sim seconds -> integer microseconds, the unit of the `ts` field.
/// llround keeps the quantization identical across compilers.
long long to_us(SimTime ts) { return std::llround(ts * 1e6); }

}  // namespace

TraceValue::TraceValue(const char* s) : json_(quote(s)) {}
TraceValue::TraceValue(std::string s) : json_(quote(s)) {}
TraceValue::TraceValue(std::uint64_t v) : json_(std::to_string(v)) {}
TraceValue::TraceValue(int v) : json_(std::to_string(v)) {}

TrackId Tracer::track(const std::string& process, const std::string& thread) {
  const auto [entry, added] =
      process_index_.try_emplace(process, static_cast<std::uint32_t>(processes_.size()));
  if (added) processes_.push_back(Process{&entry->first, {}});
  Process& p = processes_[entry->second];
  for (const TrackId id : p.tracks) {
    if (thread_names_[tracks_[id].thread] == thread) return id;
  }
  auto name = std::find(thread_names_.begin(), thread_names_.end(), thread);
  if (name == thread_names_.end()) name = thread_names_.insert(name, thread);
  const auto id = static_cast<TrackId>(tracks_.size());
  p.tracks.push_back(id);
  tracks_.push_back(Track{entry->second,
                          static_cast<std::uint32_t>(name - thread_names_.begin()),
                          static_cast<int>(p.tracks.size())});
  return id;
}

void Tracer::push(TrackId t, char phase, const char* name, std::uint64_t id, TraceArgs args) {
  OSAP_CHECK_MSG(t < tracks_.size(), "trace event on unregistered track " << t);
  TraceEvent e;
  e.ts = now();
  e.track = t;
  e.phase = phase;
  e.name = name;
  e.id = id;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Tracer::begin(TrackId t, const char* name, TraceArgs args) {
  if (!enabled_) return;
  push(t, 'B', name, 0, std::move(args));
}

void Tracer::end(TrackId t) {
  if (!enabled_) return;
  push(t, 'E', "", 0, {});
}

void Tracer::instant(TrackId t, const char* name, TraceArgs args) {
  if (!enabled_) return;
  push(t, 'i', name, 0, std::move(args));
}

void Tracer::async_begin(TrackId t, const char* name, std::uint64_t id, TraceArgs args) {
  if (!enabled_) return;
  push(t, 'b', name, id, std::move(args));
}

void Tracer::async_end(TrackId t, const char* name, std::uint64_t id, TraceArgs args) {
  if (!enabled_) return;
  push(t, 'e', name, id, std::move(args));
}

double Tracer::async_duration(const std::string& name, std::uint64_t id) const {
  SimTime begin = -1;
  for (const TraceEvent& e : events_) {
    if (e.name != name || e.id != id) continue;
    if (e.phase == 'b') {
      begin = e.ts;
    } else if (e.phase == 'e' && begin >= 0) {
      return e.ts - begin;
    }
  }
  return -1.0;
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&os, &first](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };

  // Metadata first: one process_name per unique pid (at its first track,
  // tid 1), one thread_name per track, in registration order
  // (deterministic by construction).
  for (const Track& t : tracks_) {
    const std::string pid = std::to_string(t.process + 1);
    if (t.tid == 1) {
      emit("{\"ph\":\"M\",\"pid\":" + pid + ",\"name\":\"process_name\",\"args\":{\"name\":" +
           quote(*processes_[t.process].name) + "}}");
    }
    emit("{\"ph\":\"M\",\"pid\":" + pid + ",\"tid\":" + std::to_string(t.tid) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":" + quote(thread_names_[t.thread]) + "}}");
  }

  for (const TraceEvent& e : events_) {
    const Track& t = tracks_[e.track];
    std::string line = "{\"ph\":\"";
    line.push_back(e.phase);
    line += "\",\"pid\":" + std::to_string(t.process + 1) + ",\"tid\":" + std::to_string(t.tid) +
            ",\"ts\":" + std::to_string(to_us(e.ts)) + ",\"name\":" + quote(e.name);
    if (e.phase == 'b' || e.phase == 'e') {
      // Async events need a category + id for matching; the subsystem
      // (thread) name doubles as the category.
      line += ",\"cat\":" + quote(thread_names_[t.thread]) + ",\"id\":" +
              quote(std::to_string(e.id));
    }
    if (e.phase == 'i') line += ",\"s\":\"t\"";
    if (!e.args.empty()) {
      line += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : e.args) {
        if (!first_arg) line += ",";
        first_arg = false;
        line += quote(key) + ":" + value.json();
      }
      line += "}";
    }
    line += "}";
    emit(line);
  }
  os << "\n]}\n";
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace osap::trace
