#include "trace.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace e2e {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

Tracer::Scope::Scope(Tracer& t, std::string name, std::uint64_t job)
    : t_(t), index_(static_cast<int>(t.spans_.size())) {
  Span s;
  s.name = std::move(name);
  s.parent = t.open_.empty() ? -1 : t.open_.back();
  s.job = job;
  s.start = Clock::now();
  t.spans_.push_back(std::move(s));
  t.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  t_.spans_[static_cast<std::size_t>(index_)].end = Clock::now();
  t_.open_.pop_back();
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  std::map<std::string, double> by_name;
  for (const Span& s : spans_) {
    const double ms = ms_between(s.start, s.end);
    by_name[s.name] += ms;
    if (s.parent >= 0) by_name[spans_[static_cast<std::size_t>(s.parent)].name] -= ms;
  }
  return by_name;
}

void write_chrome_trace(const std::string& path, const std::vector<const Tracer*>& tracers,
                        Clock::time_point origin) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"traceEvents\": [";
  bool first = true;
  char buf[64];
  for (std::size_t tid = 0; tid < tracers.size(); ++tid) {
    const std::vector<Span>& spans = tracers[tid]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid;
      std::snprintf(buf, sizeof buf, "%.3f", ms_between(origin, s.start) * 1000.0);
      out << ", \"ts\": " << buf;
      std::snprintf(buf, sizeof buf, "%.3f", ms_between(s.start, s.end) * 1000.0);
      out << ", \"dur\": " << buf << ", \"args\": {\"job\": " << s.job
          << ", \"span\": " << i << ", \"parent\": " << s.parent << "}}";
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

void write_self_time_summary(const std::string& path,
                             const std::map<std::string, double>& self_ms,
                             const std::map<std::string, std::size_t>& counts) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  double total = 0.0;
  for (const auto& [name, ms] : self_ms) total += ms;
  char line[160];
  std::snprintf(line, sizeof line, "%-18s %12s %8s %7s\n", "layer", "self_ms", "spans",
                "share");
  out << line;
  for (const auto& [name, ms] : self_ms) {
    const auto it = counts.find(name);
    std::snprintf(line, sizeof line, "%-18s %12.3f %8zu %6.1f%%\n", name.c_str(), ms,
                  it == counts.end() ? std::size_t{0} : it->second,
                  total > 0 ? 100.0 * ms / total : 0.0);
    out << line;
  }
  std::snprintf(line, sizeof line, "%-18s %12.3f\n", "total", total);
  out << line;
}

}  // namespace e2e
