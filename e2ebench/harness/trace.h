// Span recorder of the traced run. Spans are kept in memory, one recorder
// per thread, and written out at the end as Chrome trace-event JSON (which
// Perfetto and chrome://tracing read) plus a per-layer self-time summary.
#ifndef E2EBENCH_TRACE_H
#define E2EBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  ///< index of the enclosing span in the same recorder
  std::uint64_t job = 0;
};

class Tracer {
 public:
  /// RAII span: opened on construction, closed on destruction. The parent is
  /// the innermost span still open in this recorder.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::uint64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time (a span's duration minus the time its direct children
  /// cover) summed per span name.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Writes the spans of every recorder (one trace thread each) as Chrome
/// trace-event JSON; times are microseconds since `origin`.
void write_chrome_trace(const std::string& path, const std::vector<const Tracer*>& tracers,
                        Clock::time_point origin);

/// Writes the per-layer self-time table: total ms, span count and share.
void write_self_time_summary(const std::string& path,
                             const std::map<std::string, double>& self_ms,
                             const std::map<std::string, std::size_t>& counts);

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H
