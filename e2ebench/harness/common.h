// Pieces shared by the flow and server workloads: run options, the result
// record, latency statistics and the queue of netlists awaiting the
// benchmark's own checker.
#ifndef E2EBENCH_COMMON_H
#define E2EBENCH_COMMON_H

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "checker.h"
#include "trace.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;  ///< the MCNC stand-in PLAs
  std::string work_dir;  ///< generated inputs
  std::string trace_prefix;  ///< traced runs write <prefix>.trace.json and
                             ///< <prefix>.self_time.txt
  Clock::time_point start;  ///< entry of main(): the start of set-up
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;  ///< false when a whole-run check failed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Every run times whole passes until both `seconds` have passed and at
/// least this many jobs were timed, so the 90th percentile of server_mixed's
/// requests has ten beyond it and every flow job has six or more timed
/// repeats to take its fastest from.
inline constexpr std::size_t kMinTimedJobs = 100;

/// Small and medium MCNC stand-ins (the suite without cps, alu4, 16sym8).
[[nodiscard]] const std::vector<std::string>& mcnc_small_medium();
/// Every MCNC stand-in of the Table 2/3 suite that has a PLA (no e64, no
/// cordic).
[[nodiscard]] const std::vector<std::string>& mcnc_all();

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);

[[nodiscard]] double ms_since(Clock::time_point t0);
/// Linear-interpolated quantile q in [0, 1] of `v`.
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Peak resident set size of this process in MB.
[[nodiscard]] double peak_rss_mb();
/// FNV-1a, for deriving per-spec seeds from names.
[[nodiscard]] std::uint64_t hash_text(const std::string& s);

/// What a netlist is checked against: PLA text, or a square multiplier.
struct SpecText {
  std::string pla;
  unsigned mul_bits = 0;
};

/// Netlists to check once the timed part is over. Identical texts for the
/// same spec are checked once and counted per job that produced them.
class CheckQueue {
 public:
  void add(const std::string& key, const SpecText& spec, const std::string& blif);
  /// Runs the checker over every distinct (spec, netlist) pair; returns the
  /// number of jobs whose netlist it rejected and logs each rejection.
  [[nodiscard]] std::uint64_t run(std::uint64_t seed);

 private:
  struct Entry {
    SpecText spec;
    std::map<std::string, std::uint64_t> netlists;  // BLIF text -> jobs
  };
  std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Quality of one timed pass: the gates, area and delay of the first timed
/// netlist of each spec, summed over the specs in name order, so the
/// figures depend neither on how many passes a run fits in nor on the order
/// in which jobs finish.
class Quality {
 public:
  /// Keeps the figures of the first netlist added for `key`.
  void add(const std::string& key, double gates, double area, double delay);
  /// gates, area and delay summed over every spec.
  [[nodiscard]] std::array<double, 3> totals() const;

 private:
  std::map<std::string, std::array<double, 3>> by_spec_;
};

/// Mean per job and rate helpers for per-layer metrics.
[[nodiscard]] inline double per(double total, double count) {
  return count > 0 ? total / count : 0.0;
}

/// The end-to-end metrics of an untraced run: jobs_per_s is the median of
/// the timed passes' rates (jobs per second of each pass), job_p50_ms and
/// job_p90_ms are quantiles of `latencies_ms` (on the flow workloads each
/// job's fastest timed repeat, on server_mixed every timed request), gates,
/// area and delay are `quality`'s totals. `peak_rss` is peak_rss_mb() read
/// when the timed job count first reached kMinTimedJobs at the end of a
/// pass, so it does not grow with the number of passes a faster program
/// fits in.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(double setup_s,
                                                     const std::vector<double>& latencies_ms,
                                                     const std::vector<double>& pass_rates,
                                                     const Quality& quality, double peak_rss);

/// Every per-layer metric, in catalogue order, with the values `layers`
/// holds and 0 for the layers this workload does not reach.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const std::map<std::string, double>& layers);

/// Prints the final result line.
void print_result(const RunResult& r);

/// mcnc_bdd, certified_sat and reorder_auto: one job in flight through the
/// batch engine's public API.
[[nodiscard]] RunResult run_flow_workload(const Options& opt);
/// server_mixed: three closed-loop clients of an in-process BidecServer.
[[nodiscard]] RunResult run_server_workload(const Options& opt);

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H
