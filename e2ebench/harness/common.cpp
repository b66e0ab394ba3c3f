#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "gen.h"

namespace e2e {

const std::vector<std::string>& mcnc_small_medium() {
  static const std::vector<std::string> names = {
      "5xp1", "9sym", "alu2", "duke2", "misex2", "pdc",
      "rd53", "rd73", "rd84", "spla",  "t481",   "vg2"};
  return names;
}

const std::vector<std::string>& mcnc_all() {
  static const std::vector<std::string> names = {
      "5xp1", "9sym", "alu2", "alu4", "cps",  "duke2", "misex2", "pdc",
      "rd53", "rd73", "rd84", "spla", "t481", "vg2",   "16sym8"};
  return names;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !(out << text)) throw std::runtime_error("cannot write " + path);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over from the
  // process image before exec, so a launcher's own footprint would show.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t hash_text(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

void CheckQueue::add(const std::string& key, const SpecText& spec, const std::string& blif) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = entries_.try_emplace(key);
  if (fresh) it->second.spec = spec;
  ++it->second.netlists[blif];
}

std::uint64_t CheckQueue::run(std::uint64_t seed) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t rejected_jobs = 0;
  for (const auto& [key, entry] : entries_) {
    for (const auto& [blif, jobs] : entry.netlists) {
      const CheckResult r =
          entry.spec.mul_bits != 0
              ? check_multiplier(blif, entry.spec.mul_bits, entry.spec.mul_bits)
              : check_against_pla(blif, entry.spec.pla, mix_seed(seed, hash_text(key)));
      if (!r.ok) {
        rejected_jobs += jobs;
        std::fprintf(stderr, "checker: %s rejected (%llu jobs): %s\n", key.c_str(),
                     static_cast<unsigned long long>(jobs), r.why.c_str());
      }
    }
  }
  return rejected_jobs;
}

void Quality::add(const std::string& key, double gates, double area, double delay) {
  by_spec_.try_emplace(key, std::array<double, 3>{gates, area, delay});
}

std::array<double, 3> Quality::totals() const {
  std::array<double, 3> t{};
  for (const auto& [key, q] : by_spec_) {
    for (std::size_t i = 0; i < t.size(); ++i) t[i] += q[i];
  }
  return t;
}

std::vector<Metric> end_to_end_metrics(double setup_s, const std::vector<double>& latencies_ms,
                                       const std::vector<double>& pass_rates,
                                       const Quality& quality, double peak_rss) {
  const auto [gates, area, delay] = quality.totals();
  return {
      {"setup_s", setup_s, "s"},
      {"jobs_per_s", quantile(pass_rates, 0.5), "jobs/s"},
      {"job_p50_ms", quantile(latencies_ms, 0.5), "ms"},
      {"job_p90_ms", quantile(latencies_ms, 0.9), "ms"},
      {"gates", gates, "gates"},
      {"area", area, "area"},
      {"delay", delay, "delay"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const std::map<std::string, double>& layers) {
  static const std::pair<const char*, const char*> kCatalogue[] = {
      {"io.read_ms", "ms"},
      {"isf.build_ms", "ms"},
      {"isf.spec_nodes", "nodes"},
      {"bdd.steps", "steps"},
      {"bdd.and_calls", "calls"},
      {"bdd.ite_calls", "calls"},
      {"bdd.cache_hit_rate", "ratio"},
      {"bdd.unique_hit_rate", "ratio"},
      {"bdd.peak_nodes", "nodes"},
      {"bdd.gc_runs", "count"},
      {"bdd.gc_ms", "ms"},
      {"reorder.ms", "ms"},
      {"reorder.commits", "count"},
      {"reorder.rejected", "count"},
      {"reorder.shrink", "ratio"},
      {"bidec.ms", "ms"},
      {"bidec.calls", "calls"},
      {"bidec.strong", "calls"},
      {"bidec.weak", "calls"},
      {"bidec.exor", "calls"},
      {"bidec.reuse_hit_rate", "ratio"},
      {"verify_bdd.ms", "ms"},
      {"verify_sat.ms", "ms"},
      {"verify_sat.conflicts", "count"},
      {"verify_sat.propagations", "count"},
      {"proof.check_ms", "ms"},
      {"proof.clauses", "count"},
      {"proof.checked_unsat", "count"},
      {"proof.trim_share", "ratio"},
      {"satdec.ms", "ms"},
      {"satdec.solves", "count"},
      {"satdec.grouping_queries", "count"},
      {"satdec.conflicts", "count"},
      {"engine.pool_warm_share", "ratio"},
      {"server.cache_hit_rate", "ratio"},
      {"server.cache_rejects", "count"},
      {"server.pool_warm_share", "ratio"},
      {"server.admission_rejects", "count"},
      {"client.roundtrip_ms", "ms"},
      {"trace.job_ms", "ms"},
      {"trace.untraced_job_ms", "ms"},
      {"trace.overhead_share", "ratio"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : kCatalogue) {
    const auto it = layers.find(name);
    out.push_back({name, it == layers.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : layers) {
    if (std::none_of(out.begin(), out.end(), [&](const Metric& m) { return m.name == name; })) {
      throw std::logic_error("per-layer metric missing from the catalogue: " + name);
    }
  }
  return out;
}

void print_result(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + num +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace e2e
