// The flow workloads: mcnc_bdd, certified_sat and reorder_auto. An untraced
// run sends every job through BatchEngine::submit/run with one worker, one
// job in flight, as `batch_synth --jobs 1` runs them. A traced run
// alternates such passes with passes that drive the same jobs layer by
// layer, in the job runner's order, and times each call from outside.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "common.h"
#include "engine/batch_engine.h"
#include "engine/job_runner.h"
#include "gen.h"
#include "io/blif.h"
#include "io/pla.h"
#include "satdec/decomposer.h"
#include "verify/sat_verifier.h"
#include "verify/verifier.h"

namespace e2e {

namespace {

using bidec::EngineSelect;
using bidec::JobReport;
using bidec::JobSpec;
using bidec::JobStatus;
using bidec::Netlist;
using bidec::VerifyEngine;
using bidec::proof::ProofPolicy;

struct FlowJob {
  std::string name;
  SpecText spec;    ///< what the checker compares the netlist against
  JobSpec job;      ///< source is the input file's path
};

bool verifies_bdd(VerifyEngine v) { return v == VerifyEngine::kBdd || v == VerifyEngine::kBoth; }
bool verifies_sat(VerifyEngine v) { return v == VerifyEngine::kSat || v == VerifyEngine::kBoth; }

std::vector<FlowJob> build_jobs(const Options& opt) {
  namespace fs = std::filesystem;
  fs::create_directories(opt.work_dir);
  std::vector<FlowJob> jobs;
  const auto add = [&](const std::string& name, const std::string& path, SpecText spec) {
    FlowJob j;
    j.name = name;
    j.spec = std::move(spec);
    j.job.name = name;
    j.job.source = path;
    jobs.push_back(std::move(j));
    return &jobs.back();
  };
  const auto mcnc = [&](const std::string& name) {
    const std::string path = opt.data_dir + "/" + name + ".pla";
    return add(name, path, SpecText{read_file(path), 0});
  };

  if (opt.workload == "mcnc_bdd") {
    for (const std::string& name : mcnc_all()) mcnc(name);
  } else if (opt.workload == "certified_sat") {
    for (const std::string& name : mcnc_small_medium()) {
      // t481's SAT verification with proof checking alone takes about a
      // second, which would stretch every run past the time budget.
      if (name == "t481") continue;
      FlowJob* j = mcnc(name);
      j->job.verify = VerifyEngine::kSat;
      j->job.flow.proof = ProofPolicy::kCheck;
    }
    for (const unsigned n : {4u, 5u}) {
      const std::string name = "mul" + std::to_string(n) + "x" + std::to_string(n);
      const std::string path = opt.work_dir + "/" + name + ".blif";
      write_file(path, multiplier_blif(n, n, mix_seed(opt.seed, 100 + n)));
      FlowJob* j = add(name, path, SpecText{{}, n});
      j->job.flow.engine = EngineSelect::kSat;
      j->job.verify = VerifyEngine::kSat;
      j->job.flow.proof = ProofPolicy::kCheck;
    }
  } else if (opt.workload == "reorder_auto") {
    for (unsigned p = 10; p <= 14; ++p) {
      const std::string name = "pairs" + std::to_string(p);
      const std::string path = opt.work_dir + "/" + name + ".pla";
      const std::string pla = pairs_pla(p, mix_seed(opt.seed, p));
      write_file(path, pla);
      add(name, path, SpecText{pla, 0});
    }
    for (const std::string& name : mcnc_small_medium()) mcnc(name);
    for (FlowJob& j : jobs) j.job.flow.live_reorder = bidec::ReorderMode::kAuto;
  } else {
    throw std::invalid_argument("unknown flow workload " + opt.workload);
  }
  return jobs;
}

/// Why a finished job does not count as verified; empty when it does.
std::string job_failure(const JobSpec& spec, const JobReport& r) {
  if (r.status != JobStatus::kOk) {
    return std::string("status ") + bidec::to_string(r.status) + ": " + r.error;
  }
  if (verifies_bdd(spec.verify) && r.bdd_verdict != 1) return "BDD verifier did not pass";
  if (verifies_sat(spec.verify) && r.sat_verdict != 1) return "SAT verifier did not pass";
  if (spec.flow.proof == ProofPolicy::kCheck &&
      (r.proof.checked_unsat == 0 || r.proof.failed_checks != 0)) {
    return "proof check: " + std::to_string(r.proof.checked_unsat) + " UNSAT checked, " +
           std::to_string(r.proof.failed_checks) + " failed";
  }
  return {};
}

/// Sums of the per-layer counters over the traced jobs.
struct LayerTotals {
  double jobs = 0;
  double spec_nodes = 0;
  double steps = 0, and_calls = 0, ite_calls = 0;
  double cache_hits = 0, cache_lookups = 0, unique_hits = 0, unique_lookups = 0;
  double peak_nodes = 0;  // maximum, not a sum
  double gc_runs = 0, gc_ms = 0;
  double reorder_ms = 0, reorders = 0, reorder_rejected = 0;
  double nodes_before = 0, nodes_after = 0;
  bidec::BidecStats bidec;
  bidec::sat::SolverStats verify_solver;
  bidec::proof::ProofStats proof;
  double satdec_solves = 0, satdec_grouping = 0, satdec_conflicts = 0;

  void add_bdd(const bidec::BddManager& mgr) {
    const bidec::BddStats& s = mgr.stats();
    steps += static_cast<double>(mgr.steps_used());
    and_calls += static_cast<double>(s.and_calls);
    ite_calls += static_cast<double>(s.ite_calls);
    cache_hits += static_cast<double>(s.cache_hits);
    cache_lookups += static_cast<double>(s.cache_lookups);
    unique_hits += static_cast<double>(s.unique_hits);
    unique_lookups += static_cast<double>(s.unique_hits + s.unique_misses);
    peak_nodes = std::max(peak_nodes, static_cast<double>(s.peak_nodes));
    gc_runs += static_cast<double>(s.gc_runs);
    gc_ms += s.gc_ms;
    reorder_ms += s.reorder_ms;
    reorders += static_cast<double>(s.reorders);
    reorder_rejected += static_cast<double>(s.reorder_rejected);
    nodes_before += static_cast<double>(s.reorder_nodes_before);
    nodes_after += static_cast<double>(s.reorder_nodes_after);
  }
  void add_bidec(const bidec::BidecStats& b) {
    bidec.calls += b.calls;
    bidec.cache_hits += b.cache_hits;
    bidec.cache_lookups += b.cache_lookups;
    bidec.strong_or += b.strong_or;
    bidec.strong_and += b.strong_and;
    bidec.strong_exor += b.strong_exor;
    bidec.weak_or += b.weak_or;
    bidec.weak_and += b.weak_and;
  }
};

class FlowRun {
 public:
  FlowRun(const Options& opt, std::vector<FlowJob> jobs)
      : opt_(opt), jobs_(std::move(jobs)), engine_(engine_options()),
        managers_(pool_) {}

  RunResult run();

 private:
  static bidec::EngineOptions engine_options() {
    bidec::EngineOptions o;
    o.num_workers = 1;
    return o;
  }

  std::vector<std::size_t> pass_order(std::size_t pass) const;
  /// One job through the batch engine; returns its latency in ms.
  double engine_job(const FlowJob& j, bool timed);
  /// One job layer by layer under `tracer`.
  void traced_job(const FlowJob& j, Tracer& tracer, bool timed);
  void record(const FlowJob& j, const std::string& failure, const Netlist& net);

  const Options& opt_;
  std::vector<FlowJob> jobs_;
  bidec::BatchEngine engine_;
  // The traced path's warm managers, leased the way a batch worker leases.
  bidec::ManagerPool pool_;
  bidec::PooledManagerSource managers_;

  std::uint64_t next_job_id_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  CheckQueue checks_;
  Quality quality_;  // of the timed untraced jobs
  LayerTotals layers_;
};

std::vector<std::size_t> FlowRun::pass_order(std::size_t pass) const {
  std::vector<std::size_t> order(jobs_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (pass == 0) return order;
  Rng rng(mix_seed(opt_.seed, 1000 + pass));
  for (std::size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[rng.below(static_cast<unsigned>(k))]);
  }
  return order;
}

void FlowRun::record(const FlowJob& j, const std::string& failure, const Netlist& net) {
  ++attempted_;
  if (!failure.empty()) {
    ++failed_;
    std::fprintf(stderr, "job %s failed: %s\n", j.name.c_str(), failure.c_str());
    return;
  }
  checks_.add(j.name, j.spec, bidec::write_blif(net, j.name));
}

double FlowRun::engine_job(const FlowJob& j, bool timed) {
  const Clock::time_point t0 = Clock::now();
  engine_.submit(j.job);
  bidec::BatchOutcome out = engine_.run();
  const double ms = ms_since(t0);
  const bidec::JobResult& res = out.results.front();
  record(j, job_failure(j.job, res.report), res.netlist);
  if (timed) {
    quality_.add(j.name, static_cast<double>(res.report.gates), res.report.area,
                 res.report.delay);
  }
  return ms;
}

void FlowRun::traced_job(const FlowJob& j, Tracer& tracer, bool timed) {
  using namespace bidec;
  const std::uint64_t id = next_job_id_++;
  const JobSpec& spec = j.job;
  const FlowOptions& flow = spec.flow;
  const std::string& path = std::get<std::string>(spec.source);
  const bool is_pla = j.spec.mul_bits == 0;

  JobReport rep;  // the verdicts, as the job runner would report them
  Netlist net;
  sat::SolverStats verify_solver;
  proof::ProofStats proof_stats;
  const SatVerifyOptions vopt{.proof = flow.proof,
                              .proof_stats = &proof_stats,
                              .solver_stats = &verify_solver};
  try {
    const Tracer::Scope job_span(tracer, "job", id);
    PlaFile pla;
    Netlist blif;
    {
      const Tracer::Scope s(tracer, "io.read", id);
      if (is_pla) {
        pla = PlaFile::load(path);
      } else {
        blif = load_blif(path);
      }
    }
    const unsigned num_vars =
        is_pla ? pla.num_inputs : static_cast<unsigned>(blif.num_inputs());
    if (flow.engine == EngineSelect::kSat) {
      satdec::SatDecOptions o;
      o.grouping_pairs = flow.bidec.grouping_pairs;
      o.balance_cost = flow.bidec.balance_cost;
      o.use_strong = flow.bidec.use_strong;
      o.use_exor = flow.bidec.use_exor;
      o.absorb_inverters = flow.bidec.absorb_inverters;
      o.proof = flow.proof;
      satdec::SatFlowResult r;
      {
        const Tracer::Scope s(tracer, "satdec", id);
        r = is_pla ? satdec::synthesize_satdec(pla, o) : satdec::synthesize_satdec(blif, o);
      }
      net = std::move(r.netlist);
      if (timed) {
        layers_.satdec_solves += static_cast<double>(r.stats.solves);
        layers_.satdec_grouping += static_cast<double>(r.stats.grouping_queries);
        layers_.satdec_conflicts += static_cast<double>(r.stats.solver.conflicts);
      }
      proof_stats += r.stats.proof;
      if (verifies_bdd(spec.verify)) throw std::logic_error("no BDD leg for SAT-engine jobs");
    } else {
      BddManager& mgr = managers_.manager_for(num_vars, false);
      mgr.set_threads(flow.threads);
      std::vector<Isf> isfs;
      std::vector<std::string> in_names;
      std::vector<std::string> out_names;
      {
        const Tracer::Scope s(tracer, "isf.build", id);
        mgr.set_reorder(flow.live_reorder == ReorderMode::kAuto ? ReorderMode::kAuto
                                                                : ReorderMode::kOff);
        std::vector<unsigned> identity(num_vars);
        std::iota(identity.begin(), identity.end(), 0u);
        mgr.reorder_to(identity);
        if (is_pla) {
          isfs = pla.to_isfs(mgr);
        } else {
          for (const Bdd& f : netlist_to_bdds(mgr, blif)) isfs.push_back(Isf::from_csf(f));
        }
      }
      for (unsigned i = 0; i < num_vars; ++i) {
        in_names.push_back(is_pla ? pla.input_name(i) : blif.input_name(i));
      }
      for (std::size_t o = 0; o < isfs.size(); ++o) {
        out_names.push_back(is_pla ? pla.output_name(static_cast<unsigned>(o))
                                   : blif.output_name(o));
      }
      if (timed) {
        std::vector<Bdd> bounds;
        for (const Isf& isf : isfs) {
          bounds.push_back(isf.q());
          bounds.push_back(isf.r());
        }
        layers_.spec_nodes += static_cast<double>(mgr.dag_size(bounds));
      }
      FlowResult r;
      {
        const Tracer::Scope s(tracer, "bidec", id);
        r = synthesize_bidecomp(mgr, isfs, in_names, out_names, flow);
      }
      net = std::move(r.netlist);
      if (verifies_bdd(spec.verify)) {
        const Tracer::Scope s(tracer, "verify_bdd", id);
        rep.bdd_verdict = verify_against_isfs(mgr, net, isfs).ok ? 1 : 0;
      }
      if (timed) {
        layers_.add_bidec(r.stats);
        layers_.add_bdd(mgr);
      }
    }
    if (verifies_sat(spec.verify)) {
      const Tracer::Scope s(tracer, "verify_sat", id);
      const VerifyResult v = is_pla ? sat_verify_against_pla(net, pla, vopt)
                                    : sat_verify_equivalent(net, blif, vopt);
      rep.sat_verdict = v.ok ? 1 : 0;
    }
    rep.status = JobStatus::kOk;
  } catch (const std::exception& e) {
    rep.status = JobStatus::kError;
    rep.error = e.what();
  }
  rep.proof = proof_stats;
  record(j, job_failure(spec, rep), net);
  if (timed) {
    layers_.jobs += 1;
    layers_.verify_solver.conflicts += verify_solver.conflicts;
    layers_.verify_solver.propagations += verify_solver.propagations;
    layers_.proof += proof_stats;
  }
}

RunResult FlowRun::run() {
  // Set-up: one untimed pass through the engine (and, when tracing, one
  // through the traced path, whose spans are dropped).
  for (const std::size_t k : pass_order(0)) engine_job(jobs_[k], false);
  if (opt_.trace) {
    Tracer warmup;
    for (const std::size_t k : pass_order(0)) traced_job(jobs_[k], warmup, false);
  }
  const double setup_s = ms_since(opt_.start) / 1000.0;

  Tracer tracer;
  const bidec::ManagerPoolStats pool0 = engine_.pool_stats();
  std::vector<double> latencies;  // untraced, timed
  // Each job's fastest untraced timed repeat. Every repeat of a job does the
  // same work, one job in flight, so repeats differ only by what the host
  // adds: on a shared host about 1.5 times the job's time now and then.
  // Latency quantiles over all repeats follow the share of slowed repeats:
  // over ten runs on a shared 4-vCPU VM they spread 7-33%, and these 1-2%.
  std::map<std::string, double> fastest;
  std::vector<double> pass_rates;  // untraced, timed
  double peak_rss = 0;
  const Clock::time_point window0 = Clock::now();
  for (std::size_t pass = 1;; ++pass) {
    const bool traced_pass = opt_.trace && pass % 2 == 0;
    const Clock::time_point pass0 = Clock::now();
    for (const std::size_t k : pass_order(pass)) {
      if (traced_pass) {
        traced_job(jobs_[k], tracer, true);
      } else {
        latencies.push_back(engine_job(jobs_[k], true));
        const auto [it, fresh] = fastest.try_emplace(jobs_[k].name, latencies.back());
        if (!fresh) it->second = std::min(it->second, latencies.back());
      }
    }
    if (!traced_pass) {
      pass_rates.push_back(static_cast<double>(jobs_.size()) / (ms_since(pass0) / 1000.0));
    }
    if (peak_rss == 0 && pass * jobs_.size() >= kMinTimedJobs) peak_rss = peak_rss_mb();
    if (ms_since(window0) >= opt_.seconds * 1000.0 && pass * jobs_.size() >= kMinTimedJobs) {
      break;
    }
  }
  const bidec::ManagerPoolStats pool1 = engine_.pool_stats();

  RunResult result;
  failed_ += checks_.run(opt_.seed);
  result.attempted = attempted_;
  result.failed = failed_;
  result.correct = failed_ == 0;
  if (!opt_.trace) {
    std::vector<double> per_job;
    for (const auto& [name, ms] : fastest) per_job.push_back(ms);
    result.metrics = end_to_end_metrics(setup_s, per_job, pass_rates, quality_, peak_rss);
    return result;
  }

  const std::map<std::string, double> self = tracer.self_ms_by_name();
  std::map<std::string, std::size_t> counts;
  for (const Span& s : tracer.spans()) ++counts[s.name];
  write_chrome_trace(opt_.trace_prefix + ".trace.json", {&tracer}, opt_.start);
  write_self_time_summary(opt_.trace_prefix + ".self_time.txt", self, counts);

  const LayerTotals& t = layers_;
  const auto self_per_job = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : per(it->second, t.jobs);
  };
  double self_sum = 0;
  for (const auto& [name, ms] : self) self_sum += ms;
  const double untraced_mean = per(std::accumulate(latencies.begin(), latencies.end(), 0.0),
                                   static_cast<double>(latencies.size()));
  const double traced_mean = per(self_sum, t.jobs);
  const double leases = static_cast<double>(pool1.leases - pool0.leases);
  const auto& b = t.bidec;
  result.metrics = per_layer_metrics({
      {"io.read_ms", self_per_job("io.read")},
      {"isf.build_ms", self_per_job("isf.build")},
      {"isf.spec_nodes", per(t.spec_nodes, t.jobs)},
      {"bdd.steps", per(t.steps, t.jobs)},
      {"bdd.and_calls", per(t.and_calls, t.jobs)},
      {"bdd.ite_calls", per(t.ite_calls, t.jobs)},
      {"bdd.cache_hit_rate", per(t.cache_hits, t.cache_lookups)},
      {"bdd.unique_hit_rate", per(t.unique_hits, t.unique_lookups)},
      {"bdd.peak_nodes", t.peak_nodes},
      {"bdd.gc_runs", per(t.gc_runs, t.jobs)},
      {"bdd.gc_ms", per(t.gc_ms, t.jobs)},
      {"reorder.ms", per(t.reorder_ms, t.jobs)},
      {"reorder.commits", per(t.reorders, t.jobs)},
      {"reorder.rejected", per(t.reorder_rejected, t.jobs)},
      {"reorder.shrink", per(t.nodes_after, t.nodes_before)},
      {"bidec.ms", self_per_job("bidec")},
      {"bidec.calls", per(static_cast<double>(b.calls), t.jobs)},
      {"bidec.strong", per(static_cast<double>(b.strong_total()), t.jobs)},
      {"bidec.weak", per(static_cast<double>(b.weak_total()), t.jobs)},
      {"bidec.exor", per(static_cast<double>(b.strong_exor), t.jobs)},
      {"bidec.reuse_hit_rate",
       per(static_cast<double>(b.cache_hits), static_cast<double>(b.cache_lookups))},
      {"verify_bdd.ms", self_per_job("verify_bdd")},
      {"verify_sat.ms", self_per_job("verify_sat")},
      {"verify_sat.conflicts", per(static_cast<double>(t.verify_solver.conflicts), t.jobs)},
      {"verify_sat.propagations",
       per(static_cast<double>(t.verify_solver.propagations), t.jobs)},
      {"proof.check_ms", per(t.proof.check_ms, t.jobs)},
      {"proof.clauses", per(static_cast<double>(t.proof.proof_clauses), t.jobs)},
      {"proof.checked_unsat", per(static_cast<double>(t.proof.checked_unsat), t.jobs)},
      {"proof.trim_share", per(static_cast<double>(t.proof.trimmed_clauses),
                               static_cast<double>(t.proof.proof_clauses))},
      {"satdec.ms", self_per_job("satdec")},
      {"satdec.solves", per(t.satdec_solves, t.jobs)},
      {"satdec.grouping_queries", per(t.satdec_grouping, t.jobs)},
      {"satdec.conflicts", per(t.satdec_conflicts, t.jobs)},
      {"engine.pool_warm_share", per(static_cast<double>(pool1.warm - pool0.warm), leases)},
      {"trace.job_ms", traced_mean},
      {"trace.untraced_job_ms", untraced_mean},
      {"trace.overhead_share", per(traced_mean - untraced_mean, untraced_mean)},
  });
  return result;
}

}  // namespace

RunResult run_flow_workload(const Options& opt) {
  FlowRun run(opt, build_jobs(opt));
  return run.run();
}

}  // namespace e2e
