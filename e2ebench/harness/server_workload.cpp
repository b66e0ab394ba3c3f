// server_mixed: three clients in one process, each on its own loopback
// connection to an in-process BidecServer with default options, in a
// closed loop (a client sends its next synth request only after the answer
// to the previous one arrived). A pass is the 12 small and medium MCNC
// stand-ins, repeated every pass, plus 12 specs made fresh for that pass
// (random control covers and symmetric covers), in a seeded order. Set-up
// sends each stand-in once from one client, in a fixed order, before any
// pass: those answers are the references every later answer for the same
// stand-in must equal byte for byte.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "gen.h"
#include "server/json.h"
#include "server/server.h"

namespace e2e {

namespace {

constexpr unsigned kClients = 3;
constexpr std::size_t kFreshPerPass = 12;

/// One blocking loopback connection speaking newline-delimited JSON.
class Connection {
 public:
  explicit Connection(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the server failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send_line(const std::string& line) {
    const std::string msg = line + "\n";
    std::size_t sent = 0;
    while (sent < msg.size()) {
      const ssize_t n = ::send(fd_, msg.data() + sent, msg.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() to the server failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      if (const auto nl = buf_.find('\n'); nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("the server closed the connection");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

struct ServerSpec {
  std::string key;  ///< request name; identical keys must get identical answers
  std::string pla;
};

/// The counters of the server's stats op this workload reads.
struct ServerCounters {
  std::uint64_t completed = 0;
  std::uint64_t cache_lookups = 0, cache_hits = 0, cache_rejected = 0;
  std::uint64_t leases = 0, warm = 0;
  std::uint64_t admission_rejects = 0;
};

ServerCounters query_stats(Connection& control) {
  control.send_line("{\"op\": \"stats\", \"id\": 0}");
  const std::optional<bidec::JsonValue> doc = bidec::JsonValue::parse(control.read_line());
  const bidec::JsonValue* jobs = doc ? doc->get("jobs") : nullptr;
  const bidec::JsonValue* cache = doc ? doc->get("cache") : nullptr;
  const bidec::JsonValue* pool = doc ? doc->get("pool") : nullptr;
  if (jobs == nullptr || cache == nullptr || pool == nullptr) {
    throw std::runtime_error("malformed stats response");
  }
  ServerCounters c;
  c.completed = jobs->get_uint("completed").value_or(0);
  c.admission_rejects = jobs->get_uint("rejected_queue").value_or(0) +
                        jobs->get_uint("rejected_client").value_or(0);
  c.cache_lookups = cache->get_uint("lookups").value_or(0);
  c.cache_hits = cache->get_uint("hits").value_or(0);
  c.cache_rejected = cache->get_uint("rejected").value_or(0);
  c.leases = pool->get_uint("leases").value_or(0);
  c.warm = pool->get_uint("warm").value_or(0);
  return c;
}

/// What one client saw for one request.
struct Answer {
  double ms = 0;  ///< from building the request to receiving the answer
  double roundtrip_ms = 0;
  std::string failure;
  /// The only failure is an answer that differs from the reference answer
  /// for the same stand-in (a fault of the server, not of the netlist).
  bool differs = false;
  double gates = 0, area = 0, delay = 0;
};

class ServerRun {
 public:
  explicit ServerRun(const Options& opt);
  RunResult run();

 private:
  [[nodiscard]] std::size_t pass_len() const { return repeated_.size() + kFreshPerPass; }
  /// The spec of request `k` (pass k / pass_len, in the pass's seeded order).
  [[nodiscard]] ServerSpec spec_for(std::size_t k) const;
  /// Runs the pass of requests [first, first + pass_len) on kClients
  /// connections; returns the index one past its last request.
  std::size_t run_pass(std::size_t first, bool timed, bool traced,
                       std::vector<Tracer>* tracers);
  Answer request(Connection& conn, std::size_t k, const ServerSpec& spec, Tracer* tracer);

  const Options& opt_;
  std::vector<ServerSpec> repeated_;
  bidec::BidecServer server_;
  std::vector<std::unique_ptr<Connection>> clients_;

  std::mutex mu_;  // guards everything below
  // Repeated spec -> its reference answer (normalized), from set-up.
  std::map<std::string, std::string> first_answer_;
  std::vector<double> latencies_;
  double roundtrip_ms_ = 0;
  double traced_requests_ = 0;
  Quality quality_;  // of the repeated specs' untraced timed answers
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool other_failure_ = false;  // a failure other than a differing answer
  CheckQueue checks_;
};

ServerRun::ServerRun(const Options& opt) : opt_(opt) {
  for (const std::string& name : mcnc_small_medium()) {
    repeated_.push_back({"mcnc/" + name, read_file(opt.data_dir + "/" + name + ".pla")});
  }
  server_.start();
  for (unsigned c = 0; c < kClients; ++c) {
    clients_.push_back(std::make_unique<Connection>(server_.port()));
  }
}

ServerSpec ServerRun::spec_for(std::size_t k) const {
  const std::size_t pass = k / pass_len();
  std::vector<std::size_t> order(pass_len());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng shuffle(mix_seed(opt_.seed, 2000 + pass));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.below(static_cast<unsigned>(i))]);
  }
  const std::size_t slot = order[k % pass_len()];
  if (slot < repeated_.size()) return repeated_[slot];

  // Fresh spec: a function of (seed, pass, slot) only.
  const std::size_t f = slot - repeated_.size();
  const std::uint64_t seed = mix_seed(opt_.seed, pass, f);
  Rng rng(seed);
  ServerSpec s;
  s.key = "fresh/" + std::to_string(pass) + "/" + std::to_string(f);
  // Fixed sizes keep the work of a pass, and so the run's figures, steady
  // across seeds; the seed picks the functions.
  if (f % 3 == 2) {
    std::vector<unsigned> weights;
    while (weights.size() < 3) {
      const unsigned w = 1 + rng.below(8);
      if (std::find(weights.begin(), weights.end(), w) == weights.end()) weights.push_back(w);
    }
    s.pla = symmetric_pla(9, weights, rng.next());
  } else {
    s.pla = control_pla(14, 6, 45, 6, rng.next());
  }
  return s;
}

Answer ServerRun::request(Connection& conn, std::size_t k, const ServerSpec& spec,
                          Tracer* tracer) {
  Answer a;
  std::string response;
  {
    std::optional<Tracer::Scope> req_span;
    if (tracer != nullptr) req_span.emplace(*tracer, "request", k);
    const Clock::time_point t0 = Clock::now();
    std::string line;
    {
      std::optional<Tracer::Scope> s;
      if (tracer != nullptr) s.emplace(*tracer, "client.encode", k);
      line = "{\"op\": \"synth\", \"id\": " + std::to_string(k) + ", \"name\": \"" +
             bidec::json_escape(spec.key) + "\", \"pla\": \"" + bidec::json_escape(spec.pla) +
             "\", \"verify\": \"bdd\", \"netlist\": true}";
    }
    const Clock::time_point t1 = Clock::now();
    {
      std::optional<Tracer::Scope> s;
      if (tracer != nullptr) s.emplace(*tracer, "client.roundtrip", k);
      conn.send_line(line);
      response = conn.read_line();
    }
    a.roundtrip_ms = ms_since(t1);
    a.ms = ms_since(t0);
  }

  const std::optional<bidec::JsonValue> doc = bidec::JsonValue::parse(response);
  const bidec::JsonValue* verify = doc ? doc->get("verify") : nullptr;
  const bidec::JsonValue* netlist = doc ? doc->get("netlist") : nullptr;
  const std::optional<std::string> blif = doc ? doc->get_string("blif") : std::nullopt;
  if (!doc || doc->get_string("status").value_or("") != "ok") {
    a.failure = "response: " + response.substr(0, 200);
  } else if (verify == nullptr || verify->get("bdd") == nullptr ||
             verify->get("bdd")->as_number() != 1) {
    a.failure = "BDD verifier did not pass";
  } else if (netlist == nullptr || !blif) {
    a.failure = "response carries no netlist";
  } else {
    a.gates = netlist->get("gates") ? netlist->get("gates")->as_number() : 0;
    a.area = netlist->get("area") ? netlist->get("area")->as_number() : 0;
    a.delay = netlist->get("delay") ? netlist->get("delay")->as_number() : 0;
  }

  // The answer without its request id must be the same for every request of
  // the same spec, whichever client sent it; the first is the reference.
  const std::string id_prefix = "{\"id\": " + std::to_string(k) + ", ";
  const std::string normalized =
      response.rfind(id_prefix, 0) == 0 ? response.substr(id_prefix.size()) : response;
  if (a.failure.empty() && spec.key.rfind("mcnc/", 0) == 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto [it, first] = first_answer_.try_emplace(spec.key, normalized);
    if (!first && it->second != normalized) {
      a.differs = true;
      const std::string& was = it->second;
      const std::size_t at = static_cast<std::size_t>(
          std::mismatch(was.begin(), was.begin() + static_cast<std::ptrdiff_t>(std::min(
                                                        was.size(), normalized.size())),
                        normalized.begin())
              .first -
          was.begin());
      const std::size_t from = at < 40 ? 0 : at - 40;
      a.failure = "answer differs from an earlier answer for the same spec at byte " +
                  std::to_string(at) + ": was '" + was.substr(from, 120) + "', now '" +
                  normalized.substr(from, 120) + "'";
    }
  }
  if (a.failure.empty() || a.differs) checks_.add(spec.key, SpecText{spec.pla, 0}, *blif);
  return a;
}

std::size_t ServerRun::run_pass(std::size_t first, bool timed, bool traced,
                                std::vector<Tracer>* tracers) {
  const std::size_t end = first + pass_len();
  std::atomic<std::size_t> next{first};
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Tracer* tracer = traced ? &(*tracers)[c] : nullptr;
        for (std::size_t k = next++; k < end; k = next++) {
          const ServerSpec spec = spec_for(k);
          const Answer a = request(*clients_[c], k, spec, tracer);
          const std::lock_guard<std::mutex> lock(mu_);
          ++attempted_;
          if (!a.failure.empty()) {
            ++failed_;
            other_failure_ = other_failure_ || !a.differs;
            std::fprintf(stderr, "request %zu (%s) failed: %s\n", k, spec.key.c_str(),
                         a.failure.c_str());
          }
          if (!timed) continue;
          if (traced) {
            roundtrip_ms_ += a.roundtrip_ms;
            traced_requests_ += 1;
          } else {
            latencies_.push_back(a.ms);
            if (spec.key.rfind("mcnc/", 0) == 0) {
              quality_.add(spec.key, a.gates, a.area, a.delay);
            }
          }
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return end;
}

RunResult ServerRun::run() {
  Connection control(server_.port());
  // Set-up: the reference answers, one request per repeated spec from one
  // client in a fixed order (not counted as attempted, so every run attempts
  // whole passes), then one untimed warm-up pass.
  for (std::size_t i = 0; i < repeated_.size(); ++i) {
    const Answer a = request(*clients_[0], i, repeated_[i], nullptr);
    if (!a.failure.empty()) {
      other_failure_ = true;
      std::fprintf(stderr, "reference request (%s) failed: %s\n", repeated_[i].key.c_str(),
                   a.failure.c_str());
    }
  }
  std::size_t next = run_pass(0, false, false, nullptr);
  const double setup_s = ms_since(opt_.start) / 1000.0;

  // Timed passes until the stop rule holds; a traced run alternates
  // untraced and traced passes.
  std::vector<Tracer> tracers(kClients);
  std::vector<double> pass_rates;  // untraced
  double peak_rss = 0;
  const ServerCounters c0 = query_stats(control);
  const Clock::time_point window0 = Clock::now();
  for (std::size_t pass = 1;; ++pass) {
    const bool traced = opt_.trace && pass % 2 == 0;
    const Clock::time_point pass0 = Clock::now();
    next = run_pass(next, true, traced, &tracers);
    if (!traced) {
      pass_rates.push_back(static_cast<double>(pass_len()) / (ms_since(pass0) / 1000.0));
    }
    const bool enough = pass * pass_len() >= kMinTimedJobs;
    if (peak_rss == 0 && enough) peak_rss = peak_rss_mb();
    if (enough && ms_since(window0) >= opt_.seconds * 1000.0) break;
  }

  // Every answer received must show in the server's completed count. The
  // server counts a job right after sending its answer, so allow it a moment.
  const std::uint64_t received = attempted_ + repeated_.size();
  ServerCounters c1 = query_stats(control);
  for (int i = 0; i < 200 && c1.completed != received; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    c1 = query_stats(control);
  }
  RunResult result;
  result.correct = c1.completed == received;
  if (!result.correct) {
    std::fprintf(stderr, "server completed %llu jobs, clients received %llu answers\n",
                 static_cast<unsigned long long>(c1.completed),
                 static_cast<unsigned long long>(received));
  }
  clients_.clear();
  server_.stop();

  // A differing answer counts as a failed job but leaves `correct` alone;
  // its netlist is still checked, and any other failure clears `correct`.
  const std::uint64_t rejected = checks_.run(opt_.seed);
  failed_ += rejected;
  result.attempted = attempted_;
  result.failed = failed_;
  result.correct = result.correct && rejected == 0 && !other_failure_;
  if (!opt_.trace) {
    result.metrics = end_to_end_metrics(setup_s, latencies_, pass_rates, quality_, peak_rss);
    return result;
  }

  std::map<std::string, double> self;
  std::map<std::string, std::size_t> counts;
  std::vector<const Tracer*> views;
  for (const Tracer& t : tracers) {
    views.push_back(&t);
    for (const auto& [name, ms] : t.self_ms_by_name()) self[name] += ms;
    for (const Span& s : t.spans()) ++counts[s.name];
  }
  write_chrome_trace(opt_.trace_prefix + ".trace.json", views, opt_.start);
  write_self_time_summary(opt_.trace_prefix + ".self_time.txt", self, counts);
  double self_sum = 0;
  for (const auto& [name, ms] : self) self_sum += ms;
  const double untraced_mean =
      per(std::accumulate(latencies_.begin(), latencies_.end(), 0.0),
          static_cast<double>(latencies_.size()));
  const double traced_mean = per(self_sum, traced_requests_);
  const double requests = static_cast<double>(c1.completed - c0.completed);
  result.metrics = per_layer_metrics({
      {"server.cache_hit_rate", per(static_cast<double>(c1.cache_hits - c0.cache_hits),
                                    static_cast<double>(c1.cache_lookups - c0.cache_lookups))},
      {"server.cache_rejects",
       per(static_cast<double>(c1.cache_rejected - c0.cache_rejected), requests)},
      {"server.pool_warm_share", per(static_cast<double>(c1.warm - c0.warm),
                                     static_cast<double>(c1.leases - c0.leases))},
      {"server.admission_rejects",
       static_cast<double>(c1.admission_rejects - c0.admission_rejects)},
      {"client.roundtrip_ms", per(roundtrip_ms_, traced_requests_)},
      {"trace.job_ms", traced_mean},
      {"trace.untraced_job_ms", untraced_mean},
      {"trace.overhead_share", per(traced_mean - untraced_mean, untraced_mean)},
  });
  return result;
}

}  // namespace

RunResult run_server_workload(const Options& opt) {
  ServerRun run(opt);
  return run.run();
}

}  // namespace e2e
