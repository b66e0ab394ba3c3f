// End-to-end benchmark harness: PLA (or BLIF) in, verified netlist out.
//
//   e2ebench --workload mcnc_bdd|certified_sat|reorder_auto|server_mixed
//            --seed N --seconds S --trace 0|1 --data DIR --work DIR
//            [--trace-prefix PATH]
//
// Prints one JSON object as the last line of standard output:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer metrics.
#include <cstdio>
#include <exception>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  e2e::Options opt;
  opt.start = e2e::Clock::now();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--data") {
        opt.data_dir = value;
      } else if (key == "--work") {
        opt.work_dir = value;
      } else if (key == "--trace-prefix") {
        opt.trace_prefix = value;
      } else {
        throw std::invalid_argument("unknown argument " + key);
      }
    }
    if (argc % 2 == 0 || opt.workload.empty() || opt.data_dir.empty() ||
        opt.work_dir.empty() || (opt.trace && opt.trace_prefix.empty())) {
      throw std::invalid_argument("missing arguments (see the header of main.cpp)");
    }
    const e2e::RunResult r = opt.workload == "server_mixed" ? e2e::run_server_workload(opt)
                                                            : e2e::run_flow_workload(opt);
    e2e::print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
