// Test of the benchmark's checker: it must accept netlists the program
// produced, and reject each of them once one gate is flipped (its cover
// turned into the cover of its complement).
//
//   checker_test <dir with the MCNC stand-in PLAs>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bidec/flow.h"
#include "checker.h"
#include "common.h"
#include "gen.h"
#include "io/blif.h"
#include "io/pla.h"
#include "satdec/decomposer.h"

namespace {

int failures = 0;

void expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
  std::fflush(stdout);
  if (!cond) ++failures;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  return lines;
}

std::vector<std::string> words(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> w;
  for (std::string t; in >> t;) w.push_back(t);
  return w;
}

// Flips the gate driving the first output that a gate drives: every row of
// its cover changes its output bit, which complements the gate.
std::string flip_output_gate(const std::string& blif) {
  std::vector<std::string> lines = lines_of(blif);
  std::vector<std::string> outputs;
  for (const std::string& l : lines) {
    if (l.rfind(".outputs", 0) == 0) outputs = words(l);
  }
  for (std::size_t o = 1; o < outputs.size(); ++o) {
    std::string gate;  // the buffer ".names X out" names the gate X
    for (const std::string& l : lines) {
      const std::vector<std::string> w = words(l);
      if (w.size() == 3 && w[0] == ".names" && w[2] == outputs[o]) gate = w[1];
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::vector<std::string> w = words(lines[i]);
      if (w.size() < 3 || w[0] != ".names" || w.back() != gate) continue;
      for (std::size_t r = i + 1; r < lines.size() && lines[r][0] != '.'; ++r) {
        char& bit = lines[r].back();
        bit = bit == '1' ? '0' : '1';
      }
      std::string out;
      for (const std::string& l : lines) out += l + "\n";
      return out;
    }
  }
  return {};
}

void check_pla_case(const std::string& name, const std::string& pla_text) {
  const bidec::PlaFile pla = bidec::PlaFile::parse_string(pla_text);
  bidec::BddManager mgr(pla.num_inputs);
  const std::vector<bidec::Isf> spec = pla.to_isfs(mgr);
  std::vector<std::string> ins;
  std::vector<std::string> outs;
  for (unsigned i = 0; i < pla.num_inputs; ++i) ins.push_back(pla.input_name(i));
  for (unsigned o = 0; o < pla.num_outputs; ++o) outs.push_back(pla.output_name(o));
  const bidec::FlowResult r = bidec::synthesize_bidecomp(mgr, spec, ins, outs);
  const std::string blif = bidec::write_blif(r.netlist, name);

  const e2e::CheckResult good = e2e::check_against_pla(blif, pla_text, 7);
  expect(good.ok, name + ": produced netlist accepted " + good.why);
  const std::string flipped = flip_output_gate(blif);
  expect(!flipped.empty(), name + ": a gate drives an output");
  const e2e::CheckResult bad = e2e::check_against_pla(flipped, pla_text, 7);
  expect(!bad.ok, name + ": netlist with one flipped gate rejected (" + bad.why + ")");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: checker_test <mcnc-pla-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  try {
    // Exhaustive mode (at most 20 inputs).
    check_pla_case("rd53", e2e::read_file(dir + "/rd53.pla"));
    check_pla_case("misex2-sampled-above-20", e2e::read_file(dir + "/misex2.pla"));
    check_pla_case("pairs11-sampled-above-20", e2e::pairs_pla(11, 5));

    // Multiplier mode, on a netlist from the SAT engine.
    const std::string source = e2e::multiplier_blif(4, 4, 3);
    bidec::satdec::SatDecOptions o;
    const bidec::satdec::SatFlowResult r =
        bidec::satdec::synthesize_satdec(bidec::read_blif_string(source), o);
    const std::string blif = bidec::write_blif(r.netlist, "mul4x4");
    expect(e2e::check_multiplier(source, 4, 4).ok, "mul4x4: generated source accepted");
    expect(e2e::check_multiplier(blif, 4, 4).ok, "mul4x4: produced netlist accepted");
    const std::string flipped = flip_output_gate(blif);
    expect(!flipped.empty() && !e2e::check_multiplier(flipped, 4, 4).ok,
           "mul4x4: netlist with one flipped gate rejected");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "checker_test: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", failures == 0 ? "checker_test: all passed" : "checker_test: FAILED");
  return failures == 0 ? 0 : 1;
}
