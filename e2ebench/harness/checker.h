// The benchmark's own output checker. It reads an emitted BLIF text and the
// job's specification text and simulates the netlist 64 points per machine
// word. It shares no code with the program's verifiers or readers: both
// formats are parsed here, from the text alone.
#ifndef E2EBENCH_CHECKER_H
#define E2EBENCH_CHECKER_H

#include <cstdint>
#include <string>

namespace e2e {

struct CheckResult {
  bool ok = false;
  std::string why;  ///< first reason for rejection; empty when ok
};

/// Designs with at most this many inputs are checked on every minterm.
inline constexpr unsigned kExhaustiveInputs = 20;
/// Uniform random minterms added to the cube corners above that size.
inline constexpr unsigned kSampledPoints = 4096;

/// Checks Q <= f <= not R for every output of `blif` against the PLA text
/// (espresso types f, fd and fr). Inputs and outputs are matched by the
/// PLA's .ilb/.ob names when it has them, by position otherwise. Above
/// kExhaustiveInputs inputs the points are two corners of every cube (free
/// inputs all 0, all 1) plus kSampledPoints minterms drawn from `seed`.
[[nodiscard]] CheckResult check_against_pla(const std::string& blif,
                                            const std::string& pla,
                                            std::uint64_t seed);

/// Checks that `blif`, with inputs a0..a{na-1}, b0..b{nb-1} and outputs
/// p0..p{na+nb-1} (LSB first), computes a*b on every input pair.
[[nodiscard]] CheckResult check_multiplier(const std::string& blif, unsigned na,
                                           unsigned nb);

}  // namespace e2e

#endif  // E2EBENCH_CHECKER_H
