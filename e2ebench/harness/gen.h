// Seeded input generators of the benchmark. They depend on nothing in the
// program, so the inputs stay the same when program code changes: the same
// seed gives byte-identical text on every platform (SplitMix64, no
// implementation-defined distributions).
#ifndef E2EBENCH_GEN_H
#define E2EBENCH_GEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// SplitMix64 with a few bounded helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  unsigned below(unsigned n) { return static_cast<unsigned>(next() % n); }
  bool coin() { return (next() >> 63) != 0; }

 private:
  std::uint64_t state_;
};

/// Mixes several integers into one seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b,
                                     std::uint64_t c = 0);

/// Signed disjoint-pair cover over 2p inputs in the split order:
/// f = OR_i (l(x_i) AND l(y_i)), with x_i at column i, y_i at column p+i
/// and each literal's polarity drawn from `seed`. Its BDD is exponential in
/// p under the split order and linear once each pair is adjacent.
[[nodiscard]] std::string pairs_pla(unsigned p, std::uint64_t seed);

/// Totally symmetric function of n inputs, on when the number of inputs
/// equal to their seeded polarity lies in `weights`, as one cube per
/// on-set minterm.
[[nodiscard]] std::string symmetric_pla(unsigned n, const std::vector<unsigned>& weights,
                                        std::uint64_t seed);

/// Random control-logic cover (espresso type fd): `cubes` rows over
/// `inputs` columns with up to max_lits literals each (2..max_lits draws of
/// a column and polarity), each row driving one to three outputs; one row
/// in eight marks don't-cares instead of on-set.
[[nodiscard]] std::string control_pla(unsigned inputs, unsigned outputs, unsigned cubes,
                                      unsigned max_lits, std::uint64_t seed);

/// Array multiplier (AND partial products summed by ripple-carry adders)
/// as BLIF of two-input gates. Inputs a0,b0,a1,b1,... interleaved, outputs
/// p0..p{na+nb-1} LSB first. The seed shuffles the order of the gate
/// definitions and names the internal signals; the circuit is the same.
[[nodiscard]] std::string multiplier_blif(unsigned na, unsigned nb, std::uint64_t seed);

}  // namespace e2e

#endif  // E2EBENCH_GEN_H
