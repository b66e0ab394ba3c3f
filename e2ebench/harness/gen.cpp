#include "gen.h"

#include <algorithm>
#include <bit>
#include <set>
#include <sstream>
#include <stdexcept>

namespace e2e {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  const std::uint64_t h = Rng(a).next();
  return Rng(Rng(h ^ b).next() ^ c).next();
}

namespace {

void pla_header(std::ostringstream& out, unsigned inputs, unsigned outputs,
                std::size_t rows) {
  out << ".i " << inputs << "\n.o " << outputs << "\n.ilb";
  for (unsigned i = 0; i < inputs; ++i) out << " x" << i;
  out << "\n.ob";
  for (unsigned o = 0; o < outputs; ++o) out << " f" << o;
  out << "\n.type fd\n.p " << rows << "\n";
}

}  // namespace

std::string pairs_pla(unsigned p, std::uint64_t seed) {
  Rng rng(seed);
  std::ostringstream out;
  pla_header(out, 2 * p, 1, p);
  for (unsigned i = 0; i < p; ++i) {
    std::string row(2 * p, '-');
    row[i] = rng.coin() ? '1' : '0';
    row[p + i] = rng.coin() ? '1' : '0';
    out << row << " 1\n";
  }
  out << ".e\n";
  return out.str();
}

std::string symmetric_pla(unsigned n, const std::vector<unsigned>& weights,
                          std::uint64_t seed) {
  if (n > 16) throw std::invalid_argument("symmetric_pla: at most 16 inputs");
  Rng rng(seed);
  std::vector<bool> positive(n);
  for (unsigned i = 0; i < n; ++i) positive[i] = rng.coin();
  std::vector<std::string> rows;
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    const unsigned w = static_cast<unsigned>(std::popcount(m));
    if (std::find(weights.begin(), weights.end(), w) == weights.end()) continue;
    std::string row(n, '0');
    for (unsigned i = 0; i < n; ++i) {
      const bool bit = ((m >> i) & 1u) != 0;
      row[i] = bit == positive[i] ? '1' : '0';
    }
    rows.push_back(std::move(row));
  }
  std::ostringstream out;
  pla_header(out, n, 1, rows.size());
  for (const std::string& row : rows) out << row << " 1\n";
  out << ".e\n";
  return out.str();
}

std::string control_pla(unsigned inputs, unsigned outputs, unsigned cubes,
                        unsigned max_lits, std::uint64_t seed) {
  Rng rng(seed);
  std::ostringstream out;
  pla_header(out, inputs, outputs, cubes);
  for (unsigned c = 0; c < cubes; ++c) {
    std::string in(inputs, '-');
    const unsigned lits = 2 + rng.below(max_lits - 1);
    for (unsigned k = 0; k < lits; ++k) {
      in[rng.below(inputs)] = rng.coin() ? '1' : '0';
    }
    std::string outs(outputs, '0');
    const char mark = rng.below(8) == 0 ? '-' : '1';
    const unsigned driven = 1 + rng.below(3);
    for (unsigned k = 0; k < driven; ++k) outs[rng.below(outputs)] = mark;
    out << in << ' ' << outs << "\n";
  }
  out << ".e\n";
  return out.str();
}

std::string multiplier_blif(unsigned na, unsigned nb, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> gates;  // one ".names" block each
  std::set<std::string> used;
  const auto fresh = [&] {
    for (;;) {
      std::string name = "w" + std::to_string(rng.next() % 1000000);
      if (used.insert(name).second) return name;
    }
  };
  const auto gate = [&](const std::string& a, const std::string& b, const char* cover) {
    std::string y = fresh();
    gates.push_back(".names " + a + ' ' + b + ' ' + y + '\n' + cover);
    return y;
  };
  const auto and2 = [&](const std::string& a, const std::string& b) {
    return gate(a, b, "11 1\n");
  };
  const auto xor2 = [&](const std::string& a, const std::string& b) {
    return gate(a, b, "10 1\n01 1\n");
  };
  const auto or2 = [&](const std::string& a, const std::string& b) {
    return gate(a, b, "1- 1\n-1 1\n");
  };
  const auto a = [](unsigned i) { return "a" + std::to_string(i); };
  const auto b = [](unsigned j) { return "b" + std::to_string(j); };

  // Row 0 of partial products; acc[k] carries weight k+1 after each row.
  std::vector<std::string> product;
  std::vector<std::string> acc;
  for (unsigned i = 0; i < na; ++i) acc.push_back(and2(a(i), b(0)));
  product.push_back(acc.front());
  acc.erase(acc.begin());
  for (unsigned j = 1; j < nb; ++j) {
    std::vector<std::string> next;
    std::string carry;
    for (unsigned i = 0; i < na; ++i) {
      const std::string pp = and2(a(i), b(j));
      if (i >= acc.size()) {
        if (carry.empty()) {
          next.push_back(pp);
        } else {
          next.push_back(xor2(pp, carry));
          carry = and2(pp, carry);
        }
        continue;
      }
      if (carry.empty()) {
        next.push_back(xor2(pp, acc[i]));
        carry = and2(pp, acc[i]);
        continue;
      }
      const std::string half = xor2(pp, acc[i]);
      next.push_back(xor2(half, carry));
      carry = or2(and2(pp, acc[i]), and2(half, carry));
    }
    next.push_back(carry);
    product.push_back(next.front());
    next.erase(next.begin());
    acc = std::move(next);
  }
  for (const std::string& s : acc) product.push_back(s);

  for (std::size_t k = gates.size(); k > 1; --k) {
    std::swap(gates[k - 1], gates[rng.below(static_cast<unsigned>(k))]);
  }
  std::ostringstream out;
  out << ".model mul" << na << 'x' << nb << "\n.inputs";
  for (unsigned i = 0; i < std::max(na, nb); ++i) {
    if (i < na) out << ' ' << a(i);
    if (i < nb) out << ' ' << b(i);
  }
  out << "\n.outputs";
  for (std::size_t k = 0; k < product.size(); ++k) out << " p" << k;
  out << '\n';
  for (const std::string& g : gates) out << g;
  for (std::size_t k = 0; k < product.size(); ++k) {
    out << ".names " << product[k] << " p" << k << "\n1 1\n";
  }
  out << ".end\n";
  return out.str();
}

}  // namespace e2e
