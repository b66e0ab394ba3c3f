#include "checker.h"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "gen.h"

namespace e2e {

namespace {

using Word = std::uint64_t;
constexpr unsigned kBlockWords = 64;  // points per block: 64 * 64
constexpr unsigned kBlockPoints = kBlockWords * 64;

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  for (std::string t; in >> t;) out.push_back(t);
  return out;
}

// Logical lines with comments stripped, continuations joined and blank
// lines dropped.
std::vector<std::string> logical_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string pending;
  for (std::string raw; std::getline(in, raw);) {
    if (const auto hash = raw.find('#'); hash != std::string::npos) raw.erase(hash);
    while (!raw.empty() && (raw.back() == '\r' || raw.back() == ' ')) raw.pop_back();
    if (!raw.empty() && raw.back() == '\\') {
      raw.pop_back();
      pending += raw + ' ';
      continue;
    }
    pending += raw;
    if (pending.find_first_not_of(" \t") != std::string::npos) lines.push_back(pending);
    pending.clear();
  }
  if (pending.find_first_not_of(" \t") != std::string::npos) lines.push_back(pending);
  return lines;
}

// ---------------------------------------------------------------------------
// BLIF netlist, compiled to a topologically ordered list of SOP nodes.
// ---------------------------------------------------------------------------

class Circuit {
 public:
  explicit Circuit(const std::string& blif);

  [[nodiscard]] const std::vector<std::string>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<std::string>& outputs() const { return outputs_; }

  /// `in` holds W words per input; fills W words per output.
  void simulate(const std::vector<Word>& in, unsigned W, std::vector<Word>& out) const;

 private:
  struct Node {
    std::vector<unsigned> fanins;
    std::vector<std::string> planes;  // one char per fanin: 0, 1 or -
    bool offset_cover = false;        // rows list the off-set
  };

  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;
  std::vector<Node> nodes_;          // signal i >= inputs_.size() is nodes_[i - n]
  std::vector<unsigned> order_;      // node evaluation order
  std::vector<unsigned> output_sig_;
};

Circuit::Circuit(const std::string& blif) {
  struct RawNode {
    std::vector<std::string> fanins;
    std::vector<std::string> planes;
    std::vector<char> values;
  };
  std::map<std::string, RawNode> raw;
  std::vector<std::string> defined;  // definition order, for error messages
  RawNode* current = nullptr;
  bool ended = false;
  for (const std::string& line : logical_lines(blif)) {
    if (ended) break;
    const std::vector<std::string> t = tokens_of(line);
    if (t[0][0] == '.') {
      current = nullptr;
      if (t[0] == ".model") continue;
      if (t[0] == ".inputs") {
        inputs_.insert(inputs_.end(), t.begin() + 1, t.end());
      } else if (t[0] == ".outputs") {
        outputs_.insert(outputs_.end(), t.begin() + 1, t.end());
      } else if (t[0] == ".names") {
        if (t.size() < 2) throw std::runtime_error("BLIF: .names without a signal");
        const std::string& y = t.back();
        if (raw.count(y) != 0) throw std::runtime_error("BLIF: " + y + " defined twice");
        current = &raw[y];
        current->fanins.assign(t.begin() + 1, t.end() - 1);
        defined.push_back(y);
      } else if (t[0] == ".end") {
        ended = true;
      } else {
        throw std::runtime_error("BLIF: unsupported directive " + t[0]);
      }
      continue;
    }
    if (current == nullptr) throw std::runtime_error("BLIF: cover row outside .names");
    std::string plane;
    std::string value;
    if (current->fanins.empty()) {
      if (t.size() != 1) throw std::runtime_error("BLIF: bad constant row");
      value = t[0];
    } else {
      if (t.size() != 2) throw std::runtime_error("BLIF: bad cover row '" + line + "'");
      plane = t[0];
      value = t[1];
    }
    if (plane.size() != current->fanins.size() || value.size() != 1 ||
        (value[0] != '0' && value[0] != '1') ||
        plane.find_first_not_of("01-") != std::string::npos) {
      throw std::runtime_error("BLIF: bad cover row '" + line + "'");
    }
    current->planes.push_back(plane);
    current->values.push_back(value[0]);
  }

  std::map<std::string, unsigned> sig;
  for (unsigned i = 0; i < inputs_.size(); ++i) {
    if (!sig.emplace(inputs_[i], i).second) {
      throw std::runtime_error("BLIF: input " + inputs_[i] + " listed twice");
    }
  }
  for (const std::string& y : defined) {
    if (sig.count(y) != 0) throw std::runtime_error("BLIF: input " + y + " redefined");
    sig.emplace(y, static_cast<unsigned>(inputs_.size() + nodes_.size()));
    nodes_.emplace_back();
  }
  for (const std::string& y : defined) {
    const RawNode& r = raw[y];
    Node& n = nodes_[sig[y] - inputs_.size()];
    for (const std::string& f : r.fanins) {
      const auto it = sig.find(f);
      if (it == sig.end()) throw std::runtime_error("BLIF: undriven signal " + f);
      n.fanins.push_back(it->second);
    }
    n.planes = r.planes;
    if (!r.values.empty()) {
      n.offset_cover = r.values.front() == '0';
      for (const char v : r.values) {
        if ((v == '0') != n.offset_cover) {
          throw std::runtime_error("BLIF: " + y + " mixes on-set and off-set rows");
        }
      }
    }
  }
  for (const std::string& o : outputs_) {
    const auto it = sig.find(o);
    if (it == sig.end()) throw std::runtime_error("BLIF: undriven output " + o);
    output_sig_.push_back(it->second);
  }

  // Depth-first topological order from the outputs; a back edge is a cycle.
  const unsigned n_in = static_cast<unsigned>(inputs_.size());
  std::vector<char> state(nodes_.size(), 0);  // 0 new, 1 open, 2 done
  std::function<void(unsigned)> visit = [&](unsigned s) {
    if (s < n_in) return;
    const unsigned k = s - n_in;
    if (state[k] == 2) return;
    if (state[k] == 1) throw std::runtime_error("BLIF: combinational cycle");
    state[k] = 1;
    for (const unsigned f : nodes_[k].fanins) visit(f);
    state[k] = 2;
    order_.push_back(k);
  };
  for (const unsigned s : output_sig_) visit(s);
}

void Circuit::simulate(const std::vector<Word>& in, unsigned W,
                       std::vector<Word>& out) const {
  const std::size_t n_in = inputs_.size();
  std::vector<Word> val((n_in + nodes_.size()) * W, 0);
  std::copy(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(n_in * W), val.begin());
  std::vector<Word> term(W);
  for (const unsigned k : order_) {
    const Node& n = nodes_[k];
    Word* y = &val[(n_in + k) * W];
    for (const std::string& plane : n.planes) {
      std::fill(term.begin(), term.end(), ~Word{0});
      for (std::size_t j = 0; j < plane.size(); ++j) {
        if (plane[j] == '-') continue;
        const Word* x = &val[n.fanins[j] * W];
        const Word flip = plane[j] == '0' ? ~Word{0} : 0;
        for (unsigned w = 0; w < W; ++w) term[w] &= x[w] ^ flip;
      }
      for (unsigned w = 0; w < W; ++w) y[w] |= term[w];
    }
    if (n.offset_cover) {
      for (unsigned w = 0; w < W; ++w) y[w] = ~y[w];
    }
  }
  out.assign(output_sig_.size() * W, 0);
  for (std::size_t o = 0; o < output_sig_.size(); ++o) {
    std::copy_n(&val[output_sig_[o] * W], W, &out[o * W]);
  }
}

// ---------------------------------------------------------------------------
// PLA specification.
// ---------------------------------------------------------------------------

struct Pla {
  unsigned ni = 0;
  unsigned no = 0;
  std::vector<std::string> ilb;
  std::vector<std::string> ob;
  char type = 'd';  // f, d (fd) or r (fr)
  std::vector<std::string> in_rows;
  std::vector<std::string> out_rows;
};

Pla parse_pla(const std::string& text) {
  Pla p;
  bool have_i = false;
  bool have_o = false;
  for (const std::string& line : logical_lines(text)) {
    const std::vector<std::string> t = tokens_of(line);
    if (t[0][0] == '.') {
      if (t[0] == ".i" && t.size() == 2) {
        p.ni = static_cast<unsigned>(std::stoul(t[1]));
        have_i = true;
      } else if (t[0] == ".o" && t.size() == 2) {
        p.no = static_cast<unsigned>(std::stoul(t[1]));
        have_o = true;
      } else if (t[0] == ".ilb") {
        p.ilb.assign(t.begin() + 1, t.end());
      } else if (t[0] == ".ob") {
        p.ob.assign(t.begin() + 1, t.end());
      } else if (t[0] == ".type" && t.size() == 2) {
        if (t[1] == "f") {
          p.type = 'f';
        } else if (t[1] == "fd") {
          p.type = 'd';
        } else if (t[1] == "fr") {
          p.type = 'r';
        } else {
          throw std::runtime_error("PLA: unsupported .type " + t[1]);
        }
      } else if (t[0] == ".p") {
        continue;
      } else if (t[0] == ".e" || t[0] == ".end") {
        break;
      } else {
        throw std::runtime_error("PLA: unsupported directive " + t[0]);
      }
      continue;
    }
    if (!have_i || !have_o) throw std::runtime_error("PLA: cube before .i/.o");
    std::string all;
    for (const std::string& s : t) all += s;
    if (all.size() != p.ni + p.no) throw std::runtime_error("PLA: bad row '" + line + "'");
    std::string in = all.substr(0, p.ni);
    std::string out = all.substr(p.ni);
    if (in.find_first_not_of("01-") != std::string::npos ||
        out.find_first_not_of("01-~") != std::string::npos) {
      throw std::runtime_error("PLA: bad row '" + line + "'");
    }
    p.in_rows.push_back(std::move(in));
    p.out_rows.push_back(std::move(out));
  }
  if (!have_i || !have_o) throw std::runtime_error("PLA: missing .i or .o");
  if ((!p.ilb.empty() && p.ilb.size() != p.ni) || (!p.ob.empty() && p.ob.size() != p.no)) {
    throw std::runtime_error("PLA: .ilb/.ob length does not match .i/.o");
  }
  return p;
}

// Position in `have` of every name in `want`, or identity when `want` is
// empty; throws when the two lists do not describe the same signals.
std::vector<unsigned> match_names(const std::vector<std::string>& want, std::size_t count,
                                  const std::vector<std::string>& have, const char* what) {
  if (have.size() != count) {
    throw std::runtime_error(std::string("netlist has ") + std::to_string(have.size()) +
                             ' ' + what + ", specification " + std::to_string(count));
  }
  std::vector<unsigned> pos(count);
  for (unsigned i = 0; i < count; ++i) {
    if (want.empty()) {
      pos[i] = i;
      continue;
    }
    const auto it = std::find(have.begin(), have.end(), want[i]);
    if (it == have.end()) {
      throw std::runtime_error(std::string("netlist lacks ") + what + ' ' + want[i]);
    }
    pos[i] = static_cast<unsigned>(it - have.begin());
  }
  return pos;
}

// Fills W words per PLA column for points base .. base + 64W - 1 of the
// exhaustive enumeration (column i = bit i of the point index).
void exhaustive_block(unsigned ni, std::uint64_t base, unsigned W, std::vector<Word>& cols) {
  static constexpr Word kLow[6] = {0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL,
                                   0xF0F0F0F0F0F0F0F0ULL, 0xFF00FF00FF00FF00ULL,
                                   0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  cols.assign(std::size_t{ni} * W, 0);
  for (unsigned i = 0; i < ni; ++i) {
    for (unsigned w = 0; w < W; ++w) {
      const std::uint64_t point0 = base + std::uint64_t{w} * 64;
      cols[std::size_t{i} * W + w] =
          i < 6 ? kLow[i] : (((point0 >> i) & 1u) != 0 ? ~Word{0} : 0);
    }
  }
}

// Packs explicit points (one '0'/'1' string each) into W words per column.
void packed_block(const std::vector<std::string>& points, std::size_t first, unsigned ni,
                  unsigned W, std::vector<Word>& cols) {
  cols.assign(std::size_t{ni} * W, 0);
  for (std::size_t k = first; k < std::min(points.size(), first + std::size_t{W} * 64); ++k) {
    const std::size_t bit = k - first;
    for (unsigned i = 0; i < ni; ++i) {
      if (points[k][i] == '1') cols[std::size_t{i} * W + bit / 64] |= Word{1} << (bit % 64);
    }
  }
}

std::string point_text(const std::vector<Word>& cols, unsigned ni, unsigned W, unsigned bit) {
  std::string s(ni, '0');
  for (unsigned i = 0; i < ni; ++i) {
    if (((cols[std::size_t{i} * W + bit / 64] >> (bit % 64)) & 1u) != 0) s[i] = '1';
  }
  return s;
}

// Checks one block of points: `cols` are the PLA columns, `valid` the mask
// of live points per word. Returns an empty string or the first violation.
std::string check_block(const Pla& p, const Circuit& c, const std::vector<unsigned>& in_pos,
                        const std::vector<unsigned>& out_pos, const std::vector<Word>& cols,
                        unsigned W, const std::vector<Word>& valid) {
  std::vector<Word> net_in(c.inputs().size() * std::size_t{W}, 0);
  for (unsigned i = 0; i < p.ni; ++i) {
    std::copy_n(&cols[std::size_t{i} * W], W, &net_in[std::size_t{in_pos[i]} * W]);
  }
  std::vector<Word> net_out;
  c.simulate(net_in, W, net_out);

  std::vector<Word> on(std::size_t{p.no} * W, 0);
  std::vector<Word> dc(std::size_t{p.no} * W, 0);
  std::vector<Word> off(std::size_t{p.no} * W, 0);
  std::vector<Word> term(W);
  for (std::size_t r = 0; r < p.in_rows.size(); ++r) {
    std::fill(term.begin(), term.end(), ~Word{0});
    const std::string& in = p.in_rows[r];
    for (unsigned i = 0; i < p.ni; ++i) {
      if (in[i] == '-') continue;
      const Word flip = in[i] == '0' ? ~Word{0} : 0;
      for (unsigned w = 0; w < W; ++w) term[w] &= cols[std::size_t{i} * W + w] ^ flip;
    }
    const std::string& out = p.out_rows[r];
    for (unsigned o = 0; o < p.no; ++o) {
      std::vector<Word>* plane = out[o] == '1' ? &on : out[o] == '-' ? &dc
                                                   : out[o] == '0' ? &off : nullptr;
      if (plane == nullptr) continue;
      for (unsigned w = 0; w < W; ++w) (*plane)[std::size_t{o} * W + w] |= term[w];
    }
  }
  for (unsigned o = 0; o < p.no; ++o) {
    for (unsigned w = 0; w < W; ++w) {
      const std::size_t k = std::size_t{o} * W + w;
      Word q = on[k];
      Word r = ~on[k];
      if (p.type == 'd') {
        q = on[k] & ~dc[k];
        r = ~(on[k] | dc[k]);
      } else if (p.type == 'r') {
        q = on[k] & ~off[k];
        r = off[k];
      }
      const Word f = net_out[std::size_t{out_pos[o]} * W + w];
      const Word bad = ((q & ~f) | (r & f)) & valid[w];
      if (bad != 0) {
        const unsigned bit = w * 64 + static_cast<unsigned>(__builtin_ctzll(bad));
        const bool low = ((q & ~f) & valid[w]) != 0;
        return "output " + (p.ob.empty() ? std::to_string(o) : p.ob[o]) + " is " +
               (low ? "0" : "1") + " at minterm " + point_text(cols, p.ni, W, bit) +
               " where the specification requires " + (low ? "1" : "0");
      }
    }
  }
  return {};
}

}  // namespace

CheckResult check_against_pla(const std::string& blif, const std::string& pla_text,
                              std::uint64_t seed) {
  try {
    const Pla p = parse_pla(pla_text);
    const Circuit c(blif);
    const std::vector<unsigned> in_pos = match_names(p.ilb, p.ni, c.inputs(), "inputs");
    const std::vector<unsigned> out_pos = match_names(p.ob, p.no, c.outputs(), "outputs");
    std::vector<Word> cols;
    if (p.ni <= kExhaustiveInputs) {
      const std::uint64_t total = std::uint64_t{1} << p.ni;
      for (std::uint64_t base = 0; base < total; base += kBlockPoints) {
        const std::uint64_t n = std::min<std::uint64_t>(kBlockPoints, total - base);
        const unsigned W = static_cast<unsigned>((n + 63) / 64);
        std::vector<Word> valid(W, ~Word{0});
        if (n < 64) valid[0] = (Word{1} << n) - 1;
        exhaustive_block(p.ni, base, W, cols);
        if (std::string why = check_block(p, c, in_pos, out_pos, cols, W, valid);
            !why.empty()) {
          return {false, why};
        }
      }
      return {true, {}};
    }
    std::vector<std::string> points;
    for (const std::string& in : p.in_rows) {
      for (const char fill : {'0', '1'}) {
        std::string pt = in;
        std::replace(pt.begin(), pt.end(), '-', fill);
        points.push_back(std::move(pt));
      }
    }
    Rng rng(seed);
    for (unsigned k = 0; k < kSampledPoints; ++k) {
      std::string pt(p.ni, '0');
      for (char& ch : pt) ch = rng.coin() ? '1' : '0';
      points.push_back(std::move(pt));
    }
    for (std::size_t first = 0; first < points.size(); first += kBlockPoints) {
      const std::size_t n = std::min<std::size_t>(kBlockPoints, points.size() - first);
      const unsigned W = static_cast<unsigned>((n + 63) / 64);
      std::vector<Word> valid(W, ~Word{0});
      if (n % 64 != 0) valid[W - 1] = (Word{1} << (n % 64)) - 1;
      packed_block(points, first, p.ni, W, cols);
      if (std::string why = check_block(p, c, in_pos, out_pos, cols, W, valid);
          !why.empty()) {
        return {false, why};
      }
    }
    return {true, {}};
  } catch (const std::exception& e) {
    return {false, e.what()};
  }
}

CheckResult check_multiplier(const std::string& blif, unsigned na, unsigned nb) {
  try {
    const Circuit c(blif);
    std::vector<std::string> in_names;
    for (unsigned i = 0; i < na; ++i) in_names.push_back("a" + std::to_string(i));
    for (unsigned j = 0; j < nb; ++j) in_names.push_back("b" + std::to_string(j));
    std::vector<std::string> out_names;
    for (unsigned k = 0; k < na + nb; ++k) out_names.push_back("p" + std::to_string(k));
    const std::vector<unsigned> in_pos =
        match_names(in_names, in_names.size(), c.inputs(), "inputs");
    const std::vector<unsigned> out_pos =
        match_names(out_names, out_names.size(), c.outputs(), "outputs");

    const unsigned n = na + nb;
    const std::uint64_t total = std::uint64_t{1} << n;
    std::vector<Word> cols;
    std::vector<Word> net_in;
    std::vector<Word> net_out;
    for (std::uint64_t base = 0; base < total; base += kBlockPoints) {
      const std::uint64_t count = std::min<std::uint64_t>(kBlockPoints, total - base);
      const unsigned W = static_cast<unsigned>((count + 63) / 64);
      exhaustive_block(n, base, W, cols);
      net_in.assign(std::size_t{n} * W, 0);
      for (unsigned i = 0; i < n; ++i) {
        std::copy_n(&cols[std::size_t{i} * W], W, &net_in[std::size_t{in_pos[i]} * W]);
      }
      c.simulate(net_in, W, net_out);
      for (std::uint64_t k = 0; k < count; ++k) {
        const std::uint64_t point = base + k;
        const std::uint64_t a = point & ((std::uint64_t{1} << na) - 1);
        const std::uint64_t b = point >> na;
        const std::uint64_t prod = a * b;
        for (unsigned bit = 0; bit < n; ++bit) {
          const Word w = net_out[std::size_t{out_pos[bit]} * W + k / 64];
          const bool got = ((w >> (k % 64)) & 1u) != 0;
          if (got != (((prod >> bit) & 1u) != 0)) {
            return {false, "p" + std::to_string(bit) + " wrong for " + std::to_string(a) +
                               " * " + std::to_string(b)};
          }
        }
      }
    }
    return {true, {}};
  } catch (const std::exception& e) {
    return {false, e.what()};
  }
}

}  // namespace e2e
