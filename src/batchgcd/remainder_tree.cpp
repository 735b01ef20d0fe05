#include "batchgcd/remainder_tree.hpp"

#include <stdexcept>

#include "obs/prof_stack.hpp"

namespace weakkeys::batchgcd {

using bn::BigInt;

namespace {

/// Fraction bits carried at a node of `node_bits` bits for exponent e.
std::size_t precision(std::size_t node_bits, unsigned e) {
  return e * node_bits + kFractionGuardBits;
}

/// y_root = frac(x / P^e) with precision(bits(P), e) fraction bits, as an
/// integer, from J = floor(2^(2b+64) / P) for the b-bit root P:
///   the diagonal x = P, e = 2:  frac(P / P^2) = 1 / P  ~ J / 2^(2b+64);
///   e = 1, r = x mod P:         frac(x / P)   = r / P  ~ r * J / 2^(2b+64).
/// Any other x with e = 2 (test and benchmark inputs) takes one exact
/// division.
BigInt root_fraction(const ProductTree& tree, const BigInt& x, unsigned e) {
  const BigInt& p = tree.root();
  const std::size_t b = p.bit_length();
  const BigInt& j = tree.root_reciprocal();
  if (e == 1) return bn::mul_window(x % p, j, b, precision(b, 1));
  if (x == p) return j;
  const BigInt square = p.squared();
  return ((x % square) << precision(b, 2)) / square;
}

/// round(y * m / 2^prec) mod m, for a leaf fraction y < 2^prec.
BigInt leaf_residue(const BigInt& y, std::size_t prec, const BigInt& m) {
  BigInt v =
      (bn::mul_window(y, m, prec - 1, m.bit_length() + 2) + BigInt(1)) >> 1;
  if (v == m) v = BigInt{};
  return v;
}

/// Walks `tree` top-down from the root fraction y_root ~ frac(x / P^e) and
/// returns residue(N_i, y_i, precision) for every leaf N_i, where y_i ~
/// frac(x / N_i^e).
///
/// Levels stream through the store one at a time (load, walk, release):
/// over the in-RAM backend the load is a free aliasing handle, over the
/// spill backend it is a verified read with at most the configured window
/// resident — only the current and next fraction rows plus one product
/// level are ever in memory.
template <typename Residue>
std::vector<BigInt> descend(const ProductTree& tree, BigInt y_root,
                            unsigned e, const Residue& residue) {
  LevelStore& store = tree.store();
  const std::size_t level_count = store.level_stats().size();
  std::vector<BigInt> y;
  y.push_back(std::move(y_root));
  std::vector<std::size_t> prec = {precision(tree.root().bit_length(), e)};
  LevelHandle leaves = level_count == 1 ? store.load_level(0) : nullptr;
  for (std::size_t li = level_count - 1; li-- > 0;) {
    const LevelHandle level = store.load_level(li);
    const Level& nodes = *level;
    std::vector<BigInt> next(nodes.size());
    std::vector<std::size_t> next_prec(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); i += 2) {
      const std::size_t parent = i / 2;
      if (i + 1 == nodes.size()) {
        // An odd trailing node was carried up unchanged: same node, same
        // fraction.
        next[i] = std::move(y[parent]);
        next_prec[i] = prec[parent];
        continue;
      }
      for (std::size_t c = i; c < i + 2; ++c) {
        const BigInt& sibling = nodes[c ^ 1];
        next_prec[c] = precision(nodes[c].bit_length(), e);
        next[c] = bn::mul_window(y[parent],
                                 e == 2 ? sibling.squared() : sibling,
                                 prec[parent] - next_prec[c], next_prec[c]);
      }
    }
    if (li == 0) {
      leaves = level;
    } else {
      store.release_level(li);
    }
    y = std::move(next);
    prec = std::move(next_prec);
  }
  std::vector<BigInt> out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    out[i] = residue((*leaves)[i], y[i], prec[i]);
  }
  store.release_level(0);
  return out;
}

template <typename Residue>
std::vector<BigInt> walk(const ProductTree& tree, const BigInt& x, unsigned e,
                         const Residue& residue) {
  obs::prof::Frame frame("batchgcd.remainder_tree");
  if (x.is_negative()) {
    throw std::invalid_argument("remainder tree input must be non-negative");
  }
  if (tree.level_count() == 0) return {};
  return descend(tree, root_fraction(tree, x, e), e, residue);
}

}  // namespace

std::vector<BigInt> remainder_tree_squares(const ProductTree& tree,
                                           const BigInt& x) {
  return walk(tree, x, 2,
              [](const BigInt& n, const BigInt& y, std::size_t prec) {
                return leaf_residue(y, prec, n.squared());
              });
}

std::vector<BigInt> remainder_task_residues(const ProductTree& tree,
                                            const BigInt& x, bool diagonal) {
  // Diagonal: frac(x / N^2) * N = (x mod N^2) / N = (x / N) mod N, exact
  // because N divides x.
  return walk(tree, x, diagonal ? 2 : 1,
              [](const BigInt& n, const BigInt& y, std::size_t prec) {
                return leaf_residue(y, prec, n);
              });
}

}  // namespace weakkeys::batchgcd
