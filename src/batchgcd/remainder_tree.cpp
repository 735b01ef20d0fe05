#include "batchgcd/remainder_tree.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "bn/detail.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::batchgcd {

using bn::BigInt;
using bn::Limb;
using Ops = bn::BigIntOps;

namespace {

/// Fraction bits carried at a node of `node_bits` bits.
std::size_t precision(std::size_t node_bits) {
  return 2 * node_bits + kFractionGuardBits;
}

/// dst[0, dn) = floor(src[0, sn) / 2^shift) mod 2^(64 dn).
void shift_right(Limb* dst, std::size_t dn, const Limb* src, std::size_t sn,
                 std::size_t shift) {
  const std::size_t limbs = shift / 64;
  const unsigned bits = shift % 64;
  for (std::size_t i = 0; i < dn; ++i) {
    const std::size_t j = i + limbs;
    Limb v = j < sn ? src[j] >> bits : 0;
    if (bits != 0 && j + 1 < sn) v |= src[j + 1] << (64 - bits);
    dst[i] = v;
  }
}

/// A row's root fraction carries this many zero limbs below its 2b + 64
/// fraction bits, and as many more bits of precision: the same value, but
/// the first descent step's band then lies inside the fraction's limbs, so
/// bn::mul_window reads it in place instead of copying 2n limbs.
constexpr std::size_t kRootPadLimbs = 2;

/// Barrett's estimate is never above the quotient and at most two below it
/// for a dividend below 2^(2b) (HAC 14.42 in base 2).
constexpr int kBarrettMaxRaise = 2;

/// Root-size arithmetic modulo the b-bit root P of one subset tree, on limb
/// spans: one scratch block plus the product buffer that becomes the root
/// fraction. Every reduction is a Barrett step through
/// mu = J >> 64 = floor(2^(2b) / P), the limbs of the tree's cached root
/// reciprocal J above its lowest, so nothing here computes a reciprocal.
/// Products whose answer is known to lie below B^L - 1 for the wrap length
/// L >= n + 1 (a Barrett remainder, R0) are wrapped products mod B^L - 1,
/// half the transform of the full product (DESIGN.md §5p).
class RootArith {
 public:
  explicit RootArith(const ProductTree& tree)
      : root_(tree.root()),
        p_(Ops::limbs(root_).data()),
        j_(Ops::limbs(tree.root_reciprocal()).data()),
        n_(root_.limb_count()),
        jn_(tree.root_reciprocal().limb_count()),
        b_(root_.bit_length()),
        wrap_(bn::detail::wrap_length(n_ + 1)),
        w_(kRootPadLimbs + jn_ + n_) {
    using namespace bn::detail;
    const std::size_t scratch = std::max(
        {mul_scratch_limbs(n_, n_), mul_scratch_limbs(n_ + 1, jn_ - 1),
         mul_scratch_limbs(jn_, n_),
         mul_wrapped_scratch_limbs(wrap_, jn_, n_, /*kept=*/false),
         mul_wrapped_scratch_limbs(wrap_, n_ + 1, n_, /*kept=*/false)});
    // q (n + 1) | low (L) | acc (n) | scratch.
    block_ = std::make_unique_for_overwrite<Limb[]>(2 * n_ + 1 + wrap_ +
                                                    scratch);
    q_ = block_.get();
    low_ = q_ + n_ + 1;
    acc_ = low_ + wrap_;
    scratch_ = acc_ + n_;
  }

  /// acc = prod over `others` of (P_b mod P) mod P; false when it is zero.
  bool multiply_others(std::span<const BigInt* const> others) {
    load(acc_, root_ > BigInt(1) ? BigInt(1) : BigInt{});
    bool first = true;
    for (const BigInt* other : others) {
      if (!residue(*other)) {
        load(acc_, BigInt{});
        return false;
      }
      if (first) {
        std::copy(low_, low_ + n_, acc_);
        first = false;
        continue;
      }
      bn::detail::mul_into(w_.data(), acc_, n_, low_, n_, scratch_);
      reduce();
      std::copy(low_, low_ + n_, acc_);
    }
    return !std::all_of(acc_, acc_ + n_, [](Limb l) { return l == 0; });
  }

  /// acc = x, for 0 <= x < P.
  void set(const BigInt& x) { load(acc_, x); }

  /// y * B^kRootPadLimbs for y = floor(acc * 2^(2b+64) / P)
  /// = acc * J + floor(acc * R0 / P), R0 = 2^(2b+64) - J * P, 0 <= R0 < P.
  /// Takes the product buffer.
  [[nodiscard]] BigInt fraction() && {
    using namespace bn::detail;
    Limb* w = w_.data();
    // R0 < P < B^L - 1, so it is 2^(2b+64) - J * P mod B^L - 1.
    mul_wrapped_into(w, wrap_, {j_, jn_}, {p_, n_}, scratch_);
    sub_from_power_wrapped(w, wrap_, (2 * b_ + 64) % (64 * wrap_));
    expect_below(w, n_, "row fraction: R0 past P");
    std::copy(w, w + n_, low_);
    mul_into(w, acc_, n_, low_, n_, scratch_);
    reduce();  // q = floor(acc * R0 / P)
    Limb* y = w + kRootPadLimbs;
    mul_into(y, j_, jn_, acc_, n_, scratch_);
    add_1(y + n_ + 1, jn_ - 1, add_n(y, y, q_, n_ + 1));
    std::fill(w, y, Limb{0});
    return Ops::make(std::move(w_), 1);
  }

 private:
  /// dst[0, n) = x, zero-padded; x < P.
  void load(Limb* dst, const BigInt& x) const {
    const std::vector<Limb>& limbs = Ops::limbs(x);
    std::copy(limbs.begin(), limbs.end(), dst);
    std::fill(dst + limbs.size(), dst + n_, Limb{0});
  }

  /// low[0, n) = x mod P; false when that is zero. The products of
  /// near-equal subsets differ by a few bits, so the quotient usually fits
  /// one limb: it is estimated from the top bits, off by at most one, and
  /// the remainder corrected in place. Anything else takes a Knuth division.
  bool residue(const BigInt& x) {
    using namespace bn::detail;
    const std::vector<Limb>& xl = Ops::limbs(x);
    const std::size_t xbits = x.bit_length();
    if (xbits < b_ || b_ <= 64 || xbits > b_ + 62) {
      load(low_, xbits < b_ ? x : x % root_);
    } else {
      // With s = b - 64, t = floor(x / P) lies within one of
      // floor(floor(x / 2^s) / floor(P / 2^s)), a quotient below 2^63.
      Limb xt[2];
      Limb pt = 0;
      shift_right(xt, 2, xl.data(), xl.size(), b_ - 64);
      shift_right(&pt, 1, p_, n_, b_ - 64);
      const Limb t = static_cast<Limb>(
          ((static_cast<unsigned __int128>(xt[1]) << 64) | xt[0]) / pt);
      // low[0, n] = x - t * P mod B^(n+1), whose magnitude is below 2P.
      Limb carry = 0;
      Limb borrow = 0;
      for (std::size_t i = 0; i <= n_; ++i) {
        const unsigned __int128 prod =
            static_cast<unsigned __int128>(t) * (i < n_ ? p_[i] : 0) + carry;
        carry = static_cast<Limb>(prod >> 64);
        const Limb lo = static_cast<Limb>(prod);
        const Limb xi = i < xl.size() ? xl[i] : 0;
        low_[i] = xi - lo - borrow;
        borrow = (xi < lo || (xi == lo && borrow != 0)) ? 1 : 0;
      }
      int steps = 0;
      while ((low_[n_] >> 63) != 0) {
        if (++steps > 1) throw std::logic_error("row residue: bad estimate");
        low_[n_] += add_n(low_, low_, p_, n_);
      }
      while (low_[n_] != 0 || cmp_n(low_, p_, n_) >= 0) {
        if (++steps > 1) throw std::logic_error("row residue: bad estimate");
        low_[n_] -= sub_n(low_, low_, p_, n_);
      }
    }
    return !std::all_of(low_, low_ + n_, [](Limb l) { return l == 0; });
  }

  /// Checks that the wrapped result v[0, L) lies below B^limbs: a larger
  /// one means a wrong product.
  void expect_below(const Limb* v, std::size_t limbs, const char* what) const {
    if (!std::all_of(v + limbs, v + wrap_, [](Limb l) { return l == 0; })) {
      throw std::logic_error(what);
    }
  }

  /// Divides w[0, 2n) (below P^2 < 2^(2b)) by P: q[0, n + 1) gets the
  /// quotient and low[0, n) the remainder. The estimate q never passes the
  /// quotient, so the remainder w - q * P lies in [0, 3P), below B^(n+1):
  /// it is w - q * P mod B^L - 1, from a wrapped q * P.
  void reduce() {
    using namespace bn::detail;
    Limb* w = w_.data();
    shift_right(q_, n_ + 1, w, 2 * n_, b_ - 1);
    fold_wrapped(low_, wrap_, w, 2 * n_);
    mul_into(w, q_, n_ + 1, j_ + 1, jn_ - 1, scratch_);  // q1 * mu
    shift_right(q_, n_ + 1, w, n_ + jn_, b_ + 1);
    mul_wrapped_into(w, wrap_, {q_, n_ + 1}, {p_, n_}, scratch_);
    sub_wrapped(low_, low_, w, wrap_);
    expect_below(low_, n_ + 1, "row Barrett step: remainder past 3P");
    int raised = 0;
    while (low_[n_] != 0 || cmp_n(low_, p_, n_) >= 0) {
      if (++raised > kBarrettMaxRaise) {
        throw std::logic_error("row Barrett step: correction past its bound");
      }
      low_[n_] -= sub_n(low_, low_, p_, n_);
      add_1(q_, n_ + 1, 1);
    }
  }

  const BigInt& root_;
  const Limb* p_;
  const Limb* j_;
  std::size_t n_;
  std::size_t jn_;
  std::size_t b_;
  std::size_t wrap_;     ///< L: wrapped products are mod B^L - 1
  std::vector<Limb> w_;  ///< products; the fraction's limbs at the end
  std::unique_ptr<Limb[]> block_;
  Limb* q_ = nullptr;
  Limb* low_ = nullptr;
  Limb* acc_ = nullptr;
  Limb* scratch_ = nullptr;
};

/// y_root = frac(x / P^2) with precision(bits(P)) fraction bits, as an
/// integer: J for x = P; one exact division for any other x (test and
/// benchmark inputs).
BigInt root_fraction(const ProductTree& tree, const BigInt& x) {
  const BigInt& p = tree.root();
  if (x == p) return tree.root_reciprocal();
  const BigInt square = p.squared();
  return ((x % square) << precision(p.bit_length())) / square;
}

/// round(y * m / 2^prec) mod m, for a leaf fraction y < 2^prec.
BigInt leaf_residue(const BigInt& y, std::size_t prec, const BigInt& m) {
  BigInt v =
      (bn::mul_window(y, m, prec - 1, m.bit_length() + 2) + BigInt(1)) >> 1;
  if (v == m) v = BigInt{};
  return v;
}

/// Walks `tree` top-down from the root fraction y_root ~ frac(x / P^2),
/// scaled by 2^root_prec, and returns residue(N_i, y_i, precision) for every
/// leaf N_i, where y_i ~ frac(x / N_i^2).
///
/// Levels stream through the store one at a time (load, walk, release):
/// over the in-RAM backend the load is a free aliasing handle, over the
/// spill backend it is a verified read with at most the configured window
/// resident — only the current and next fraction rows plus one product
/// level are ever in memory.
template <typename Residue>
std::vector<BigInt> descend(const ProductTree& tree, BigInt y_root,
                            std::size_t root_prec, const Residue& residue) {
  LevelStore& store = tree.store();
  const std::size_t level_count = store.level_stats().size();
  std::vector<BigInt> y;
  y.push_back(std::move(y_root));
  std::vector<std::size_t> prec = {root_prec};
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
      // Both children's windows of the parent's fraction, against each
      // other's square: the fraction's slice is transformed once for both.
      for (std::size_t c = i; c < i + 2; ++c) {
        next_prec[c] = precision(nodes[c].bit_length());
      }
      auto windows = bn::detail::mul_window_pair(
          y[parent], nodes[i + 1].squared(), prec[parent] - next_prec[i],
          next_prec[i], nodes[i].squared(), prec[parent] - next_prec[i + 1],
          next_prec[i + 1]);
      next[i] = std::move(windows[0]);
      next[i + 1] = std::move(windows[1]);
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

}  // namespace

std::vector<BigInt> remainder_tree_squares(const ProductTree& tree,
                                           const BigInt& x) {
  obs::prof::Frame frame("batchgcd.remainder_tree");
  if (x.is_negative()) {
    throw std::invalid_argument("remainder tree input must be non-negative");
  }
  if (tree.level_count() == 0) return {};
  return descend(tree, root_fraction(tree, x),
                 precision(tree.root().bit_length()),
                 [](const BigInt& n, const BigInt& y, std::size_t prec) {
                   return leaf_residue(y, prec, n.squared());
                 });
}

BigInt row_fraction(const ProductTree& tree, const BigInt& x) {
  if (x.is_negative() || x >= tree.root()) {
    throw std::invalid_argument("row fraction input must lie in [0, root)");
  }
  RootArith arith(tree);
  arith.set(x);
  return std::move(arith).fraction() >> (64 * kRootPadLimbs);
}

std::vector<BigInt> remainder_row_residues(
    const ProductTree& tree, std::span<const BigInt* const> others) {
  obs::prof::Frame frame("batchgcd.remainder_tree");
  if (tree.level_count() == 0) return {};
  BigInt y_root;
  std::size_t root_prec = precision(tree.root().bit_length());
  if (others.empty()) {
    y_root = tree.root_reciprocal();  // floor(1 * 2^(2b+64) / P)
  } else {
    // The chain's scratch block is freed before the walk starts.
    RootArith arith(tree);
    if (arith.multiply_others(others)) y_root = std::move(arith).fraction();
    root_prec += 64 * kRootPadLimbs;
  }
  // frac(X / N^2) * N = (X mod N^2) / N = (P / N) mod N for X = P_a X'_a,
  // exact because N divides X.
  return descend(tree, std::move(y_root), root_prec,
                 [](const BigInt& n, const BigInt& y, std::size_t prec) {
                   return leaf_residue(y, prec, n);
                 });
}

}  // namespace weakkeys::batchgcd
