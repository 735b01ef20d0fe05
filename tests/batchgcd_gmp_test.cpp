// Differential tests of the division-free remainder walk against GMP as an
// oracle: every leaf of remainder_tree_squares against mpz_mod, every row's
// exact root fraction and leaves against mpz products and quotients, and
// the root reciprocal and windowed product the walk is built
// from against mpz_tdiv_q / mpz_mul. GMP is linked by the tests only.
#include <gmp.h>
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "batchgcd/task_set.hpp"
#include "bn/bigint.hpp"
#include "util/prng.hpp"

namespace weakkeys::batchgcd {
namespace {

using bn::BigInt;

class Mpz {
 public:
  Mpz() { mpz_init(v); }
  explicit Mpz(const BigInt& x) {
    mpz_init_set_str(v, x.to_hex().c_str(), 16);
  }
  ~Mpz() { mpz_clear(v); }
  Mpz(const Mpz&) = delete;
  Mpz& operator=(const Mpz&) = delete;

  [[nodiscard]] BigInt big() const {
    char* s = mpz_get_str(nullptr, 16, v);
    BigInt out = BigInt::from_hex(s);
    free(s);  // NOLINT: GMP allocates with malloc
    return out;
  }

  mpz_t v;
};

class ScaledDescentGmp : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  ScaledDescentGmp() : rng_(GetParam()) { gmp_randinit_default(state_); }
  ~ScaledDescentGmp() override { gmp_randclear(state_); }

  /// A GMP-drawn random value of exactly `bits` bits (odd when asked).
  BigInt draw(std::size_t bits, bool odd) {
    Mpz m;
    mpz_urandomb(m.v, state_, bits);
    mpz_setbit(m.v, bits - 1);
    if (odd) mpz_setbit(m.v, 0);
    return m.big();
  }

  util::Xoshiro256 rng_;
  gmp_randstate_t state_;
};

TEST_P(ScaledDescentGmp, EveryLeafMatchesMpzMod) {
  // Mixed widths from one limb to 4096 bits, one duplicate, an odd count.
  std::vector<BigInt> moduli;
  for (int i = 0; i < 41; ++i) {
    moduli.push_back(draw(64 + rng_.below(4033), /*odd=*/true));
  }
  moduli.push_back(moduli[7]);
  const ProductTree tree(moduli);
  const std::size_t bits = tree.root().bit_length();
  // Besides random values: root multiples whose quotient exceeds 64 bits,
  // below and above the root itself.
  const std::vector<BigInt> xs = {tree.root(),
                                  draw(bits, false),
                                  draw(2 * bits - 3, false),
                                  draw(bits + 40, false),
                                  tree.root() * draw(100, false),
                                  tree.root() * draw(bits + 64, false)};
  for (const BigInt& x : xs) {
    const auto rem = remainder_tree_squares(tree, x);
    ASSERT_EQ(rem.size(), moduli.size());
    const Mpz X(x);
    for (std::size_t i = 0; i < moduli.size(); ++i) {
      const Mpz N(moduli[i]);
      Mpz square, expected;
      mpz_mul(square.v, N.v, N.v);
      mpz_mod(expected.v, X.v, square.v);
      ASSERT_EQ(rem[i], expected.big()) << "leaf " << i;
    }
  }
  // A one-leaf tree over N1 and x = N1 * N2 with a 512-bit N2.
  const ProductTree single(std::vector<BigInt>{moduli[0]});
  const BigInt x = moduli[0] * draw(512, true);
  const Mpz X(x), N(moduli[0]);
  Mpz square, expected;
  mpz_mul(square.v, N.v, N.v);
  mpz_mod(expected.v, X.v, square.v);
  const auto rem = remainder_tree_squares(single, x);
  ASSERT_EQ(rem.size(), 1U);
  EXPECT_EQ(rem[0], expected.big());
}

TEST_P(ScaledDescentGmp, RowFractionMatchesMpzFloor) {
  // Mixed widths, an odd count (odd subsets carry nodes up unchanged), and
  // moduli[3] again at the end, so at k = n its one-leaf row has X' = 0.
  std::vector<BigInt> moduli;
  for (int i = 0; i < 41; ++i) {
    moduli.push_back(draw(64 + rng_.below(1025), /*odd=*/true));
  }
  moduli.push_back(moduli[3]);
  Mpz all(BigInt(1));
  for (const BigInt& n : moduli) {
    const Mpz N(n);
    mpz_mul(all.v, all.v, N.v);
  }
  std::size_t zero_rows = 0;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{16},
                              moduli.size()}) {
    const TaskSet rows(moduli, k);
    std::vector<std::unique_ptr<ProductTree>> trees;
    for (std::size_t a = 0; a < k; ++a) {
      trees.push_back(std::make_unique<ProductTree>(rows.subset(a)));
    }
    for (std::size_t a = 0; a < k; ++a) {
      const ProductTree& tree = *trees[a];
      const Mpz P(tree.root());
      const std::size_t shift = 2 * tree.root().bit_length() + kFractionGuardBits;
      // The row's X' = prod_{b != a} P_b mod P_a.
      std::vector<const BigInt*> others;
      Mpz row_x(BigInt(1));
      for (std::size_t b = 0; b < k; ++b) {
        if (b == a) continue;
        others.push_back(&trees[b]->root());
        const Mpz Pb(trees[b]->root());
        mpz_mul(row_x.v, row_x.v, Pb.v);
      }
      mpz_mod(row_x.v, row_x.v, P.v);
      const BigInt x_row = row_x.big();
      if (x_row.is_zero()) ++zero_rows;
      // y == floor(x * 2^(2b+64) / P) for the row's X' and the edges.
      const std::vector<BigInt> xs = {x_row, BigInt(0), BigInt(1),
                                      tree.root() - BigInt(1),
                                      draw(tree.root().bit_length(), false) %
                                          tree.root()};
      for (const BigInt& x : xs) {
        const Mpz X(x);
        Mpz expected;
        mpz_mul_2exp(expected.v, X.v, shift);
        mpz_fdiv_q(expected.v, expected.v, P.v);
        ASSERT_EQ(row_fraction(tree, x), expected.big())
            << "k=" << k << " row " << a << " x=" << x.to_hex();
      }
      // Every leaf: (P / N_i) mod N_i for the whole corpus product P.
      const auto u = remainder_row_residues(tree, others);
      const auto leaves = rows.subset(a);
      ASSERT_EQ(u.size(), leaves.size());
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        const Mpz N(leaves[i]);
        Mpz expected;
        mpz_divexact(expected.v, all.v, N.v);
        mpz_mod(expected.v, expected.v, N.v);
        ASSERT_EQ(u[i], expected.big()) << "k=" << k << " row " << a;
      }
    }
  }
  EXPECT_EQ(zero_rows, 2u);  // moduli[3] and its duplicate, at k = n
  EXPECT_THROW(row_fraction(ProductTree(moduli), ProductTree(moduli).root()),
               std::invalid_argument);
}

// The row arithmetic wraps its Barrett remainders and R0 mod B^L - 1 for
// the power of two L >= n + 1 over an n-limb root (bn::detail::wrap_length;
// below the NTT crossover, L = n + 1). Roots of 2^k - 3 limbs wrap at about
// half the full product's transform, 2^k - 1 at the longest root on 2^k,
// and 2^k limbs at the next length.
TEST_P(ScaledDescentGmp, RowArithmeticAtWrapEdges) {
  for (const std::size_t limbs :
       {std::size_t{61}, std::size_t{1021}, std::size_t{1023},
        std::size_t{1024}, std::size_t{8189}, std::size_t{8191},
        std::size_t{8192}}) {
    // Two subsets of four moduli whose bits sum to 64 * limbs - 1: each
    // product has 64 * limbs - 4 to 64 * limbs - 1 bits.
    std::vector<BigInt> moduli;
    const std::size_t total = 64 * limbs - 1;
    for (int subset = 0; subset < 2; ++subset) {
      for (std::size_t i = 0; i < 4; ++i) {
        moduli.push_back(draw((total + i) / 4, /*odd=*/true));
      }
    }
    const TaskSet rows(moduli, 2);
    const ProductTree tree(rows.subset(0));
    const ProductTree other(rows.subset(1));
    ASSERT_EQ(tree.root().limb_count(), limbs);
    const Mpz P(tree.root());
    const std::size_t shift = 2 * tree.root().bit_length() + kFractionGuardBits;
    Mpz row_x(other.root());
    mpz_mod(row_x.v, row_x.v, P.v);
    for (const BigInt& x : {row_x.big(), tree.root() - BigInt(1),
                            draw(64 * limbs - 70, false)}) {
      const Mpz X(x);
      Mpz expected;
      mpz_mul_2exp(expected.v, X.v, shift);
      mpz_fdiv_q(expected.v, expected.v, P.v);
      ASSERT_EQ(row_fraction(tree, x), expected.big()) << limbs << " limbs";
    }
    // Both others of a three-subset row: the chain takes one Barrett step.
    const BigInt* const others[] = {&other.root(), &other.root()};
    const auto u = remainder_row_residues(tree, others);
    const auto leaves = rows.subset(0);
    ASSERT_EQ(u.size(), leaves.size());
    Mpz all(tree.root());
    const Mpz Q(other.root());
    mpz_mul(all.v, all.v, Q.v);
    mpz_mul(all.v, all.v, Q.v);
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const Mpz N(leaves[i]);
      Mpz expected;
      mpz_divexact(expected.v, all.v, N.v);
      mpz_mod(expected.v, expected.v, N.v);
      ASSERT_EQ(u[i], expected.big()) << limbs << " limbs, leaf " << i;
    }
  }
}

TEST_P(ScaledDescentGmp, RootReciprocalMatchesMpzQuotient) {
  std::vector<BigInt> moduli;
  for (int i = 0; i < 300; ++i) moduli.push_back(draw(256, /*odd=*/true));
  const ProductTree tree(moduli);
  const std::size_t k = 2 * tree.root().bit_length() + kFractionGuardBits;
  Mpz power, expected;
  mpz_setbit(power.v, k);
  const Mpz root(tree.root());
  mpz_tdiv_q(expected.v, power.v, root.v);
  EXPECT_EQ(tree.root_reciprocal(), expected.big());
}

TEST_P(ScaledDescentGmp, MulWindowMatchesMpz) {
  for (int iter = 0; iter < 20; ++iter) {
    const BigInt a = draw(1 + rng_.below(200000), false);
    const BigInt b = draw(1 + rng_.below(100000), false);
    const std::size_t total = a.bit_length() + b.bit_length();
    const std::size_t shift = rng_.below(total);
    const std::size_t bits = 1 + rng_.below(total - shift + 64);
    const Mpz A(a), B(b);
    Mpz expected;
    mpz_mul(expected.v, A.v, B.v);
    mpz_fdiv_q_2exp(expected.v, expected.v, shift);
    mpz_fdiv_r_2exp(expected.v, expected.v, bits);
    ASSERT_EQ(bn::mul_window(a, b, shift, bits), expected.big())
        << "shift " << shift << " bits " << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaledDescentGmp,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace weakkeys::batchgcd
