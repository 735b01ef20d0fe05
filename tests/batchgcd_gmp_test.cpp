// Differential tests of the division-free remainder walk against GMP as an
// oracle: every leaf of remainder_tree_squares against mpz_mod, and the
// root reciprocal and windowed product the walk is built from against
// mpz_tdiv_q / mpz_mul. GMP is linked by the tests only.
#include <gmp.h>
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
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
