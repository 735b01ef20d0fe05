// Differential tests: BigInt against GMP as an oracle. GMP is linked by the
// tests only — the library itself is self-contained.
#include <gmp.h>
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "bn/bigint.hpp"
#include "bn/detail.hpp"
#include "rng/prng_source.hpp"
#include "rsa/key.hpp"
#include "util/prng.hpp"

namespace weakkeys::bn {
namespace {

class Mpz {
 public:
  Mpz() { mpz_init(v); }
  explicit Mpz(const std::string& hex) { mpz_init_set_str(v, hex.c_str(), 16); }
  ~Mpz() { mpz_clear(v); }
  Mpz(const Mpz&) = delete;
  Mpz& operator=(const Mpz&) = delete;

  [[nodiscard]] std::string hex() const {
    char* s = mpz_get_str(nullptr, 16, v);
    std::string out = s;
    free(s);  // NOLINT: GMP allocates with malloc
    return out;
  }

  mpz_t v;
};

class GmpDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  GmpDifferential() : rng_(GetParam()) { gmp_randinit_default(state_); }
  ~GmpDifferential() override { gmp_randclear(state_); }

  /// A random value of up to max_bits, materialized on both sides.
  std::pair<BigInt, std::string> draw(std::size_t max_bits) {
    Mpz m;
    mpz_urandomb(m.v, state_, 1 + rng_.below(max_bits));
    const std::string hex = m.hex();
    return {BigInt::from_hex(hex), hex};
  }

  util::Xoshiro256 rng_;
  gmp_randstate_t state_;
};

TEST_P(GmpDifferential, MulDivModAgree) {
  for (int iter = 0; iter < 40; ++iter) {
    const auto [a, ah] = draw(6000);
    auto [b, bh] = draw(3000);
    if (b.is_zero()) b = BigInt(1);
    Mpz A(ah), B(b.to_hex()), R;

    mpz_mul(R.v, A.v, B.v);
    EXPECT_EQ((a * b).to_hex(), R.hex());

    Mpz Q, Rem;
    mpz_tdiv_qr(Q.v, Rem.v, A.v, B.v);
    const auto dm = BigInt::divmod(a, b);
    EXPECT_EQ(dm.quotient.to_hex(), Q.hex());
    EXPECT_EQ(dm.remainder.to_hex(), Rem.hex());
  }
}

TEST_P(GmpDifferential, AddSubAgree) {
  for (int iter = 0; iter < 60; ++iter) {
    const auto [a, ah] = draw(4000);
    const auto [b, bh] = draw(4000);
    Mpz A(ah), B(bh), R;
    mpz_add(R.v, A.v, B.v);
    EXPECT_EQ((a + b).to_hex(), R.hex());
    mpz_sub(R.v, A.v, B.v);
    std::string expected = R.hex();
    EXPECT_EQ((a - b).to_hex(), expected);
  }
}

TEST_P(GmpDifferential, GcdAgrees) {
  for (int iter = 0; iter < 40; ++iter) {
    const auto [a, ah] = draw(2000);
    const auto [b, bh] = draw(2000);
    Mpz A(ah), B(bh), R;
    mpz_gcd(R.v, A.v, B.v);
    EXPECT_EQ(gcd(a, b).to_hex(), R.hex());
  }
}

TEST_P(GmpDifferential, ModPowAgrees) {
  for (int iter = 0; iter < 15; ++iter) {
    const auto [a, ah] = draw(400);
    const auto [e, eh] = draw(200);
    auto [m, mh] = draw(300);
    if (m.is_zero()) m = BigInt(7);
    Mpz A(ah), E(eh), M(m.to_hex()), R;
    mpz_powm(R.v, A.v, E.v, M.v);
    EXPECT_EQ(mod_pow(a, e, m).to_hex(), R.hex());
  }
}

TEST_P(GmpDifferential, HugeOperandsAgree) {
  // Forces the Karatsuba and Newton-division paths.
  const auto [a, ah] = draw(400000);
  auto [b, bh] = draw(150000);
  if (b.is_zero()) b = BigInt(1);
  Mpz A(ah), B(b.to_hex()), R;
  mpz_mul(R.v, A.v, B.v);
  EXPECT_EQ((a * b).to_hex(), R.hex());
  Mpz Q, Rem;
  mpz_tdiv_qr(Q.v, Rem.v, A.v, B.v);
  const auto dm = BigInt::divmod(a, b);
  EXPECT_EQ(dm.quotient.to_hex(), Q.hex());
  EXPECT_EQ(dm.remainder.to_hex(), Rem.hex());
}

/// The hex of little-endian limbs, top limb forced nonzero: random limbs,
/// all ones (every block sum of the middle product carries), or limbs from
/// {0, 1, B-2, B-1} (long carry and borrow runs).
std::string limbs_hex(util::Xoshiro256& rng, std::size_t n, int fill) {
  constexpr Limb kOnes = ~Limb{0};
  const Limb extreme[] = {0, 1, kOnes - 1, kOnes};
  std::string hex;
  char buf[17];
  for (std::size_t i = n; i-- > 0;) {
    Limb v = fill == 0 ? rng() : fill == 1 ? kOnes : extreme[rng.below(4)];
    if (i + 1 == n && v == 0) v = 1;
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    hex += buf;
  }
  return hex;
}

// mul_window computes narrow windows from a middle product: windows shaped
// like the scaled descent's (the fraction bits of a 2s x s product), narrow
// bands and random ones, at operand sizes across the Karatsuba threshold
// and with the threshold moved so every split size runs.
TEST_P(GmpDifferential, MulWindowBandsAgree) {
  auto& kara = Tuning::karatsuba_threshold();
  const std::size_t saved = kara;
  for (const std::size_t yn : {1u, 2u, 23u, 24u, 25u, 47u, 48u, 49u, 97u,
                               301u}) {
    for (const std::size_t xn : {2 * yn + 1, 2 * yn, 2 * yn - 1, yn + 3,
                                 3 * yn + 5}) {
      const int fx = static_cast<int>(rng_.below(3));
      const int fy = static_cast<int>(rng_.below(3));
      const std::string xh = limbs_hex(rng_, xn, fx);
      const std::string yh = limbs_hex(rng_, yn, fy);
      const BigInt x = BigInt::from_hex(xh), y = BigInt::from_hex(yh);
      Mpz X(xh), Y(yh), product;
      mpz_mul(product.v, X.v, Y.v);
      const std::size_t total = 64 * (xn + yn);
      const std::size_t descent_shift = 64 * yn - rng_.below(128);
      const std::pair<std::size_t, std::size_t> windows[] = {
          {descent_shift, 64 * xn - descent_shift + rng_.below(64)},
          {rng_.below(total), 1 + rng_.below(200)},
          {rng_.below(total), 1 + rng_.below(total)},
      };
      for (const auto& [shift, bits] : windows) {
        Mpz expected;
        mpz_fdiv_q_2exp(expected.v, product.v, shift);
        mpz_fdiv_r_2exp(expected.v, expected.v, bits);
        for (const std::size_t t :
             {std::size_t{2}, std::size_t{8}, saved}) {
          kara = t;
          ASSERT_EQ(mul_window(x, y, shift, bits).to_hex(), expected.hex())
              << "xn " << xn << " yn " << yn << " shift " << shift
              << " bits " << bits << " threshold " << t << " fills " << fx
              << "/" << fy;
        }
        kara = saved;
      }
    }
  }
}

// Every width the Montgomery kernels instantiate (1..8 limbs on the stack)
// and the first runtime-width one (9 limbs, one heap block), with moduli
// whose top limb has any bit length.
TEST_P(GmpDifferential, ModPowEveryWidthAgrees) {
  for (std::size_t limbs = 1; limbs <= 9; ++limbs) {
    for (int iter = 0; iter < 6; ++iter) {
      Mpz M, A, E, R;
      mpz_urandomb(M.v, state_, limbs * 64);
      mpz_setbit(M.v, (limbs - 1) * 64 + rng_.below(64));
      mpz_setbit(M.v, 0);
      mpz_urandomb(A.v, state_, limbs * 64 + 8);  // sometimes >= m
      mpz_urandomb(E.v, state_, 1 + rng_.below(limbs * 64 + 64));
      const BigInt m = BigInt::from_hex(M.hex());
      const BigInt a = BigInt::from_hex(A.hex());
      const BigInt e = BigInt::from_hex(E.hex());
      mpz_powm(R.v, A.v, E.v, M.v);
      EXPECT_EQ(mod_pow(a, e, m).to_hex(), R.hex()) << limbs << " limbs";
    }
  }
}

TEST_P(GmpDifferential, GcdOfSharedFactorsAgrees) {
  for (std::size_t limbs = 1; limbs <= 9; ++limbs) {
    const auto [g, gh] = draw(limbs * 32);
    const auto [x, xh] = draw(limbs * 32);
    const auto [y, yh] = draw(limbs * 64);
    Mpz G(gh), X(xh), Y(yh), A, B, R;
    mpz_mul(A.v, G.v, X.v);
    mpz_mul(B.v, G.v, Y.v);
    mpz_gcd(R.v, A.v, B.v);
    EXPECT_EQ(gcd(g * x, g * y).to_hex(), R.hex()) << limbs << " limbs";
  }
}

/// The hex of a^e mod m computed by GMP, for the edge-case tables below.
std::string gmp_powm(const BigInt& a, const BigInt& e, const BigInt& m) {
  Mpz A(a.abs().to_hex()), E(e.to_hex()), M(m.to_hex()), R;
  if (a.is_negative()) mpz_neg(A.v, A.v);
  mpz_powm(R.v, A.v, E.v, M.v);
  return R.hex();
}

TEST(GmpEdgeCases, ModPowEdgesAgree) {
  std::vector<BigInt> moduli;
  for (std::size_t limbs = 1; limbs <= 9; ++limbs) {
    const BigInt ones = (BigInt(1) << (64 * limbs)) - BigInt(1);
    const BigInt top_bit = BigInt(1) << (64 * limbs - 1);
    moduli.push_back(ones);                                // all-ones limbs
    moduli.push_back(ones - top_bit - BigInt(2));          // top bit clear
    moduli.push_back((BigInt(1) << (64 * limbs - 64)) + BigInt(1));  // 1-bit
    moduli.push_back(ones - BigInt(1));                    // even: fallback
  }
  moduli.push_back(BigInt(3));
  moduli.push_back(BigInt(2));
  for (const BigInt& m : moduli) {
    const BigInt all_ones_exp = (BigInt(1) << m.bit_length()) - BigInt(1);
    for (const BigInt& e : {BigInt(0), BigInt(1), BigInt(2), BigInt(65537),
                            all_ones_exp}) {
      for (const BigInt& a :
           {BigInt(0), BigInt(1), BigInt(2), m - BigInt(1), m, m + BigInt(1),
            m * BigInt(3) + BigInt(5), -BigInt(7), m - BigInt(2)}) {
        EXPECT_EQ(mod_pow(a, e, m).to_hex(), gmp_powm(a, e, m))
            << "a=" << a << " e=" << e << " m=" << m;
      }
    }
  }
}

TEST(GmpEdgeCases, GcdEdgesAgree) {
  const BigInt ones4 = (BigInt(1) << 256) - BigInt(1);
  const BigInt wide = BigInt::from_hex(
      "f0e1d2c3b4a5968778695a4b3c2d1e0f00112233445566778899aabbccddeeff"
      "123456789abcdef0fedcba9876543210");
  // Zero, equal operands (the diagonal), powers of two, all-ones limbs,
  // shared powers of two, and widths from one limb to eight.
  const std::vector<BigInt> values = {
      BigInt(0),        BigInt(1),
      BigInt(2),        BigInt(3),
      BigInt(1) << 64,  BigInt(1) << 255,
      BigInt(1) << 511, (BigInt(1) << 300) * BigInt(15),
      ones4,            ones4 * BigInt(6),
      wide,             wide << 70,
      -wide,            BigInt(std::uint64_t{0xffffffffffffffff}),
      BigInt(65537)};
  for (const BigInt& a : values) {
    for (const BigInt& b : values) {
      Mpz A(a.abs().to_hex()), B(b.abs().to_hex()), R;
      mpz_gcd(R.v, A.v, B.v);
      EXPECT_EQ(gcd(a, b).to_hex(), R.hex()) << "a=" << a << " b=" << b;
    }
  }
}

/// The Miller-Rabin the Montgomery-form rounds replaced, on GMP: same
/// bases from the same source, then plain squarings mod n.
bool plain_miller_rabin(const BigInt& n, RandomSource& src, int rounds) {
  Mpz N(n.to_hex()), Nm1, D, X;
  mpz_sub_ui(Nm1.v, N.v, 1);
  const auto r = mpz_scan1(Nm1.v, 0);
  mpz_fdiv_q_2exp(D.v, Nm1.v, r);
  for (int round = 0; round < rounds; ++round) {
    const BigInt a = random_range(src, BigInt(2), n - BigInt(2));
    Mpz A(a.to_hex());
    mpz_powm(X.v, A.v, D.v, N.v);
    if (mpz_cmp_ui(X.v, 1) == 0 || mpz_cmp(X.v, Nm1.v) == 0) continue;
    bool witness = true;
    for (unsigned long i = 1; i < r; ++i) {
      mpz_mul(X.v, X.v, X.v);
      mpz_mod(X.v, X.v, N.v);
      if (mpz_cmp(X.v, Nm1.v) == 0) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

TEST(GmpEdgeCases, MontgomeryMillerRabinMatchesPlainRounds) {
  std::vector<BigInt> inputs = {BigInt(561), BigInt(41041),
                                BigInt(std::uint64_t{3215031751}), BigInt(5),
                                BigInt(7),
                                BigInt(1000003)};
  // 128-bit semiprimes and primes from GMP.
  Mpz P, Q, N;
  mpz_set_str(P.v, "f000000000000000", 16);
  for (int i = 0; i < 6; ++i) {
    mpz_nextprime(P.v, P.v);
    mpz_nextprime(Q.v, P.v);
    mpz_mul(N.v, P.v, Q.v);
    inputs.push_back(BigInt::from_hex(N.hex()));
    Mpz Big;
    mpz_mul_2exp(Big.v, P.v, 64);
    mpz_nextprime(Big.v, Big.v);
    inputs.push_back(BigInt::from_hex(Big.hex()));
  }
  for (const BigInt& n : inputs) {
    Mpz Nz(n.to_hex());
    const bool prime = mpz_probab_prime_p(Nz.v, 30) > 0;
    for (const int rounds : {1, 6}) {
      rng::PrngRandomSource a(n.limbs()[0]), b(n.limbs()[0]), c(n.limbs()[0]);
      const bool mont = miller_rabin(n, a, rounds);
      EXPECT_EQ(mont, plain_miller_rabin(n, b, rounds)) << n;
      EXPECT_EQ(mont, is_probable_prime(n, c, rounds) || n == BigInt(5) ||
                          n == BigInt(7))
          << n;
      if (rounds == 6) {
        EXPECT_EQ(mont, prime) << n;
      }
      // Both consumed the same draws.
      EXPECT_EQ(random_bits(a, 64), random_bits(b, 64)) << n;
    }
  }
}

TEST(GmpEdgeCases, AssembledPrivateKeyMatchesGmpInverses) {
  Mpz P, Q;
  mpz_set_str(P.v, "c0000000000000000000000000000000", 16);
  for (int i = 0; i < 8; ++i) {
    mpz_nextprime(P.v, P.v);
    mpz_nextprime(Q.v, P.v);
    mpz_add_ui(Q.v, Q.v, 1000 * (i + 1));
    mpz_nextprime(Q.v, Q.v);
    const BigInt p = BigInt::from_hex(P.hex());
    const BigInt q = BigInt::from_hex(Q.hex());
    for (const std::uint64_t e :
         {3ULL, 17ULL, 65537ULL, 0xffffffffffffffc5ULL}) {
      Mpz E, Lambda, P1, Q1, G, D, Qinv;
      mpz_set_ui(E.v, 0);
      mpz_set_str(E.v, BigInt(e).to_hex().c_str(), 16);
      mpz_sub_ui(P1.v, P.v, 1);
      mpz_sub_ui(Q1.v, Q.v, 1);
      mpz_lcm(Lambda.v, P1.v, Q1.v);
      if (mpz_invert(D.v, E.v, Lambda.v) == 0) {
        EXPECT_THROW(rsa::assemble_private_key(p, q, BigInt(e)),
                     std::domain_error);
        continue;
      }
      mpz_invert(Qinv.v, Q.v, P.v);
      const rsa::RsaPrivateKey key = rsa::assemble_private_key(p, q, BigInt(e));
      EXPECT_EQ(key.d.to_hex(), D.hex()) << "e=" << e;
      EXPECT_EQ(key.qinv.to_hex(), Qinv.hex());
      EXPECT_TRUE(key.is_consistent());
    }
  }
  // A composite "p" still gets the true inverse (Fermat does not hold).
  const BigInt p(561), q(101);
  EXPECT_EQ(rsa::assemble_private_key(p, q, BigInt(3)).qinv,
            mod_inverse(q, p));
}

// -- NTT products -------------------------------------------------------------
// The NTT kernels against GMP's mpn layer at the sizes where the dispatch
// changes: the crossover T - 1, T and T + 1 (kNttMinLimbs for products,
// kNttMiddleMinLimbs for middle products), the widest operands whose
// coefficients still wrap past a power of two and one limb more, the same
// pair at each transform length from 2^14 to the cap (the lengths whose
// outer stages take side-table roots), the cap and one past it (one
// Karatsuba level over NTT leaves), and twice the cap plus three (two
// levels). Operands are all-ones limbs, whose convolution coefficients are
// the largest the CRT must recover, or runs of all-ones limbs next to runs
// of zeros, whose carries run far. Both fills and every shape run in the
// crossover region, at the 2^15 wrap edge and at cap + 1; the other sizes
// run all-ones operands in the shapes the tree and the descent use, since
// every shape at every size would take about half a minute. Results are
// compared whole, as limbs (EXPECT_TRUE): printing a mismatch of thousands
// of limbs would bury the sizes that failed.

using detail::LimbVec;

/// n limbs (top limb nonzero): all ones (fill 0) or alternating runs of
/// 1-8 all-ones and 1-8 zero limbs (fill 1).
LimbVec ntt_operand(util::Xoshiro256& rng, std::size_t n, int fill) {
  constexpr Limb kOnes = ~Limb{0};
  LimbVec v(n, kOnes);
  if (fill == 1) {
    bool ones = rng.below(2) == 0;
    for (std::size_t i = 0; i < n;) {
      const std::size_t run = 1 + rng.below(8);
      for (std::size_t j = 0; j < run && i < n; ++j, ++i) {
        v[i] = ones ? kOnes : 0;
      }
      ones = !ones;
    }
  }
  v.back() = kOnes;
  return v;
}

BigInt big_of(const LimbVec& v) { return BigIntOps::make(v, 1); }

/// z = the value of limbs x[0, n).
void set_limbs(mpz_t z, const Limb* x, std::size_t n) {
  mpz_import(z, n, -1, sizeof(Limb), 0, 0, x);
}

/// The limbs of z, trimmed.
LimbVec limbs_of(const mpz_t z) {
  LimbVec v(mpz_size(z));
  std::size_t count = 0;
  mpz_export(v.data(), &count, -1, sizeof(Limb), 0, 0, z);
  v.resize(count);
  return v;
}

/// The widest s x s product (a (2s - 1) x s middle product) on the
/// transform length of crossover t's product: s = L / 2 + kNttWrapLimbs / 2
/// still fits L, at most kNttWrapLimbs past it; one limb more takes 2L.
std::size_t wrap_edge(std::size_t t) {
  return (std::bit_ceil(2 * t - 1) + detail::kNttWrapLimbs) / 2;
}

/// The sizes above for crossover t.
std::vector<std::size_t> ntt_sizes(std::size_t t) {
  const std::size_t cap = detail::kNttMaxLength;
  const std::size_t wrap = wrap_edge(t);
  std::vector<std::size_t> sizes = {t - 1, t, t + 1, wrap, wrap + 1};
  for (std::size_t length = std::size_t{1} << 14; length <= cap; length *= 2) {
    const std::size_t edge = (length + detail::kNttWrapLimbs) / 2;
    sizes.insert(sizes.end(), {edge, edge + 1});
  }
  sizes.insert(sizes.end(), {cap, cap + 1, 2 * cap + 3});
  return sizes;
}

/// Whether size s runs both fills and every shape for crossover t.
bool every_shape(std::size_t s, std::size_t t) {
  return s <= wrap_edge(t) + 1 ||
         s == ((std::size_t{1} << 15) + detail::kNttWrapLimbs) / 2 ||
         s == detail::kNttMaxLength + 1;
}

/// The operand fills size s checks for crossover t.
int ntt_fills(std::size_t s, std::size_t t) {
  return every_shape(s, t) ? 2 : 1;
}

/// The widest s x s product that is one transform.
constexpr std::size_t kOneTransform =
    (detail::kNttMaxLength + detail::kNttWrapLimbs) / 2;

/// GMP's product, trimmed.
LimbVec gmp_product(const LimbVec& a, const LimbVec& b) {
  LimbVec r(a.size() + b.size());
  if (&a == &b) {
    mpn_sqr(r.data(), a.data(), static_cast<mp_size_t>(a.size()));
  } else {
    mpn_mul(r.data(), a.data(), static_cast<mp_size_t>(a.size()), b.data(),
            static_cast<mp_size_t>(b.size()));
  }
  detail::trim(r);
  return r;
}

TEST(NttGmp, ProductsAndSquaresAgree) {
  util::Xoshiro256 rng(27);
  constexpr std::size_t t = detail::kNttMinLimbs;
  for (const std::size_t s : ntt_sizes(t)) {
    for (int fill = 0; fill < ntt_fills(s, t); ++fill) {
      const LimbVec a = ntt_operand(rng, s, fill);
      const LimbVec b = ntt_operand(rng, s, fill);
      EXPECT_TRUE(detail::mul_karatsuba(a, b) == gmp_product(a, b))
          << "balanced " << s << " fill " << fill;
      const LimbVec square = gmp_product(a, a);
      EXPECT_TRUE(detail::mul_karatsuba(a, a) == square)
          << "square " << s << " fill " << fill;
      if (every_shape(s, t)) {
        EXPECT_TRUE(BigIntOps::limbs(big_of(a) * big_of(a)) == square)
            << "BigInt square " << s << " fill " << fill;
      }
      if (s <= kOneTransform) {
        // Past the cap: chunks of one transform each, and a shorter tail.
        const LimbVec wide =
            ntt_operand(rng, 2 * detail::kNttMaxLength + 7, fill);
        EXPECT_TRUE(detail::mul_karatsuba(wide, b) == gmp_product(wide, b))
            << "lopsided " << s << " fill " << fill;
      }
    }
  }
}

/// r = the lower triangle of x[0, m) * y[0, m): the sum of x_i y_j B^(i+j)
/// over i + j < m. A rectangle x[0, k) * y[0, m - k) and two triangles of
/// about m / 2 (x shifted by k, y shifted by m - k) cover it, so it costs
/// O(M(m) log m) on GMP's products; below 32 limbs it is GMP's addmul.
void gmp_triangle(mpz_t r, const Limb* x, const Limb* y, std::size_t m) {
  if (m <= 32) {
    LimbVec t(m + 2, 0);
    for (std::size_t i = 0; i < m; ++i) {
      const Limb carry = mpn_addmul_1(t.data() + i, y,
                                      static_cast<mp_size_t>(m - i), x[i]);
      mpn_add_1(t.data() + m, t.data() + m, 2, carry);
    }
    set_limbs(r, t.data(), t.size());
    return;
  }
  const std::size_t k = m / 2;
  LimbVec rect(m);
  mpn_mul(rect.data(), y, static_cast<mp_size_t>(m - k), x,
          static_cast<mp_size_t>(k));
  set_limbs(r, rect.data(), rect.size());
  Mpz t;
  gmp_triangle(t.v, x + k, y, m - k);
  mpz_mul_2exp(t.v, t.v, 64 * k);
  mpz_add(r, r, t.v);
  gmp_triangle(t.v, x, y + m - k, k);
  mpz_mul_2exp(t.v, t.v, 64 * (m - k));
  mpz_add(r, r, t.v);
}

/// The middle product by its definition, on GMP's products. Of a * b,
/// drop the diagonals below bn - 1 (the lower triangle of a[0, bn - 1) and
/// b[0, bn - 1)) and shift the rest down by bn - 1 limbs: the band, plus
/// each diagonal k >= an at B^(k - bn + 1), which is B^n or above. Of those
/// only diagonals an and an + 1 reach the n + 2 limbs the band fills, so
/// subtracting them mod B^(n + 2) leaves the band.
LimbVec gmp_middle(const LimbVec& a, const LimbVec& b) {
  const std::size_t an = a.size();
  const std::size_t bn = b.size();
  const std::size_t n = an - bn + 1;
  const LimbVec product = gmp_product(a, b);
  Mpz band, part;
  set_limbs(band.v, product.data(), product.size());
  gmp_triangle(part.v, a.data(), b.data(), bn - 1);
  mpz_sub(band.v, band.v, part.v);
  mpz_fdiv_q_2exp(band.v, band.v, 64 * (bn - 1));
  // c_an + c_(an+1) * B, the pairs a_i b_j with i + j = an or an + 1.
  Limb past[4] = {0, 0, 0, 0};
  for (std::size_t shift = 0; shift < 2; ++shift) {
    for (std::size_t j = shift + 1; j < bn; ++j) {
      const unsigned __int128 t =
          static_cast<unsigned __int128>(a[an + shift - j]) * b[j];
      const Limb term[2] = {static_cast<Limb>(t), static_cast<Limb>(t >> 64)};
      mpn_add(past + shift, past + shift,
              static_cast<mp_size_t>(4 - shift), term, 2);
    }
  }
  set_limbs(part.v, past, 2);
  mpz_mul_2exp(part.v, part.v, 64 * n);
  mpz_sub(band.v, band.v, part.v);
  mpz_fdiv_r_2exp(band.v, band.v, 64 * (n + 2));
  return limbs_of(band.v);
}

TEST(NttGmp, MiddleProductsAgree) {
  util::Xoshiro256 rng(28);
  constexpr std::size_t t = detail::kNttMiddleMinLimbs;
  for (const std::size_t s : ntt_sizes(t)) {
    for (int fill = 0; fill < ntt_fills(s, t); ++fill) {
      const LimbVec b = ntt_operand(rng, s, fill);
      // The descent's shape (n = bn) and a band three times wider than b.
      for (const std::size_t an : {2 * s - 1, 4 * s + 5}) {
        if (an > 2 * s && !every_shape(s, t)) break;
        const LimbVec a = ntt_operand(rng, an, fill);
        EXPECT_TRUE(detail::mul_middle(a, b) == gmp_middle(a, b))
            << "an " << an << " bn " << s << " fill " << fill;
      }
    }
  }
}

// Past the widest single transform only at cap + 1: there mul_window runs
// the product and band kernels that the tests above check at every size.
TEST(NttGmp, MulWindowsAgree) {
  util::Xoshiro256 rng(29);
  constexpr std::size_t t = detail::kNttMiddleMinLimbs;
  for (const std::size_t s : ntt_sizes(t)) {
    if (s > kOneTransform && !every_shape(s, t)) continue;
    for (int fill = 0; fill < ntt_fills(s, t); ++fill) {
      const LimbVec y = ntt_operand(rng, s, fill);
      for (const std::size_t xn : {2 * s + 1, 3 * s + 7}) {
        if (xn > 3 * s && !every_shape(s, t)) break;
        const LimbVec x = ntt_operand(rng, xn, fill);
        Mpz product;
        const LimbVec full = gmp_product(x, y);
        set_limbs(product.v, full.data(), full.size());
        // The descent's window (the fraction bits above y's width), one
        // narrow band, and the top of the product.
        const std::size_t total = 64 * (xn + s);
        const std::size_t shift = 64 * s - 1 - rng.below(64);
        const std::pair<std::size_t, std::size_t> windows[] = {
            {shift, 64 * xn - shift + 32},
            {rng.below(total), 1 + rng.below(200)},
            {total - 64 * s - 64, 64 * s + 64},
        };
        for (const auto& [at, bits] : windows) {
          Mpz expected;
          mpz_fdiv_q_2exp(expected.v, product.v, at);
          mpz_fdiv_r_2exp(expected.v, expected.v, bits);
          EXPECT_TRUE(BigIntOps::limbs(mul_window(big_of(x), big_of(y), at,
                                                  bits)) ==
                      limbs_of(expected.v))
              << "xn " << xn << " yn " << s << " shift " << at << " bits "
              << bits << " fill " << fill;
        }
      }
    }
  }
}

/// z = x mod (B^L - 1).
void gmp_mod_wrapped(mpz_t z, const mpz_t x, std::size_t length) {
  Mpz m;
  mpz_setbit(m.v, 64 * length);
  mpz_sub_ui(m.v, m.v, 1);
  mpz_mod(z, x, m.v);
}

/// Whether mul_wrapped_into's r[0, L) = a * b mod (B^L - 1) for a and b
/// kept or not, as `kept` says (bit 0: a, bit 1: b).
bool wrapped_agrees(const LimbVec& a, const LimbVec& b, std::size_t length,
                    int kept) {
  LimbVec ta(3 * length), tb(3 * length);
  const detail::Operand ao = (kept & 1) != 0
                                 ? detail::keep_wrapped(a.data(), a.size(),
                                                        length, ta.data())
                                 : detail::Operand{a.data(), a.size()};
  const detail::Operand bo = (kept & 2) != 0
                                 ? detail::keep_wrapped(b.data(), b.size(),
                                                        length, tb.data())
                                 : detail::Operand{b.data(), b.size()};
  LimbVec r(length);
  LimbVec scratch(detail::mul_wrapped_scratch_limbs(length, a.size(),
                                                    b.size(), kept != 0));
  detail::mul_wrapped_into(r.data(), length, ao, bo, scratch.data());
  Mpz x, y, want, got;
  set_limbs(x.v, a.data(), a.size());
  set_limbs(y.v, b.data(), b.size());
  mpz_mul(want.v, x.v, y.v);
  gmp_mod_wrapped(want.v, want.v, length);
  set_limbs(got.v, r.data(), r.size());
  gmp_mod_wrapped(got.v, got.v, length);  // B^L - 1 is a form of 0
  return mpz_cmp(want.v, got.v) == 0;
}

// Wrapped products at the lengths the reciprocal and the row arithmetic
// take: below the NTT (the full product folded), just below and at the
// crossover, factor_inproc's roots (2^14) and the cap, with operands of
// L - 2 limbs (a residual's n + 2), L and L / 2 + 1, and 2L (folded into
// the transform), fresh, one kept and both kept. From 2^14 on, one kept
// operand and no folding, which the shorter lengths cover, to keep the
// suite short.
TEST(NttGmp, WrappedProductsAgree) {
  util::Xoshiro256 rng(31);
  for (const std::size_t limbs :
       {std::size_t{5}, detail::kNttMinLimbs - 1, detail::kNttMinLimbs,
        std::size_t{16357}, detail::kNttMaxLength}) {
    const std::size_t length = detail::wrap_length(limbs);
    const int fills = length <= 2 * detail::kNttMinLimbs ? 2 : 1;
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {length - 2, length - 2}, {length, length / 2 + 1},
        {2 * length, length}};
    for (int fill = 0; fill < fills; ++fill) {
      for (const auto& [an, bn] : shapes) {
        const bool long_length = length >= (std::size_t{1} << 14);
        if (long_length && an > length) continue;
        const LimbVec a = ntt_operand(rng, an, fill);
        const LimbVec b = ntt_operand(rng, bn, fill);
        for (const int kept : {0, 2, 3}) {
          if (long_length && kept != 2) continue;
          EXPECT_TRUE(wrapped_agrees(a, b, length, kept))
              << "L " << length << " an " << an << " bn " << bn << " kept "
              << kept << " fill " << fill;
        }
      }
    }
  }
  // A product that is 0 mod B^L - 1, one that is B^L - 1 itself, and
  // (B^L - 2)^2 = 1 mod B^L - 1, whose recombined limbs sum past B^L only
  // after the first end-around carry.
  const std::size_t length = detail::wrap_length(detail::kNttMinLimbs);
  const LimbVec ones(length, ~Limb{0});
  const LimbVec one = {1};
  LimbVec minus_one = ones;
  minus_one[0] = ~Limb{1};
  EXPECT_TRUE(wrapped_agrees(ones, ones, length, 0));
  EXPECT_TRUE(wrapped_agrees(ones, one, length, 2));
  EXPECT_TRUE(wrapped_agrees(minus_one, minus_one, length, 3));
}

// Products against kept transforms equal the plain kernels: the band the
// reciprocal forms on its kept Ih (an = n + 3 over bn = h + 1 at the wrap
// length of n + 1, which it passes by two limbs when n + 1 is a power of
// two), and the descent's two windows of one fraction (mul_window_pair)
// against two mul_window calls and GMP.
TEST(NttGmp, KeptBandsAndPairedWindowsAgree) {
  util::Xoshiro256 rng(32);
  for (const std::size_t n : {std::size_t{600}, std::size_t{1023},
                              std::size_t{4094}, std::size_t{16357}}) {
    const std::size_t h = (n + 1) / 2;
    const std::size_t length = detail::wrap_length(n + 1);
    const LimbVec a = ntt_operand(rng, n + 3, 1);
    const LimbVec b = ntt_operand(rng, h + 1, 0);
    LimbVec kept(3 * length);
    const detail::Operand bo =
        detail::keep_wrapped(b.data(), b.size(), length, kept.data());
    LimbVec r(n - h + 5);
    LimbVec scratch(
        detail::mulmid_kept_scratch_limbs(a.size(), b.size(), length));
    detail::mulmid_kept_into(r.data(), a.data(), a.size(), bo, scratch.data());
    detail::trim(r);
    EXPECT_TRUE(r == gmp_middle(a, b)) << "band n " << n;
  }
  for (const std::size_t m : {std::size_t{130}, std::size_t{2000},
                              std::size_t{8178}}) {
    // A parent of two children of m and m + 1 limbs: its fraction carries
    // 2 * bits(parent) + 64 bits, each child's 2 * bits(child) + 64.
    const LimbVec c0 = ntt_operand(rng, m, 1);
    const LimbVec c1 = ntt_operand(rng, m + 1, 1);
    const BigInt parent = big_of(c0) * big_of(c1);
    const std::size_t prec = 2 * parent.bit_length() + 64;
    const BigInt y = big_of(ntt_operand(rng, (prec + 63) / 64, 1)) >>
                     (64 - prec % 64) % 64;
    const BigInt s0 = big_of(c1).squared();
    const BigInt s1 = big_of(c0).squared();
    const std::size_t p0 = 2 * big_of(c0).bit_length() + 64;
    const std::size_t p1 = 2 * big_of(c1).bit_length() + 64;
    const auto pair =
        detail::mul_window_pair(y, s0, prec - p0, p0, s1, prec - p1, p1);
    const BigInt w0 = mul_window(y, s0, prec - p0, p0);
    const BigInt w1 = mul_window(y, s1, prec - p1, p1);
    EXPECT_EQ(pair[0], w0) << "m " << m;
    EXPECT_EQ(pair[1], w1) << "m " << m;
    Mpz expected, yz, sz;
    set_limbs(yz.v, BigIntOps::limbs(y).data(), y.limb_count());
    set_limbs(sz.v, BigIntOps::limbs(s0).data(), s0.limb_count());
    mpz_mul(expected.v, yz.v, sz.v);
    mpz_fdiv_q_2exp(expected.v, expected.v, prec - p0);
    mpz_fdiv_r_2exp(expected.v, expected.v, p0);
    EXPECT_TRUE(BigIntOps::limbs(w0) == limbs_of(expected.v)) << "m " << m;
  }
}

TEST(NttGmp, ReciprocalsAgree) {
  util::Xoshiro256 rng(30);
  constexpr std::size_t t = detail::kNttMinLimbs;
  std::vector<std::size_t> sizes = ntt_sizes(t);
  // A reciprocal of s limbs inverts s + 1 (one padding limb), and its top
  // Newton step wraps at the power of two of s + 2: s = 2^k - 2 is the
  // longest on 2^k, s = 2^k - 1 the first on 2^(k+1).
  for (const std::size_t k : {11, 15}) {
    sizes.insert(sizes.end(),
                 {(std::size_t{1} << k) - 2, (std::size_t{1} << k) - 1});
  }
  for (const std::size_t s : sizes) {
    for (int fill = 0; fill < ntt_fills(s, t); ++fill) {
      const LimbVec limbs = ntt_operand(rng, s, fill);
      // A wrong product can keep invert_into's exact corrections from
      // ending (they throw past their bound), so the wrapped product it
      // takes last ((n + 1) x n mod B^L - 1, n a limb past s) is checked
      // first.
      LimbVec wider = limbs;
      wider.push_back(limbs.back());
      ASSERT_TRUE(wrapped_agrees(wider, limbs, detail::wrap_length(s + 2), 2))
          << s << " limbs, fill " << fill;
      const BigInt d = big_of(limbs);
      // The root reciprocal's precision (ProductTree::root_reciprocal).
      const std::size_t bits = 2 * d.bit_length() + 64;
      Mpz one, q, dz;
      set_limbs(dz.v, limbs.data(), limbs.size());
      mpz_setbit(one.v, bits);
      mpz_fdiv_q(q.v, one.v, dz.v);
      EXPECT_TRUE(BigIntOps::limbs(reciprocal(d, bits)) == limbs_of(q.v))
          << s << " limbs, fill " << fill;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GmpDifferential,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace weakkeys::bn
