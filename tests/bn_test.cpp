#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <iostream>
#include <latch>
#include <set>
#include <thread>

#include "bn/bigint.hpp"
#include "bn/detail.hpp"
#include "rng/prng_source.hpp"
#include "util/prng.hpp"

namespace weakkeys::bn {
namespace {

using rng::PrngRandomSource;

BigInt big(const std::string& dec) { return BigInt::from_decimal(dec); }

BigInt random_value(util::Xoshiro256& rng, std::size_t max_bits) {
  PrngRandomSource src(rng());
  return random_bits(src, 1 + rng.below(max_bits));
}

// ------------------------------------------------------------ basics ----

TEST(BigInt, DefaultIsZero) {
  const BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_decimal(), "0");
  EXPECT_EQ(z.to_hex(), "0");
}

TEST(BigInt, NativeConstruction) {
  EXPECT_EQ(BigInt(std::uint64_t{12345}).to_decimal(), "12345");
  EXPECT_EQ(BigInt(std::int64_t{-7}).to_decimal(), "-7");
  EXPECT_EQ(BigInt(std::int64_t{INT64_MIN}).to_decimal(),
            "-9223372036854775808");
  EXPECT_EQ(BigInt(~std::uint64_t{0}).to_decimal(), "18446744073709551615");
}

TEST(BigInt, ParityAndSign) {
  EXPECT_TRUE(BigInt(4).is_even());
  EXPECT_TRUE(BigInt(5).is_odd());
  EXPECT_TRUE(BigInt(0).is_even());
  EXPECT_TRUE(BigInt(-3).is_odd());
  EXPECT_TRUE(BigInt(-3).is_negative());
  EXPECT_EQ((-BigInt(3)).sign(), -1);
  EXPECT_EQ(BigInt(0), -BigInt(0));
}

TEST(BigInt, ToUint64Bounds) {
  EXPECT_EQ(BigInt(std::uint64_t{77}).to_uint64(), 77u);
  EXPECT_THROW((void)BigInt(-1).to_uint64(), std::overflow_error);
  EXPECT_THROW((void)(BigInt(1) << 64).to_uint64(), std::overflow_error);
}

TEST(BigInt, DecimalRoundTrip) {
  const std::string n =
      "123456789012345678901234567890123456789012345678901234567890";
  EXPECT_EQ(big(n).to_decimal(), n);
  EXPECT_EQ(big("-" + n).to_decimal(), "-" + n);
}

TEST(BigInt, HexRoundTrip) {
  const std::string h = "deadbeefcafef00d0123456789abcdef00000001";
  EXPECT_EQ(BigInt::from_hex(h).to_hex(), h);
  EXPECT_EQ(BigInt::from_hex("0000ff").to_hex(), "ff");
  EXPECT_EQ(BigInt::from_hex("-ff").to_decimal(), "-255");
}

TEST(BigInt, HexDecimalAgree) {
  EXPECT_EQ(BigInt::from_hex("ff"), big("255"));
  EXPECT_EQ(BigInt::from_hex("10000000000000000"), big("18446744073709551616"));
}

TEST(BigInt, ParseRejectsGarbage) {
  EXPECT_THROW(BigInt::from_decimal(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_decimal("12a"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("xyz"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("-"), std::invalid_argument);
}

TEST(BigInt, BytesRoundTrip) {
  const std::vector<std::uint8_t> bytes = {0x01, 0x02, 0xfe, 0x00, 0x7f};
  const BigInt v = BigInt::from_bytes(bytes);
  EXPECT_EQ(v.to_hex(), "102fe007f");
  EXPECT_EQ(v.to_bytes(), bytes);
  EXPECT_EQ(BigInt().to_bytes(), std::vector<std::uint8_t>{0});
}

TEST(BigInt, BitAccess) {
  const BigInt v = BigInt::from_hex("8000000000000001");  // bit 63 and bit 0
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 64u);
}

// -------------------------------------------------------- arithmetic ----

TEST(BigInt, AdditionSigns) {
  EXPECT_EQ(BigInt(5) + BigInt(-3), BigInt(2));
  EXPECT_EQ(BigInt(-5) + BigInt(3), BigInt(-2));
  EXPECT_EQ(BigInt(-5) + BigInt(-3), BigInt(-8));
  EXPECT_EQ(BigInt(5) + BigInt(-5), BigInt(0));
}

TEST(BigInt, SubtractionSigns) {
  EXPECT_EQ(BigInt(3) - BigInt(5), BigInt(-2));
  EXPECT_EQ(BigInt(-3) - BigInt(-5), BigInt(2));
  EXPECT_EQ(BigInt(3) - BigInt(3), BigInt(0));
}

TEST(BigInt, CarryPropagation) {
  const BigInt max64(~std::uint64_t{0});
  EXPECT_EQ((max64 + BigInt(1)).to_hex(), "10000000000000000");
  EXPECT_EQ(((max64 + BigInt(1)) - BigInt(1)), max64);
}

TEST(BigInt, MultiplicationBasics) {
  EXPECT_EQ(BigInt(6) * BigInt(7), BigInt(42));
  EXPECT_EQ(BigInt(-6) * BigInt(7), BigInt(-42));
  EXPECT_EQ(BigInt(-6) * BigInt(-7), BigInt(42));
  EXPECT_EQ(BigInt(6) * BigInt(0), BigInt(0));
}

TEST(BigInt, KnownLargeProduct) {
  // (2^128 - 1)^2 = 2^256 - 2^129 + 1
  const BigInt x = (BigInt(1) << 128) - BigInt(1);
  EXPECT_EQ(x * x, (BigInt(1) << 256) - (BigInt(1) << 129) + BigInt(1));
  EXPECT_EQ(x.squared(), x * x);
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ(BigInt(7) / BigInt(2), BigInt(3));
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) / BigInt(-2), BigInt(3));
  EXPECT_EQ(BigInt(7) % BigInt(2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_EQ(BigInt(7) % BigInt(-2), BigInt(1));
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(0), std::domain_error);
  EXPECT_THROW(BigInt(1) % BigInt(0), std::domain_error);
}

TEST(BigInt, ShiftRoundTrip) {
  const BigInt v = big("123456789123456789");
  for (std::size_t s : {1u, 7u, 63u, 64u, 65u, 200u}) {
    EXPECT_EQ((v << s) >> s, v) << s;
  }
  EXPECT_EQ(BigInt(1) << 0, BigInt(1));
  EXPECT_EQ(BigInt(255) >> 8, BigInt(0));
}

TEST(BigInt, Ordering) {
  EXPECT_LT(BigInt(-2), BigInt(1));
  EXPECT_LT(BigInt(-5), BigInt(-2));
  EXPECT_LT(BigInt(2), BigInt(5));
  EXPECT_LT(BigInt(5), BigInt(1) << 64);
  EXPECT_GT(BigInt(0), BigInt(-1));
}

// Property sweep: a = q*b + r with |r| < |b| and sign(r) == sign(a),
// across random operand shapes (exercises Knuth, Newton, and the
// single-limb paths).
class DivModProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DivModProperty, Invariant) {
  util::Xoshiro256 rng(GetParam());
  for (int iter = 0; iter < 60; ++iter) {
    BigInt a = random_value(rng, 4096);
    BigInt b = random_value(rng, 2048);
    if (b.is_zero()) b = BigInt(1);
    if (rng.chance(0.5)) a = -a;
    if (rng.chance(0.5)) b = -b;
    const auto [q, r] = BigInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), a.sign());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DivModProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Property sweep: ring axioms on random values.
class RingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingProperty, Axioms) {
  util::Xoshiro256 rng(GetParam());
  for (int iter = 0; iter < 40; ++iter) {
    const BigInt a = random_value(rng, 1500);
    const BigInt b = random_value(rng, 1500);
    const BigInt c = random_value(rng, 1500);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, BigInt(0));
    EXPECT_EQ((a - b) + b, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingProperty, ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------ gcd / modular / prime ----

TEST(Gcd, SmallKnownValues) {
  EXPECT_EQ(gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(gcd(BigInt(17), BigInt(5)), BigInt(1));
  EXPECT_EQ(gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(gcd(BigInt(5), BigInt(0)), BigInt(5));
  EXPECT_EQ(gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(gcd(BigInt(-12), BigInt(18)), BigInt(6));
}

TEST(Gcd, RecoversPlantedCommonFactor) {
  const BigInt p = big("1000000000000000003");  // prime
  const BigInt a = p * big("999999999999999989");
  const BigInt b = p * big("999999999999999967");
  EXPECT_EQ(gcd(a, b), p);
}

// gcd with one operand more than twice the other's length (reduced by
// Montgomery steps first) against the plain binary gcd of the short
// operand and the long one's remainder: short operands of 1 to 4 limbs,
// odd and times powers of two, long ones of up to 40 limbs, a shared factor
// planted in half the pairs, either argument order, signs, and zero.
TEST(Gcd, UnbalancedOperandsMatchRemainder) {
  util::Xoshiro256 rng(39);
  for (int iter = 0; iter < 400; ++iter) {
    BigInt a = random_value(rng, 256) + BigInt(1);
    BigInt b = random_value(rng, 64 * 40);
    if (iter % 4 == 1) a = a * (BigInt(2) << rng.below(70));
    if (iter % 8 == 1) b = b << rng.below(70);
    if (iter % 2 == 0) {
      const BigInt f = random_value(rng, 40) + BigInt(2);
      a = a * f;
      b = b * f;
    }
    if (iter % 3 == 0) b = -b;
    const BigInt want = gcd(a, b % a);
    EXPECT_EQ(gcd(a, b), want) << a.to_hex() << " " << b.to_hex();
    EXPECT_EQ(gcd(b, a), want) << a.to_hex() << " " << b.to_hex();
  }
  const BigInt odd = big("1000000000000000003");
  const BigInt long_odd = odd * odd * odd * odd * odd + BigInt(2);
  EXPECT_EQ(gcd(BigInt(0), long_odd), long_odd);
  EXPECT_EQ(gcd(BigInt(6), long_odd * BigInt(3)), BigInt(3));
  EXPECT_EQ(gcd(BigInt(8), long_odd << 2), BigInt(4));
  EXPECT_EQ(gcd(odd, long_odd * odd), odd);
  EXPECT_EQ(gcd(odd, long_odd), BigInt(1));
}

TEST(Gcd, ExtendedGcdBezout) {
  util::Xoshiro256 rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    const BigInt a = random_value(rng, 512);
    const BigInt b = random_value(rng, 512);
    const auto eg = extended_gcd(a, b);
    EXPECT_EQ(a * eg.x + b * eg.y, eg.g);
    EXPECT_EQ(eg.g, gcd(a, b));
  }
}

TEST(Modular, InverseProperty) {
  const BigInt m = big("1000000007");
  for (std::uint64_t a : {2ull, 3ull, 999999999ull, 123456789ull}) {
    const BigInt inv = mod_inverse(BigInt(a), m);
    EXPECT_EQ((BigInt(a) * inv) % m, BigInt(1));
  }
}

TEST(Modular, InverseFailsWhenNotCoprime) {
  EXPECT_THROW(mod_inverse(BigInt(6), BigInt(9)), std::domain_error);
  EXPECT_THROW(mod_inverse(BigInt(5), BigInt(1)), std::domain_error);
}

TEST(Modular, ModPowKnownValues) {
  EXPECT_EQ(mod_pow(BigInt(2), BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(mod_pow(BigInt(5), BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(mod_pow(BigInt(0), BigInt(5), BigInt(7)), BigInt(0));
  // Fermat: a^(p-1) = 1 mod p.
  const BigInt p = big("1000000000000000003");
  EXPECT_EQ(mod_pow(BigInt(2), p - BigInt(1), p), BigInt(1));
}

TEST(Modular, ModPowEvenModulus) {
  // Exercises the non-Montgomery path.
  EXPECT_EQ(mod_pow(BigInt(3), BigInt(4), BigInt(100)), BigInt(81));
  EXPECT_EQ(mod_pow(BigInt(7), BigInt(13), BigInt(64)), BigInt(39));
}

TEST(Modular, ModPowMatchesNaive) {
  util::Xoshiro256 rng(9);
  for (int iter = 0; iter < 30; ++iter) {
    const BigInt a = random_value(rng, 96);
    const std::uint64_t e = rng.below(50);
    BigInt m = random_value(rng, 96) + BigInt(2);
    BigInt naive(1);
    for (std::uint64_t i = 0; i < e; ++i) naive = (naive * a) % m;
    EXPECT_EQ(mod_pow(a, BigInt(e), m), naive);
  }
}

TEST(Prime, SmallPrimesSieve) {
  const auto& primes = small_primes(10);
  const std::vector<std::uint32_t> expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29};
  EXPECT_EQ(primes, expected);
  EXPECT_EQ(small_primes(2048).size(), 2048u);
  EXPECT_EQ(small_primes(2048).back(), 17863u);  // the 2048th prime
}

TEST(Prime, ModSmall) {
  const BigInt v = big("123456789123456789123456789");
  EXPECT_EQ(mod_small(v, 97), v % BigInt(97) == BigInt(0)
                                  ? 0u
                                  : (v % BigInt(97)).to_uint64());
  EXPECT_EQ(mod_small(BigInt(0), 7), 0u);
  EXPECT_THROW(mod_small(v, 0), std::domain_error);
}

TEST(Prime, MillerRabinKnownPrimes) {
  PrngRandomSource src(3);
  EXPECT_TRUE(is_probable_prime(BigInt(2), src));
  EXPECT_TRUE(is_probable_prime(BigInt(3), src));
  EXPECT_TRUE(is_probable_prime(BigInt(97), src));
  EXPECT_TRUE(is_probable_prime(big("170141183460469231731687303715884105727"),
                                src));  // 2^127 - 1
}

TEST(Prime, MillerRabinKnownComposites) {
  PrngRandomSource src(3);
  EXPECT_FALSE(is_probable_prime(BigInt(1), src));
  EXPECT_FALSE(is_probable_prime(BigInt(0), src));
  EXPECT_FALSE(is_probable_prime(BigInt(561), src));   // Carmichael
  EXPECT_FALSE(is_probable_prime(BigInt(8911), src));  // Carmichael
  EXPECT_FALSE(is_probable_prime(big("170141183460469231731687303715884105725"),
                                 src));
}

TEST(Prime, RandomBitsSizedCorrectly) {
  PrngRandomSource src(4);
  for (std::size_t bits : {1u, 7u, 8u, 9u, 64u, 65u, 256u}) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_LE(random_bits(src, bits).bit_length(), bits);
    }
  }
  EXPECT_TRUE(random_bits(src, 0).is_zero());
}

TEST(Prime, RandomRangeInclusive) {
  PrngRandomSource src(4);
  const BigInt low(10), high(20);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const BigInt v = random_range(src, low, high);
    ASSERT_GE(v, low);
    ASSERT_LE(v, high);
    seen.insert(v.to_uint64());
  }
  EXPECT_EQ(seen.size(), 11u);  // full coverage of [10, 20]
  EXPECT_THROW(random_range(src, high, low), std::invalid_argument);
}

// ------------------------------------------------------ fixed point ----

TEST(FixedPoint, ReciprocalIsFloorOfPowerOverD) {
  util::Xoshiro256 rng(41);
  std::vector<BigInt> divisors = {BigInt(1), BigInt(2), BigInt(3),
                                  BigInt(1) << 4095,  // normalized beta^n / 2
                                  (BigInt(1) << 4096) - BigInt(1)};
  for (int i = 0; i < 40; ++i) {
    BigInt d = random_value(rng, 1 + rng.below(9000));
    divisors.push_back(d.is_zero() ? BigInt(5) : d);
  }
  for (const BigInt& d : divisors) {
    const std::size_t b = d.bit_length();
    for (const std::size_t bits : {b / 2, b, 2 * b + 64, 3 * b + 7}) {
      ASSERT_EQ(reciprocal(d, bits), (BigInt(1) << bits) / d)
          << "bits(d)=" << b << " bits=" << bits;
    }
  }
  EXPECT_THROW(reciprocal(BigInt(0), 10), std::domain_error);
}

TEST(FixedPoint, MulWindowMatchesShiftAndMask) {
  util::Xoshiro256 rng(42);
  for (int i = 0; i < 200; ++i) {
    const BigInt a = random_value(rng, 1 + rng.below(5000));
    const BigInt b = random_value(rng, 1 + rng.below(5000));
    const std::size_t total = (a * b).bit_length() + 70;
    const std::size_t shift = rng.below(total);
    const std::size_t bits = rng.below(total);
    const BigInt window = (a * b) >> shift;
    ASSERT_EQ(mul_window(a, b, shift, bits),
              window - ((window >> bits) << bits))
        << "shift " << shift << " bits " << bits;
  }
}

// ------------------------------------------------- middle product ----

using detail::LimbVec;

BigInt from_limbs(const LimbVec& v) { return BigIntOps::make(v, 1); }

/// Limb patterns for the middle product's edge corrections: random limbs,
/// all ones (every block sum A0 + A1 carries at every limb), limbs drawn
/// from {0, 1, B-2, B-1} (long carry and borrow runs), and a b whose low
/// half is zero under a top limb of ones and whose high half is ones under
/// a zero top limb (b0 - b1 borrows at every limb but the top).
enum class Fill { kRandom, kOnes, kExtreme, kBorrows };

LimbVec limbs_of(util::Xoshiro256& rng, std::size_t n, Fill fill) {
  constexpr Limb kOnes = ~Limb{0};
  LimbVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (fill) {
      case Fill::kRandom: v[i] = rng(); break;
      case Fill::kOnes: v[i] = kOnes; break;
      case Fill::kExtreme: {
        const Limb choices[] = {0, 1, kOnes - 1, kOnes};
        v[i] = choices[rng.below(4)];
        break;
      }
      case Fill::kBorrows: {
        const std::size_t m = (n + 1) / 2;
        if (i < m) v[i] = i + 1 == m ? kOnes : 0;
        else v[i] = i + 1 == n ? 0 : kOnes;
        break;
      }
    }
  }
  v.back() |= 1;  // keep every limb significant
  return v;
}

/// sum of x_i * y_j * B^(i+j) over i + j < k.
BigInt lower_triangle(const LimbVec& x, const LimbVec& y, std::size_t k) {
  const BigInt xv = from_limbs(x);
  BigInt sum;
  for (std::size_t j = 0; j < y.size() && j < k; ++j) {
    const BigInt low = xv - ((xv >> (64 * (k - j))) << (64 * (k - j)));
    sum += (low * BigInt(y[j])) << (64 * j);
  }
  return sum;
}

/// sum of x_i * y_j * B^(i+j-lo) over lo <= i + j < hi, from full products.
BigInt band_sum(const LimbVec& x, const LimbVec& y, std::size_t lo,
                std::size_t hi) {
  return (lower_triangle(x, y, hi) - lower_triangle(x, y, lo)) >> (64 * lo);
}

TEST(MiddleProduct, MatchesBandSumAcrossThresholdsAndShapes) {
  util::Xoshiro256 rng(51);
  auto& kara = Tuning::karatsuba_threshold();
  const std::size_t saved = kara;
  const Fill fills[] = {Fill::kRandom, Fill::kOnes, Fill::kExtreme,
                        Fill::kBorrows};
  // Each bn around the crossings of thresholds 2, 3, 8 and 24 and their
  // halvings, odd and even, against balanced (n = bn), long (n > bn) and
  // narrow (n < bn) bands.
  for (const std::size_t bn : {1u, 2u, 3u, 5u, 7u, 8u, 16u, 23u, 24u, 25u,
                               47u, 48u, 49u, 50u, 96u, 101u}) {
    for (const std::size_t n : {bn, bn + 1, bn + 2, 2 * bn + 3,
                                bn > 3 ? bn / 3 : 1, bn > 1 ? bn - 1 : 1}) {
      const Fill fa = fills[rng.below(4)];
      const Fill fb = fills[rng.below(4)];
      const LimbVec a = limbs_of(rng, n + bn - 1, fa);
      const LimbVec b = limbs_of(rng, bn, fb);
      const BigInt expected = band_sum(a, b, bn - 1, a.size());
      for (const std::size_t t : {2u, 3u, 8u, 24u, 1000000u}) {
        kara = t;
        ASSERT_EQ(from_limbs(detail::mul_middle(a, b)), expected)
            << "bn " << bn << " n " << n << " threshold " << t << " fills "
            << static_cast<int>(fa) << "/" << static_cast<int>(fb);
      }
    }
  }
  kara = saved;
}

TEST(MiddleProduct, EveryCarryAndBorrowAtTheTopSplit) {
  // a all ones: every limb of A0 + A1 and A1 + A2 carries; b0 - b1 borrows
  // at every limb below its top one.
  util::Xoshiro256 rng(52);
  auto& kara = Tuning::karatsuba_threshold();
  const std::size_t saved = kara;
  for (const std::size_t bn : {24u, 48u, 64u, 200u}) {
    const LimbVec a = limbs_of(rng, 2 * bn - 1, Fill::kOnes);
    const LimbVec b = limbs_of(rng, bn, Fill::kBorrows);
    kara = 1000000;
    const LimbVec basecase = detail::mul_middle(a, b);
    EXPECT_EQ(from_limbs(basecase), band_sum(a, b, bn - 1, a.size()));
    for (const std::size_t t : {2u, 5u, 24u}) {
      kara = t;
      EXPECT_EQ(detail::mul_middle(a, b), basecase)
          << "bn " << bn << " threshold " << t;
    }
  }
  kara = saved;
}

TEST(MiddleProduct, MulWindowTakesTheFullProductWhenTheGuardCouldCarry) {
  // mul_window computes a narrow window from the band that starts two limbs
  // below it, at base = shift / 64 - 2. Make that band's two guard limbs
  // B^2 - 1: the diagonals below base (nonzero here) then carry into the
  // window, so the band alone is one too small there, and the upper guard
  // limb B - 1 >= B - bn sends mul_window to the full product.
  util::Xoshiro256 rng(53);
  constexpr Limb kOnes = ~Limb{0};
  const std::size_t xn = 40, yn = 10, lo = 20, bits = 64 * 8;
  const std::size_t base = lo - 2, hi = lo + bits / 64;
  LimbVec x = limbs_of(rng, xn, Fill::kRandom);
  LimbVec y = limbs_of(rng, yn, Fill::kRandom);
  y[0] = 1;  // so x[base] and x[base + 1] set the guard limbs directly
  auto rest = [&](std::size_t k) {  // diagonal k without x[k] * y[0]
    BigInt sum;
    for (std::size_t j = 1; j < yn && j <= k; ++j) {
      sum += BigInt(x[k - j]) * BigInt(y[j]);
    }
    return sum;
  };
  const BigInt limb_mod = BigInt(1) << 64;
  const auto low_limb = [&](const BigInt& v) {
    return (v % limb_mod).to_uint64();
  };
  x[base] = kOnes - low_limb(rest(base));
  const BigInt carry = (BigInt(x[base]) + rest(base)) >> 64;
  x[base + 1] = kOnes - low_limb(carry + rest(base + 1));

  const BigInt band = band_sum(x, y, base, hi);
  const BigInt guard = band % (limb_mod * limb_mod);
  ASSERT_EQ(guard, limb_mod * limb_mod - BigInt(1));
  ASSERT_GE((guard >> 64).to_uint64(), kOnes - yn + 1);

  const BigInt modulus = BigInt(1) << bits;
  const BigInt product = from_limbs(x) * from_limbs(y);
  const BigInt window = (product >> (64 * lo)) % modulus;
  ASSERT_NE((band >> 128) % modulus, window);  // the band alone is wrong
  EXPECT_EQ(mul_window(from_limbs(x), from_limbs(y), 64 * lo, bits), window);
  EXPECT_EQ(mul_window(from_limbs(y), from_limbs(x), 64 * lo, bits), window);
}

// The end-around limb arithmetic around wrapped products, against BigInt
// mod B^L - 1: random and extreme limbs, whose sums and differences carry
// and borrow across the wrap, B^L - 1 (the second form of 0) and 0.
TEST(WrappedArithmetic, MatchesBigIntModuloBToTheLMinusOne) {
  util::Xoshiro256 rng(55);
  const auto value = [](LimbVec v) {
    detail::trim(v);
    return from_limbs(v);
  };
  for (const std::size_t length : {1, 2, 3, 7}) {
    const BigInt m = (BigInt(1) << (64 * length)) - BigInt(1);
    for (int iter = 0; iter < 300; ++iter) {
      const Fill fill = iter % 2 == 0 ? Fill::kRandom : Fill::kExtreme;
      LimbVec a = limbs_of(rng, length, fill);
      LimbVec b = limbs_of(rng, length, fill);
      if (iter % 60 == 1) a.assign(length, ~Limb{0});
      if (iter % 60 == 3) b.assign(length, ~Limb{0});
      if (iter % 60 == 5) b.assign(length, 0);
      LimbVec r(length);
      detail::sub_wrapped(r.data(), a.data(), b.data(), length);
      EXPECT_EQ(value(r), (value(a) % m + m - value(b) % m) % m) << length;
      const LimbVec x = limbs_of(rng, 1 + rng.below(3 * length), fill);
      detail::fold_wrapped(r.data(), length, x.data(), x.size());
      EXPECT_EQ(value(r), value(x) % m) << length;
      const std::size_t bit = rng.below(64 * length);
      r = a;
      detail::sub_from_power_wrapped(r.data(), length, bit);
      EXPECT_EQ(value(r), ((BigInt(1) << bit) + m - value(a) % m) % m)
          << length << " bit " << bit;
    }
  }
}

TEST(MiddleProduct, PairedWindowsTakeTheFullProductWhenTheGuardCouldCarry) {
  // The same guard, at NTT sizes, for the first of two windows that share
  // one transform of x (detail::mul_window_pair): both b's have yn limbs,
  // so the shared band of each starts at base, two limbs below the window.
  util::Xoshiro256 rng(54);
  constexpr Limb kOnes = ~Limb{0};
  const std::size_t xn = 1000, yn = 300, lo = 400, bits = 64 * 300;
  const std::size_t base = lo - 2, hi = lo + bits / 64;
  LimbVec x = limbs_of(rng, xn, Fill::kRandom);
  LimbVec y = limbs_of(rng, yn, Fill::kRandom);
  const LimbVec other = limbs_of(rng, yn, Fill::kRandom);
  y[0] = 1;
  auto rest = [&](std::size_t k) {
    BigInt sum;
    for (std::size_t j = 1; j < yn && j <= k; ++j) {
      sum += BigInt(x[k - j]) * BigInt(y[j]);
    }
    return sum;
  };
  const BigInt limb_mod = BigInt(1) << 64;
  const auto low_limb = [&](const BigInt& v) {
    return (v % limb_mod).to_uint64();
  };
  x[base] = kOnes - low_limb(rest(base));
  const BigInt carry = (BigInt(x[base]) + rest(base)) >> 64;
  x[base + 1] = kOnes - low_limb(carry + rest(base + 1));

  const BigInt band = band_sum(x, y, base, hi);
  ASSERT_EQ(band % (limb_mod * limb_mod), limb_mod * limb_mod - BigInt(1));
  const BigInt modulus = BigInt(1) << bits;
  const BigInt window =
      ((from_limbs(x) * from_limbs(y)) >> (64 * lo)) % modulus;
  ASSERT_NE((band >> 128) % modulus, window);  // the band alone is wrong
  const auto pair = detail::mul_window_pair(
      from_limbs(x), from_limbs(y), 64 * lo, bits, from_limbs(other),
      64 * lo, bits);
  EXPECT_EQ(pair[0], window);
  EXPECT_EQ(pair[1], mul_window(from_limbs(x), from_limbs(other), 64 * lo,
                                bits));
}

// ------------------------------------------------------- NTT tables ----

// The NTT's root tables, and the side tables of the transforms longer
// than them (2^13 roots), are built on first use. Eight threads start at
// once (each test runs in its own process under ctest, so this is the
// first use): each runs a product, a middle product, a wrapped product and
// a band against kept transforms just past the crossover, which must equal
// the schoolbook ones, and a product and a square of one 2^16 transform, a
// band of one 2^14 transform, two windows of one operand on a shared
// transform and a reciprocal whose Newton steps are wrapped 2^13
// transforms, which must equal the main thread's results afterwards. Under
// TSan this also checks the one-time builds and each call's scratch for
// races.
TEST(NttTables, ConcurrentFirstUseMatchesSerial) {
  constexpr int kThreads = 8;
  const std::size_t n = detail::kNttMinLimbs + 5;
  util::Xoshiro256 rng(35);
  const auto operand = [&](std::size_t size) {
    detail::LimbVec v(size);
    for (auto& limb : v) limb = rng();
    v.back() |= 1;
    return v;
  };
  std::vector<detail::LimbVec> a(kThreads), b(kThreads), mid(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    a[t] = operand(n);
    b[t] = operand(n);
    mid[t] = operand(3 * n);
  }
  const detail::LimbVec x = operand(16400);  // 32,799 coefficients
  const detail::LimbVec y = operand(16400);
  const detail::LimbVec wide = operand(8400);  // band of 4,201 over 4,200
  const detail::LimbVec narrow = operand(4200);
  const BigInt d = BigIntOps::make(operand(4200), 1);
  const std::size_t bits = 2 * d.bit_length() + 64;
  const BigInt fraction = BigIntOps::make(wide, 1);
  const BigInt square0 = BigIntOps::make(narrow, 1);
  const BigInt square1 = BigIntOps::make(operand(4201), 1);
  const std::size_t wrap = detail::wrap_length(n);
  const std::size_t band_length = std::bit_ceil(3 * n);
  struct Results {
    detail::LimbVec product, middle, wrapped, kept_band, long_product, square,
        band;
    std::array<BigInt, 2> windows;
    BigInt inverse;
  };
  const auto run = [&](int t) {
    Results r;
    r.product = detail::mul_karatsuba(a[t], b[t]);
    r.middle = detail::mul_middle(mid[t], b[t]);
    detail::LimbVec scratch(
        std::max(detail::mul_wrapped_scratch_limbs(wrap, n, n, false),
                 detail::mulmid_kept_scratch_limbs(3 * n, n, band_length)));
    r.wrapped.resize(wrap);
    detail::mul_wrapped_into(r.wrapped.data(), wrap, {a[t].data(), n},
                             {b[t].data(), n}, scratch.data());
    detail::LimbVec kept(3 * band_length);
    const detail::Operand bk =
        detail::keep_wrapped(b[t].data(), n, band_length, kept.data());
    r.kept_band.resize(2 * n + 3);
    detail::mulmid_kept_into(r.kept_band.data(), mid[t].data(), 3 * n, bk,
                             scratch.data());
    detail::trim(r.kept_band);
    r.long_product = detail::mul_karatsuba(x, y);
    r.square = detail::mul_karatsuba(x, x);
    r.band = detail::mul_middle(wide, narrow);
    r.windows = detail::mul_window_pair(fraction, square0, 64 * 4200 - 9,
                                        64 * 4200 + 70, square1,
                                        64 * 4200 + 5, 64 * 4200 + 64);
    r.inverse = reciprocal(d, bits);
    return r;
  };
  std::vector<Results> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] = run(t);
    });
  }
  for (auto& thread : threads) thread.join();

  const Results serial = run(0);
  ASSERT_EQ(serial.long_product.size(), 32800u);
  auto& kara = Tuning::karatsuba_threshold();
  const std::size_t saved = kara;
  kara = 1000000;  // schoolbook, no transform
  for (int t = 0; t < kThreads; ++t) {
    const Results& r = results[t];
    EXPECT_EQ(r.product, detail::mul_schoolbook(a[t], b[t])) << t;
    EXPECT_EQ(r.middle, detail::mul_middle(mid[t], b[t])) << t;
    detail::LimbVec folded(wrap);
    const detail::LimbVec full = detail::mul_schoolbook(a[t], b[t]);
    detail::fold_wrapped(folded.data(), wrap, full.data(), full.size());
    EXPECT_EQ(r.wrapped, folded) << t;
    EXPECT_EQ(r.kept_band, r.middle) << t;
    EXPECT_TRUE(r.windows == serial.windows) << t;
    EXPECT_TRUE(r.long_product == serial.long_product) << t;
    EXPECT_TRUE(r.square == serial.square) << t;
    EXPECT_TRUE(r.band == serial.band) << t;
    EXPECT_EQ(r.inverse, serial.inverse) << t;
  }
  EXPECT_EQ(serial.windows[0],
            mul_window(fraction, square0, 64 * 4200 - 9, 64 * 4200 + 70));
  EXPECT_EQ(serial.windows[1],
            mul_window(fraction, square1, 64 * 4200 + 5, 64 * 4200 + 64));
  kara = saved;
}

// The AVX-512 lane kernels against the scalar ones they replace: every
// forward transform, inverse transform and pointwise product at every
// power-of-two length up to the 2^16 cap, for each prime, on random entries
// of the kernel's input range, on that range's edges (0 and its top,
// 2p - 1 or 4p - 1) sprinkled among random ones, and on the top alone.
// The outputs must agree limb for limb. Its first line names the kernel
// products run.
TEST(NttKernels, LanesMatchScalarLimbForLimb) {
  std::cout << "[ ntt      ] product kernel: "
            << (detail::ntt_kernel() == detail::NttKernel::avx512 ? "avx512"
                                                                  : "scalar")
            << std::endl;
  if (!detail::ntt_kernel_available(detail::NttKernel::avx512)) {
    GTEST_SKIP() << "CPU lacks AVX-512F/DQ";
  }
  using detail::NttStep;
  util::Xoshiro256 rng(39);
  for (std::size_t prime = 0; prime < 3; ++prime) {
    const Limb p = detail::ntt_prime(prime);
    for (std::size_t length = 2; length <= detail::kNttMaxLength;
         length *= 2) {
      for (const NttStep step :
           {NttStep::forward, NttStep::inverse, NttStep::pointwise}) {
        const Limb bound = step == NttStep::inverse ? 4 * p : 2 * p;
        for (int fill = 0; fill < 3; ++fill) {
          const auto entries = [&] {
            detail::LimbVec v(length);
            for (std::size_t k = 0; k < length; ++k) {
              const Limb r = rng();
              v[k] = fill == 2 ? bound - 1
                     : fill == 1 && r % 5 == 0 ? 0
                     : fill == 1 && r % 5 == 1 ? bound - 1
                                                : r % bound;
            }
            return v;
          };
          const detail::LimbVec x = entries();
          const detail::LimbVec y = entries();
          detail::LimbVec lanes = x;
          detail::LimbVec scalar = x;
          detail::ntt_run_kernel(detail::NttKernel::avx512, step, prime,
                                 lanes.data(), y.data(), length);
          detail::ntt_run_kernel(detail::NttKernel::scalar, step, prime,
                                 scalar.data(), y.data(), length);
          ASSERT_EQ(lanes, scalar)
              << "prime " << prime << " length " << length << " step "
              << static_cast<int>(step) << " fill " << fill;
        }
      }
    }
  }
}

// ---------------------------------------------------- tuning knobs ----

TEST(Tuning, KaratsubaMatchesSchoolbookAcrossThresholds) {
  util::Xoshiro256 rng(31);
  const BigInt a = random_value(rng, 8000);
  const BigInt b = random_value(rng, 8000);
  const BigInt reference = a * b;

  auto& threshold = Tuning::karatsuba_threshold();
  const std::size_t saved = threshold;
  for (std::size_t t : {8u, 16u, 40u, 1000000u}) {
    threshold = t;
    EXPECT_EQ(a * b, reference) << "threshold " << t;
  }
  threshold = saved;
}

TEST(Tuning, KaratsubaSquaresAndMultipliesLargeOperands) {
  util::Xoshiro256 rng(33);
  const BigInt a = random_value(rng, 60000);
  const BigInt b = random_value(rng, 60000);

  auto& kara = Tuning::karatsuba_threshold();
  const std::size_t saved = kara;
  kara = 1000000;  // schoolbook-only reference
  const BigInt product = a * b;
  const BigInt square = a.squared();
  for (std::size_t t : {2u, 16u, 48u, 200u}) {
    kara = t;
    EXPECT_EQ(a * b, product) << "threshold " << t;
    EXPECT_EQ(a.squared(), square) << "threshold " << t;
    EXPECT_EQ(a * a, square) << "threshold " << t;
  }
  kara = saved;
}

TEST(Tuning, KaratsubaHandlesLopsidedOperands) {
  util::Xoshiro256 rng(34);
  const BigInt a = random_value(rng, 80000);
  const BigInt b = random_value(rng, 9000);
  auto& kara = Tuning::karatsuba_threshold();
  const std::size_t saved = kara;
  kara = 1000000;
  const BigInt reference = a * b;
  for (std::size_t t : {2u, 32u}) {
    kara = t;
    EXPECT_EQ(a * b, reference) << "threshold " << t;
    EXPECT_EQ(b * a, reference) << "threshold " << t;
  }
  kara = saved;
}

TEST(Tuning, NewtonDivisionMatchesKnuthAcrossThresholds) {
  util::Xoshiro256 rng(32);
  const BigInt a = random_value(rng, 16000);
  const BigInt b = random_value(rng, 7000) + BigInt(1);
  const auto reference = BigInt::divmod(a, b);

  auto& threshold = Tuning::newton_div_threshold();
  const std::size_t saved = threshold;
  for (std::size_t t : {8u, 32u, 1000000u}) {
    threshold = t;
    const auto got = BigInt::divmod(a, b);
    EXPECT_EQ(got.quotient, reference.quotient) << "threshold " << t;
    EXPECT_EQ(got.remainder, reference.remainder) << "threshold " << t;
  }
  threshold = saved;
}

}  // namespace
}  // namespace weakkeys::bn
