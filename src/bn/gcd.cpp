// GCD and extended GCD.
//
// Pairwise gcd is the last step of the batch GCD pipeline (recovering
// p = gcd(N_i, z_i / N_i)); operand sizes there are modulus-sized. gcd is
// Pornin's optimised binary GCD ("Optimized Binary GCD for Modular
// Inversion", 2020) on raw limbs: 31 binary steps at a time run on one-word
// approximations (top 33 and low 31 bits), then one pass applies them to
// the full operands. Operands of up to kSmallLimbs limbs stay on the
// stack. An operand more than twice the other's length (a divisor against
// a product of small primes) is first brought to the other's length by
// Montgomery reduction. Extended GCD (classic Euclid on quotients) backs
// modular inversion for RSA private exponents.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "bn/detail.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::bn {

namespace {

/// Binary steps per outer pass: the low bits of the word approximations
/// that stay exact.
constexpr int kSteps = 31;
constexpr Limb kLowMask = (Limb{1} << kSteps) - 1;

/// Binary GCD of two words.
Limb gcd_word(Limb a, Limb b) {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = std::countr_zero(a | b);
  a >>= std::countr_zero(a);
  do {
    b >>= std::countr_zero(b);
    if (a > b) std::swap(a, b);
    b -= a;
  } while (b != 0);
  return a << shift;
}

std::size_t trailing_zero_bits(const Limb* x, std::size_t n) {
  std::size_t i = 0;
  while (i < n && x[i] == 0) ++i;
  return i == n ? 0 : i * 64 + static_cast<std::size_t>(std::countr_zero(x[i]));
}

/// x[0, n) >>= bits.
void shift_right(Limb* x, std::size_t n, std::size_t bits) {
  const std::size_t limbs = bits / 64;
  const unsigned s = bits % 64;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb lo = i + limbs < n ? x[i + limbs] : 0;
    const Limb hi = i + limbs + 1 < n ? x[i + limbs + 1] : 0;
    x[i] = s == 0 ? lo : (lo >> s) | (hi << (64 - s));
  }
}

/// x[0, n) = |x[0, n) + top * beta^n| / 2^kSteps, where the division is
/// exact and the quotient fits n limbs. `top` is the signed high word.
void take_abs_and_shift(Limb* x, std::size_t n, Limb top) {
  if (static_cast<std::int64_t>(top) < 0) {
    Limb carry = 1;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = ~x[i] + carry;
      carry = carry & static_cast<Limb>(x[i] == 0);
    }
    top = ~top + carry;
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    x[i] = (x[i] >> kSteps) | (x[i + 1] << (64 - kSteps));
  }
  x[n - 1] = (x[n - 1] >> kSteps) | (top << (64 - kSteps));
}

/// l beta^-(len - n) mod m for an odd m of n limbs and l of len > n limbs,
/// up to a multiple of m: Montgomery steps clear l's low limbs one at a
/// time, n multiplies each. What is left is below beta^n + m.
BigInt montgomery_residue(std::span<const Limb> l, const BigInt& m) {
  const std::size_t n = m.limb_count();
  const std::size_t len = l.size();
  detail::LimbVec t(l.begin(), l.end());
  t.push_back(0);
  const Limb* mv = m.limbs().data();
  Limb inv = mv[0];  // m^-1 mod 2^64 by Newton's iteration
  for (int i = 0; i < 5; ++i) inv *= 2 - mv[0] * inv;
  for (std::size_t i = 0; i + n < len; ++i) {
    const Limb carry =
        detail::addmul_1(t.data() + i, mv, n, t[i] * (0 - inv));
    detail::add_1(t.data() + i + n, len + 1 - i - n, carry);
  }
  t.erase(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(len - n));
  return BigIntOps::make(std::move(t), 1);
}

BigInt binary_gcd(const BigInt& a_in, const BigInt& b_in) {
  if (a_in.is_zero()) return b_in.abs();
  if (b_in.is_zero()) return a_in.abs();

  const auto av = a_in.limbs();
  const auto bv = b_in.limbs();
  std::size_t len = std::max(av.size(), bv.size());
  detail::LimbBuffer<2 * detail::kSmallLimbs> buf(2 * len);
  Limb* a = buf.data();
  Limb* b = a + len;
  std::fill(a, a + 2 * len, Limb{0});
  std::copy(av.begin(), av.end(), a);
  std::copy(bv.begin(), bv.end(), b);

  const std::size_t za = trailing_zero_bits(a, len);
  const std::size_t zb = trailing_zero_bits(b, len);
  shift_right(a, len, za);
  shift_right(b, len, zb);

  // b stays odd, so every halving of a keeps the gcd; a == 0 ends it.
  for (;;) {
    while (len > 1 && a[len - 1] == 0 && b[len - 1] == 0) --len;
    if (len == 1) {
      b[0] = gcd_word(a[0], b[0]);
      break;
    }
    if (std::all_of(a, a + len, [](Limb v) { return v == 0; })) break;

    // Word approximations: the top 33 bits at the common length over the
    // exact low 31 bits. Parities, and so the steps' subtractions, are
    // exact; only the swap comparisons are approximate.
    const int s = std::countl_zero(a[len - 1] | b[len - 1]);
    auto approx = [&](const Limb* x) {
      const Limb top = s == 0 ? x[len - 1]
                              : (x[len - 1] << s) | (x[len - 2] >> (64 - s));
      return (top & ~kLowMask) | (x[0] & kLowMask);
    };
    Limb xa = approx(a);
    Limb xb = approx(b);

    // (xa, xb) * 2^i = (f0 a + g0 b, f1 a + g1 b), in two's complement.
    // Masks, not branches: the parities and swaps are as random as the
    // operands, and a branchy loop measured ~1.6x slower on varying input.
    Limb f0 = 1, g0 = 0, f1 = 0, g1 = 1;
    for (int i = 0; i < kSteps; ++i) {
      const Limb odd = Limb{0} - (xa & 1);
      const Limb swap = odd & (Limb{0} - static_cast<Limb>(xa < xb));
      Limb t = (xa ^ xb) & swap;
      xa ^= t;
      xb ^= t;
      t = (f0 ^ f1) & swap;
      f0 ^= t;
      f1 ^= t;
      t = (g0 ^ g1) & swap;
      g0 ^= t;
      g1 ^= t;
      xa -= xb & odd;
      f0 -= f1 & odd;
      g0 -= g1 & odd;
      xa >>= 1;
      f1 <<= 1;
      g1 <<= 1;
    }

    // (a, b) = (f0 a + g0 b, f1 a + g1 b) / 2^31: |f| + |g| <= 2^31, so
    // neither grows; negatives flip sign (the gcd does not see it).
    using i128 = __int128;
    const auto sf0 = static_cast<std::int64_t>(f0);
    const auto sg0 = static_cast<std::int64_t>(g0);
    const auto sf1 = static_cast<std::int64_t>(f1);
    const auto sg1 = static_cast<std::int64_t>(g1);
    i128 ca = 0;
    i128 cb = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const i128 ai = a[i];
      const i128 bi = b[i];
      ca += ai * sf0 + bi * sg0;
      cb += ai * sf1 + bi * sg1;
      a[i] = static_cast<Limb>(ca);
      b[i] = static_cast<Limb>(cb);
      ca >>= 64;
      cb >>= 64;
    }
    take_abs_and_shift(a, len, static_cast<Limb>(ca));
    take_abs_and_shift(b, len, static_cast<Limb>(cb));
  }

  detail::LimbVec out(b, b + len);
  return BigIntOps::make(std::move(out), 1) << std::min(za, zb);
}

}  // namespace

BigInt gcd(const BigInt& a, const BigInt& b) {
  obs::prof::Frame frame("bn.gcd");
  // An operand more than twice the other's length is first reduced modulo
  // the other's odd part s (beta is a unit mod s, so gcd(s, l) is kept);
  // the power of two is the smaller of the operands' own.
  const bool a_short = a.limb_count() <= b.limb_count();
  const BigInt& shorter = a_short ? a : b;
  const BigInt& longer = a_short ? b : a;
  if (shorter.is_zero() || longer.limb_count() <= 2 * shorter.limb_count()) {
    return binary_gcd(a, b);
  }
  const auto zeros = [](const BigInt& x) {
    return trailing_zero_bits(x.limbs().data(), x.limb_count());
  };
  const std::size_t twos = std::min(zeros(shorter), zeros(longer));
  const BigInt odd = shorter.abs() >> zeros(shorter);
  return binary_gcd(odd, montgomery_residue(longer.limbs(), odd)) << twos;
}

ExtendedGcd extended_gcd(const BigInt& a, const BigInt& b) {
  // Invariant: r0 = a*x0 + b*y0, r1 = a*x1 + b*y1.
  BigInt r0 = a, r1 = b;
  BigInt x0 = 1, x1 = 0;
  BigInt y0 = 0, y1 = 1;
  while (!r1.is_zero()) {
    const auto [q, r] = BigInt::divmod(r0, r1);
    r0 = std::move(r1);
    r1 = r;
    BigInt x2 = x0 - q * x1;
    x0 = std::move(x1);
    x1 = std::move(x2);
    BigInt y2 = y0 - q * y1;
    y0 = std::move(y1);
    y1 = std::move(y2);
  }
  if (r0.is_negative()) {
    r0 = -r0;
    x0 = -x0;
    y0 = -y0;
  }
  return {std::move(r0), std::move(x0), std::move(y0)};
}

BigInt mod_inverse(const BigInt& a, const BigInt& m) {
  if (m <= BigInt(1)) throw std::domain_error("modulus must exceed 1");
  const ExtendedGcd eg = extended_gcd(a % m, m);
  if (!eg.g.is_one()) throw std::domain_error("value is not invertible");
  BigInt x = eg.x % m;
  if (x.is_negative()) x += m;
  return x;
}

}  // namespace weakkeys::bn
