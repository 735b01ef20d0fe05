// Modular exponentiation.
//
// Odd moduli (the common case: Miller-Rabin on prime candidates, RSA ops)
// use Montgomery multiplication on raw limb ranges with a left-to-right
// sliding window; even moduli fall back to multiply-then-divide. The
// Montgomery product and the window loop are instantiated for each width
// up to kSmallLimbs, so the compiler unrolls the 128- and 256-bit cases
// that key generation runs millions of times; wider moduli share the
// runtime-width instance.
#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

#include "bn/detail.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::bn {

namespace {

using detail::LimbBuffer;
using detail::LimbVec;
using u128 = unsigned __int128;

/// -m0^{-1} mod 2^64 for odd m0 (Newton iteration doubles correct bits).
Limb mont_n0_prime(Limb m0) {
  Limb x = m0;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  return ~x + 1;  // == -x mod 2^64, with x = m0^{-1}
}

/// a * b + c + carry, returning the low limb and leaving the high limb in
/// carry (the sum cannot exceed 2^128 - 1).
inline Limb mac(Limb a, Limb b, Limb c, Limb& carry) {
  const u128 p = static_cast<u128>(a) * b + c + carry;
  carry = static_cast<Limb>(p >> 64);
  return static_cast<Limb>(p);
}

/// Montgomery product r = a*b*beta^{-n} mod m for n-limb a, b < m, by
/// separated operand scanning: the full product first (its multiplies are
/// independent, which a chain of squarings needs more than fewer
/// instructions), then n reduction rounds, then one branch-free
/// conditional subtraction. N > 0 fixes the width at compile time and
/// keeps the 2n-limb product in a local array; N == 0 reads the width from
/// `n_dyn` and uses `scratch` (2n limbs). r may alias a or b: they are
/// only read before r is written.
template <std::size_t N>
void mont_mul(Limb* r, const Limb* a, const Limb* b, const Limb* m, Limb n0,
              std::size_t n_dyn, Limb* scratch) {
  const std::size_t n = N != 0 ? N : n_dyn;
  Limb local[2 * N + 1];
  Limb* t = N != 0 ? local : scratch;
  // GCC at -O2 does not fully unroll these nests for N >= 4 on its own;
  // unrolled, the 4-limb product is ~30% faster.
  Limb carry = 0;
#pragma GCC unroll 16
  for (std::size_t j = 0; j < n; ++j) t[j] = mac(a[0], b[j], 0, carry);
  t[n] = carry;
#pragma GCC unroll 16
  for (std::size_t i = 1; i < n; ++i) {
    carry = 0;
#pragma GCC unroll 16
    for (std::size_t j = 0; j < n; ++j) {
      t[i + j] = mac(a[i], b[j], t[i + j], carry);
    }
    t[i + n] = carry;
  }
  // Round i clears limb i; `top` carries into the limb above the window.
  Limb top = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < n; ++i) {
    const Limb mi = t[i] * n0;
    carry = 0;
#pragma GCC unroll 16
    for (std::size_t j = 0; j < n; ++j) {
      t[i + j] = mac(mi, m[j], t[i + j], carry);
    }
    const u128 sum = static_cast<u128>(t[i + n]) + carry + top;
    t[i + n] = static_cast<Limb>(sum);
    top = static_cast<Limb>(sum >> 64);
  }
  // u = top:t[n, 2n) < 2m. Keep u when u - m borrows past `top`.
  const Limb* u = t + n;
  Limb borrow = 0;
#pragma GCC unroll 16
  for (std::size_t j = 0; j < n; ++j) {
    const Limb d = u[j] - m[j] - borrow;
    borrow = static_cast<Limb>(u[j] < m[j]) |
             (static_cast<Limb>(u[j] == m[j]) & borrow);
    t[j] = d;  // limbs [0, n) are free once reduced
  }
  const Limb keep = Limb{0} - static_cast<Limb>(borrow > top);
#pragma GCC unroll 16
  for (std::size_t j = 0; j < n; ++j) r[j] = (u[j] & keep) | (t[j] & ~keep);
}

/// Sliding-window width for an exponent of `bits` bits: the width that
/// minimises table products plus window products (GMP's thresholds, to
/// within a bit).
unsigned window_bits(std::size_t bits) {
  if (bits <= 24) return 1;
  if (bits <= 80) return 3;
  if (bits <= 240) return 4;
  return 5;
}

/// r = base^e in Montgomery form by a left-to-right sliding window, on
/// mont_mul<N>. r may alias base.
template <std::size_t N>
void pow_window(Limb* r, const Limb* base, std::span<const Limb> e,
                const Limb* one, const Limb* m, Limb n0, std::size_t n_dyn,
                Limb* t) {
  const std::size_t n = N != 0 ? N : n_dyn;
  auto mul = [&](Limb* out, const Limb* a, const Limb* b) {
    mont_mul<N>(out, a, b, m, n0, n, t);
  };
  std::size_t top = e.size();
  while (top > 0 && e[top - 1] == 0) --top;
  if (top == 0) {
    std::copy(one, one + n, r);
    return;
  }
  const std::size_t bits =
      top * 64 - static_cast<std::size_t>(std::countl_zero(e[top - 1]));
  auto bit = [&e](std::size_t i) { return (e[i / 64] >> (i % 64)) & 1; };

  // table[j] = base^(2j + 1): the odd powers a window can end on.
  const unsigned w = window_bits(bits);
  const std::size_t entries = std::size_t{1} << (w - 1);
  LimbBuffer<(1u << 4) * detail::kSmallLimbs + detail::kSmallLimbs> buf(
      (entries + 1) * n);
  Limb* table = buf.data();
  Limb* acc = table + entries * n;
  std::copy(base, base + n, table);
  if (entries > 1) {
    mul(acc, base, base);  // base^2
    for (std::size_t j = 1; j < entries; ++j) {
      mul(table + j * n, table + (j - 1) * n, acc);
    }
  }

  // Left to right: each window starts at a set bit and ends on the lowest
  // set bit within w bits of it.
  bool first = true;
  std::size_t i = bits;
  while (i > 0) {
    if (!bit(i - 1)) {
      mul(acc, acc, acc);
      --i;
      continue;
    }
    std::size_t low = i > w ? i - w : 0;
    while (!bit(low)) ++low;
    std::size_t value = 0;
    for (std::size_t k = i; k-- > low;) value = (value << 1) | bit(k);
    const Limb* entry = table + (value >> 1) * n;
    if (first) {
      std::copy(entry, entry + n, acc);
      first = false;
    } else {
      for (std::size_t k = low; k < i; ++k) mul(acc, acc, acc);
      mul(acc, acc, entry);
    }
    i = low;
  }
  std::copy(acc, acc + n, r);
}

template <std::size_t... N>
constexpr auto kernel_table(std::index_sequence<N...>) {
  return std::array{
      detail::Montgomery::Kernels{&mont_mul<N>, &pow_window<N>}...};
}

/// Index 0: the runtime-width kernels; index n: the n-limb instances.
constexpr auto kKernels =
    kernel_table(std::make_index_sequence<detail::kSmallLimbs + 1>{});

BigInt mod_pow_generic(const BigInt& a, const BigInt& e, const BigInt& m) {
  BigInt base = a % m;
  if (base.is_negative()) base += m;
  BigInt result = 1 % m;
  const std::size_t bits = e.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = result.squared() % m;
    if (e.bit(i)) result = (result * base) % m;
  }
  return result;
}

}  // namespace

namespace detail {

Montgomery::Montgomery(const BigInt& m)
    : n_(m.limb_count()),
      n0_(mont_n0_prime(m.limbs()[0])),
      kernels_(kKernels[n_ <= kSmallLimbs ? n_ : 0]),
      buf_(5 * n_) {
  const auto mv = m.limbs();
  Limb* mod = buf_.data();
  std::copy(mv.begin(), mv.end(), mod);
  // x = 2x mod m, for x < m.
  auto twice = [this, mod](Limb* x) {
    Limb carry = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      const Limb next = x[j] >> 63;
      x[j] = (x[j] << 1) | carry;
      carry = next;
    }
    if (carry != 0 || cmp_n(x, mod, n_) >= 0) sub_n(x, x, mod, n_);
  };
  // beta^n mod m by doubling 2^(bits - 1) < m up to 2^(64n): at most 64
  // doublings, one for a modulus with its top bit set.
  Limb* one = buf_.data() + 2 * n_;
  std::fill(one, one + n_, Limb{0});
  const std::size_t bits = m.bit_length();
  one[(bits - 1) / 64] = Limb{1} << ((bits - 1) % 64);
  for (std::size_t i = bits - 1; i < 64 * n_; ++i) twice(one);
  // beta^2n mod m without a division: from beta^n * 2^n, each Montgomery
  // squaring doubles the power of two (x^2 / beta^n), and six take 2^n to
  // 2^(64n).
  Limb* r2 = rr();
  std::copy(one, one + n_, r2);
  for (std::size_t i = 0; i < n_; ++i) twice(r2);
  for (int i = 0; i < 6; ++i) mul(r2, r2, r2);
}

void Montgomery::to_mont(Limb* r, std::span<const Limb> x) {
  LimbBuffer<kSmallLimbs> padded(n_);
  std::fill(padded.data(), padded.data() + n_, Limb{0});
  std::copy(x.begin(), x.end(), padded.data());
  mul(r, padded.data(), rr());
}

BigInt Montgomery::from_mont(const Limb* x) {
  LimbBuffer<kSmallLimbs> unit(n_);
  std::fill(unit.data(), unit.data() + n_, Limb{0});
  unit.data()[0] = 1;
  LimbVec out(n_);
  mul(out.data(), x, unit.data());
  return BigIntOps::make(std::move(out), 1);
}

void Montgomery::pow(Limb* r, const Limb* base, std::span<const Limb> e) {
  obs::prof::Frame frame("bn.modpow");
  kernels_.pow(r, base, e, one(), modulus(), n0_, n_, t());
}

}  // namespace detail

BigInt mod_pow(const BigInt& a, const BigInt& e, const BigInt& m) {
  if (m.sign() <= 0) throw std::domain_error("modulus must be positive");
  if (e.is_negative()) throw std::domain_error("negative exponent");
  if (m.is_one()) return BigInt{};
  if (m.is_even()) return mod_pow_generic(a, e, m);

  BigInt reduced;
  const BigInt* base = &a;
  if (a.is_negative() || a >= m) {
    reduced = a % m;
    if (reduced.is_negative()) reduced += m;
    base = &reduced;
  }
  detail::Montgomery ctx(m);
  LimbBuffer<detail::kSmallLimbs> x(ctx.size());
  ctx.to_mont(x.data(), base->limbs());
  ctx.pow(x.data(), x.data(), e.limbs());
  return ctx.from_mont(x.data());
}

}  // namespace weakkeys::bn
