// Primality testing and random generation.
//
// Miller-Rabin with random bases drawn from the caller's RandomSource keeps
// the whole key-generation path deterministic under a simulated device RNG —
// which is precisely how the flawed devices in the study end up sharing
// primes.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>

#include "bn/detail.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::bn {

const std::vector<std::uint32_t>& small_primes(std::size_t count) {
  static std::mutex mutex;
  static std::vector<std::uint32_t> primes;
  // One stable vector per requested count, so returned references stay valid.
  static std::map<std::size_t, std::vector<std::uint32_t>> views;

  std::lock_guard lock(mutex);
  if (primes.size() < count) {
    // Sieve with a generous bound; the nth prime is below
    // n*(ln n + ln ln n) for n >= 6.
    const double n = static_cast<double>(std::max<std::size_t>(count, 6));
    const double bound_d = n * (std::log(n) + std::log(std::log(n))) + 16;
    const auto bound = static_cast<std::size_t>(bound_d);
    std::vector<bool> composite(bound + 1, false);
    primes.clear();
    for (std::size_t i = 2; i <= bound; ++i) {
      if (composite[i]) continue;
      primes.push_back(static_cast<std::uint32_t>(i));
      for (std::size_t j = i * i; j <= bound; j += i) composite[j] = true;
    }
  }
  auto& view = views[count];
  if (view.size() != count) {
    view.assign(primes.begin(),
                primes.begin() + static_cast<std::ptrdiff_t>(count));
  }
  return view;
}

std::uint64_t mod_small(const BigInt& n, std::uint64_t p) {
  if (p == 0) throw std::domain_error("mod by zero");
  unsigned __int128 rem = 0;
  const auto limbs = n.limbs();
  for (std::size_t i = limbs.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs[i]) % p;
  }
  return static_cast<std::uint64_t>(rem);
}

namespace {

/// What random_bits(src, bits) draws, as limbs in out[0, ceil(bits / 64)):
/// one fill of ceil(bits / 8) big-endian bytes with the excess top bits
/// masked off. Up to kSmallLimbs limbs the bytes stay on the stack.
void draw_bits(RandomSource& src, std::size_t bits, Limb* out) {
  const std::size_t bytes = (bits + 7) / 8;
  std::array<std::uint8_t, 8 * detail::kSmallLimbs> small;
  std::vector<std::uint8_t> large;
  std::span<std::uint8_t> buf(small.data(), std::min(bytes, small.size()));
  if (bytes > small.size()) {
    large.resize(bytes);
    buf = large;
  }
  src.fill(buf);
  const unsigned excess = static_cast<unsigned>(bytes * 8 - bits);
  buf[0] &= static_cast<std::uint8_t>(0xffu >> excess);
  std::fill(out, out + (bits + 63) / 64, Limb{0});
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i / 8] |= Limb{buf[bytes - 1 - i]} << (8 * (i % 8));
  }
}

}  // namespace

BigInt random_bits(RandomSource& src, std::size_t bits) {
  if (bits == 0) return BigInt{};
  detail::LimbVec limbs((bits + 63) / 64);
  draw_bits(src, bits, limbs.data());
  return BigIntOps::make(std::move(limbs), 1);
}

BigInt random_range(RandomSource& src, const BigInt& low, const BigInt& high) {
  if (low > high) throw std::invalid_argument("random_range: low > high");
  const BigInt span = high - low + BigInt(1);
  const std::size_t bits = span.bit_length();
  // Rejection sampling: expected < 2 draws.
  for (;;) {
    const BigInt candidate = random_bits(src, bits);
    if (candidate < span) return low + candidate;
  }
}

bool miller_rabin(const BigInt& n, RandomSource& src, int rounds) {
  obs::prof::Frame frame("bn.miller_rabin");
  if (!n.is_odd() || n.is_negative() ||
      (n.limb_count() == 1 && n.limbs()[0] < 5)) {
    throw std::domain_error("miller_rabin needs an odd n >= 5");
  }
  // n - 1 = d * 2^r with d odd.
  std::size_t r = 1;
  while (!n.bit(r)) ++r;
  const BigInt d = n >> r;
  // Bases are random_range(src, 2, n - 2): 2 + a draw below span = n - 3.
  const BigInt span = n - BigInt(3);
  const std::size_t span_bits = span.bit_length();
  const std::size_t span_len = span.limb_count();

  // One context per candidate, shared by every round. Residues stay in
  // Montgomery form: x == 1 and x == n - 1 become limb compares against
  // the images of 1 and of n - 1 (= n - image of 1).
  detail::Montgomery ctx(n);
  const std::size_t len = ctx.size();
  detail::LimbBuffer<4 * detail::kSmallLimbs> buf(4 * len);
  Limb* minus_one = buf.data();
  Limb* x = minus_one + len;
  Limb* base = x + len;
  Limb* a = base + len;
  detail::sub_n(minus_one, ctx.modulus(), ctx.one(), len);
  auto equals = [len](const Limb* u, const Limb* v) {
    return std::equal(u, u + len, v);
  };

  for (int round = 0; round < rounds; ++round) {
    std::fill(a, a + len, Limb{0});
    do {
      draw_bits(src, span_bits, a);
    } while (detail::cmp_n(a, span.limbs().data(), span_len) >= 0);
    detail::add_1(a, len, 2);
    ctx.to_mont(base, std::span<const Limb>(a, len));
    ctx.pow(x, base, d.limbs());
    if (equals(x, ctx.one()) || equals(x, minus_one)) continue;
    bool witness = true;
    for (std::size_t i = 1; i < r; ++i) {
      ctx.mul(x, x, x);
      if (equals(x, minus_one)) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

bool is_probable_prime(const BigInt& n, RandomSource& src, int rounds) {
  if (n < BigInt(2)) return false;
  // Deterministic handling of small values and small factors.
  for (const std::uint32_t p : small_primes(64)) {
    if (n.limb_count() == 1 && n.limbs()[0] == p) return true;
    if (mod_small(n, p) == 0) return false;
  }
  return miller_rabin(n, src, rounds);
}

}  // namespace weakkeys::bn
