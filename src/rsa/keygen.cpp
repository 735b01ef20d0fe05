#include "rsa/keygen.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/prof_stack.hpp"

namespace weakkeys::rsa {

namespace {

using bn::BigInt;
using u128 = unsigned __int128;

/// Number of odd candidates sieved per random base before redrawing.
constexpr std::size_t kWindow = 2048;

/// Trial division by the first kTrialPrimes primes is what
/// bn::is_probable_prime does before Miller-Rabin; generate_prime repeats
/// only the part its sieve did not cover.
constexpr std::size_t kTrialPrimes = 64;

/// An odd sieve prime q < 2^31 with what a division-free residue needs:
/// inv = floor(2^64 / q) (a Barrett reciprocal), beta = 2^64 mod q and
/// half = 2^32 mod q.
struct SievePrime {
  std::uint64_t q;
  std::uint64_t inv;
  std::uint64_t beta;
  std::uint64_t half;

  /// x mod q for any 64-bit x: the reciprocal's quotient is low by at most
  /// one, so one conditional subtraction finishes it.
  [[nodiscard]] std::uint64_t reduce(std::uint64_t x) const {
    const auto quotient = static_cast<std::uint64_t>((u128{x} * inv) >> 64);
    const std::uint64_t r = x - quotient * q;
    return r >= q ? r - q : r;
  }

  /// Residue of a multi-limb value, one reduction per limb from the top:
  /// r * beta + hi32 * half + lo32 < q^2 + 2^32 q + 2^32 < 2^64 for q < 2^31.
  [[nodiscard]] std::uint64_t residue(std::span<const bn::Limb> limbs) const {
    std::uint64_t r = 0;
    for (std::size_t i = limbs.size(); i-- > 0;) {
      r = reduce(r * beta + (limbs[i] >> 32) * half + (limbs[i] & 0xffffffffu));
    }
    return r;
  }
};

/// The odd primes among small_primes(count) with their reciprocals, one
/// stable table per count (the count is a per-model option, so few exist).
const std::vector<SievePrime>& sieve_table(std::size_t count) {
  static std::mutex mutex;
  static std::map<std::size_t, std::vector<SievePrime>> tables;
  std::lock_guard lock(mutex);
  auto& table = tables[count];
  if (table.empty()) {
    for (const std::uint32_t prime : bn::small_primes(count)) {
      if (prime == 2) continue;  // candidates are odd by construction
      if (prime >= (1u << 31)) throw std::invalid_argument("sieve too deep");
      const std::uint64_t q = prime;
      const std::uint64_t beta = (~std::uint64_t{0} % q + 1) % q;
      const std::uint64_t half = (std::uint64_t{1} << 32) % q;
      table.push_back({q, ~std::uint64_t{0} / q, beta, half});
    }
  }
  return table;
}

/// t in [0, q) with base + 2t == v (mod q), given r = base mod q and v < q:
/// t = (v - r) / 2 mod q, halving by parity since q is odd. Branch-free:
/// the parity is random, so a branch would mispredict half the time.
std::uint64_t half_offset(std::uint64_t v, std::uint64_t r, std::uint64_t q) {
  const std::uint64_t diff = v - r + (q & (0 - std::uint64_t{v < r}));
  return (diff + (q & (0 - (diff & 1)))) >> 1;
}

/// One byte per offset (plain stores, no read-modify-write), plus a last
/// byte that absorbs the marks of primes whose offset misses the window.
constexpr std::size_t kSink = kWindow;
using Window = std::array<std::uint8_t, kWindow + 1>;

/// Window sieve: clears offsets t in [0, kWindow) whose candidate base + 2t
/// is divisible by a sieve prime, and (in OpenSSL style) those where
/// (base + 2t) - 1 is. A prime q >= kWindow marks at most one offset per
/// residue class, and stores it without a branch: whether it hits the
/// window is as random as the base.
Window sieve_window(const BigInt& base, PrimeStyle style,
                    const std::vector<SievePrime>& primes) {
  Window alive;
  alive.fill(1);
  const bool openssl = style == PrimeStyle::kOpenSsl;
  for (const SievePrime& p : primes) {
    const std::uint64_t r = p.residue(base.limbs());
    const std::uint64_t t0 = half_offset(0, r, p.q);
    const std::uint64_t t1 = openssl ? half_offset(1, r, p.q) : kSink;
    if (p.q >= kWindow) {
      alive[t0 < kWindow ? t0 : kSink] = 0;
      alive[t1 < kWindow ? t1 : kSink] = 0;
      continue;
    }
    for (std::uint64_t t = t0; t < kWindow; t += p.q) alive[t] = 0;
    for (std::uint64_t t = t1; t < kWindow; t += p.q) alive[t] = 0;
  }
  return alive;
}

}  // namespace

BigInt generate_prime(bn::RandomSource& rng, std::size_t bits,
                      const KeygenOptions& opts) {
  if (bits < 32) throw std::invalid_argument("prime size below 32 bits");
  const std::uint64_t e = opts.public_exponent;
  const auto& primes = sieve_table(opts.sieve_primes);
  // The first kTrialPrimes primes the sieve leaves to trial division.
  const auto& trial = bn::small_primes(kTrialPrimes);
  const std::size_t trial_from = std::min(opts.sieve_primes, kTrialPrimes);
  const BigInt top = BigInt(1) << bits;

  for (;;) {
    // Random odd base with the top two bits set (guarantees full-size n).
    BigInt base = bn::random_bits(rng, bits);
    if (base.is_even()) base += BigInt(1);
    if (!base.bit(bits - 1)) base += BigInt(1) << (bits - 1);
    if (!base.bit(bits - 2)) base += BigInt(1) << (bits - 2);

    // Candidates base + 2t keep `bits` bits for t < ceil((2^bits - base)/2).
    const BigInt room = top - base;
    const std::size_t t_end =
        room.bit_length() > 16
            ? kWindow
            : std::min<std::size_t>(kWindow, (room.to_uint64() + 1) / 2);
    const std::uint64_t base_mod_e = e > 1 ? bn::mod_small(base, e) : 0;

    const Window alive = sieve_window(base, opts.style, primes);
    for (std::size_t t = 0; t < kWindow; ++t) {
      if (alive[t] == 0) continue;
      if (t >= t_end) break;  // window ran off the top
      // Require gcd(e, p-1) == 1; for prime e this is p % e != 1.
      if (e > 1 && (u128{base_mod_e} + 2 * t) % e == 1) continue;
      const BigInt candidate = base + BigInt(std::uint64_t{2 * t});
      const bool small_factor =
          std::any_of(trial.begin() + static_cast<std::ptrdiff_t>(trial_from),
                      trial.end(), [&candidate](std::uint32_t q) {
                        return bn::mod_small(candidate, q) == 0;
                      });
      if (small_factor) continue;
      if (bn::miller_rabin(candidate, rng, opts.miller_rabin_rounds)) {
        return candidate;
      }
    }
    // Window exhausted without a prime: redraw (mirrors OpenSSL's retry).
  }
}

RsaPrivateKey generate_key(bn::RandomSource& rng, const KeygenOptions& opts,
                           const KeygenEvents* events) {
  if (opts.modulus_bits < 64)
    throw std::invalid_argument("modulus below 64 bits");
  if (opts.public_exponent % 2 == 0 || opts.public_exponent < 3)
    throw std::invalid_argument("public exponent must be odd and >= 3");

  obs::prof::Frame frame("rsa.keygen");
  const std::size_t prime_bits = opts.modulus_bits / 2;
  const BigInt e(opts.public_exponent);

  for (;;) {
    if (events && events->before_prime) events->before_prime(0);
    const BigInt p = generate_prime(rng, prime_bits, opts);
    if (events && events->before_prime) events->before_prime(1);
    BigInt q = generate_prime(rng, opts.modulus_bits - prime_bits, opts);
    if (p == q) continue;  // astronomically unlikely, but cheap to guard

    RsaPrivateKey key = assemble_private_key(p, q, e);
    if (key.pub.n.bit_length() != opts.modulus_bits) continue;
    return key;
  }
}

}  // namespace weakkeys::rsa
