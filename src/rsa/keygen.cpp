#include "rsa/keygen.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/prof_stack.hpp"

namespace weakkeys::rsa {

namespace {

using bn::BigInt;
using detail::kWindow;
using u128 = unsigned __int128;

/// Trial division by the first kTrialPrimes primes is what
/// bn::is_probable_prime does before Miller-Rabin; generate_prime repeats
/// only the part its sieve did not cover.
constexpr std::size_t kTrialPrimes = 64;

/// The lane loops run over blocks of kLanes sieve primes: one AVX-512
/// register of 32-bit lanes, two AVX2 ones, four SSE2 ones. Tables pad to a
/// multiple of it.
constexpr std::size_t kLanes = 16;
constexpr std::size_t kMaxLanes =
    (detail::kMaxSieveDepth + kLanes - 1) / kLanes * kLanes;

/// The first kWheelPrimes odd sieve primes, 3 to 13, mark a window by
/// copying a pattern of period 3 * 5 * 7 * 11 * 13 = 15015.
constexpr std::size_t kWheelPrimes = 5;

/// The odd sieve primes of one depth as structure-of-arrays 32-bit lanes
/// (lanes past `count` are padding that sieves by 3 and is never read),
/// the wheel of its first primes, and the trial primes the sieve leaves.
struct SieveTables {
  std::size_t count = 0;
  std::vector<std::uint32_t> q;
  /// 1/q rounded to a float: x * inv truncates to floor(x / q) or one off
  /// either way for every x < 2^31 (see lane_offsets).
  std::vector<float> inv;
  /// (q + 1) / 2, the inverse of 2 mod q.
  std::vector<std::uint32_t> half;
  /// Those of the first kTrialPrimes primes that the sieve does not cover.
  std::vector<std::uint32_t> trial;
  /// The first `wheel` odd primes (at most kWheelPrimes) and their product
  /// `period`. wheel_pattern[openssl][y] is 0 when y == 0 mod one of them
  /// (or, in OpenSSL style, y == (q + 1) / 2), for y up to period + kWindow;
  /// crt[k] is 1 mod prime k and 0 mod the other wheel primes.
  std::size_t wheel = 0;
  std::uint64_t period = 1;
  std::array<std::vector<std::uint8_t>, 2> wheel_pattern;
  std::vector<std::uint64_t> crt;
};

SieveTables build_tables(std::size_t depth) {
  SieveTables t;
  for (const std::uint32_t prime : bn::small_primes(depth)) {
    if (prime != 2) t.q.push_back(prime);  // candidates are odd by construction
  }
  t.count = t.q.size();
  t.q.resize((t.count + kLanes - 1) / kLanes * kLanes, 3);
  for (const std::uint32_t q : t.q) {
    t.inv.push_back(1.0f / static_cast<float>(q));
    t.half.push_back((q + 1) / 2);
  }
  t.wheel = std::min(t.count, kWheelPrimes);
  for (std::size_t k = 0; k < t.wheel; ++k) t.period *= t.q[k];
  for (std::size_t k = 0; k < t.wheel; ++k) {
    const std::uint64_t q = t.q[k];
    std::uint64_t c = t.period / q;
    while (c % q != 1) c += t.period / q;
    t.crt.push_back(c);
  }
  for (const bool openssl : {false, true}) {
    auto& pattern = t.wheel_pattern[openssl];
    pattern.assign(t.period + kWindow, 1);
    for (std::size_t y = 0; y < pattern.size(); ++y) {
      for (std::size_t k = 0; k < t.wheel; ++k) {
        const std::size_t q = t.q[k];
        if (y % q == 0 || (openssl && y % q == (q + 1) / 2)) pattern[y] = 0;
      }
    }
  }
  const auto& first = bn::small_primes(kTrialPrimes);
  t.trial.assign(first.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(depth, kTrialPrimes)),
                 first.end());
  return t;
}

/// The tables of `depth`, built once per depth under a mutex and then read
/// through one acquire load per call. The depth is checked before anything
/// is built, so a rejected depth leaves no table behind.
const SieveTables& sieve_tables(std::size_t depth) {
  if (depth > detail::kMaxSieveDepth) throw std::invalid_argument("sieve too deep");
  static std::array<std::atomic<const SieveTables*>, detail::kMaxSieveDepth + 1>
      resolved{};
  std::atomic<const SieveTables*>& slot = resolved[depth];
  if (const SieveTables* tables = slot.load(std::memory_order_acquire)) {
    return *tables;
  }
  static std::mutex mutex;
  std::lock_guard lock(mutex);
  const SieveTables* tables = slot.load(std::memory_order_relaxed);
  if (tables == nullptr) {
    tables = new SieveTables(build_tables(depth));  // kept for the process
    slot.store(tables, std::memory_order_release);
  }
  return *tables;
}

// GCC's ifunc resolver for the clones runs while the dynamic loader
// relocates the binary, before a ThreadSanitizer runtime is up, and crashes
// there once instrumented; TSan builds run the baseline loop.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define WEAKKEYS_SIEVE_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "sse4.1", "default")))
#else
#define WEAKKEYS_SIEVE_CLONES
#endif

/// For each lane i < `lanes`: t0[i] and t1[i] in [0, q) with
/// base + 2 t0 == 0 and base + 2 t1 == 1 (mod q), where base is given by
/// its limbs, least significant first. Both lane loops are branch-free
/// 32-bit arithmetic, which GCC vectorizes; on x86-64 the loader picks the
/// AVX-512, AVX2, SSE4.1 or baseline clone for the CPU.
WEAKKEYS_SIEVE_CLONES
void lane_offsets(const bn::Limb* limbs, std::size_t n_limbs,
                  const std::uint32_t* __restrict q, const float* __restrict inv,
                  const std::uint32_t* __restrict half, std::size_t lanes,
                  std::uint32_t* __restrict t0, std::uint32_t* __restrict t1) {
  // Residues, in t0, by Horner's rule over 16-bit chunks. r < q < 2^15
  // keeps each step's x = r 2^16 + chunk below q 2^16 < 2^31, so x / q is
  // below 2^16 and the float quotient (three roundings, each off by at most
  // 2^-24 relative) is within 0.012 of it: truncated, it is floor(x / q) or
  // one off either way, and s = x - quo q lies in (-q, 2q). Adding q when s
  // is negative, then min(r, r - q) (below q, r - q wraps above r), lands
  // in [0, q).
  std::fill_n(t0, lanes, 0u);
  for (std::size_t c = 4 * n_limbs; c-- > 0;) {
    const auto chunk =
        static_cast<std::uint32_t>(limbs[c / 4] >> (16 * (c % 4)) & 0xffff);
    for (std::size_t i = 0; i < lanes; ++i) {
      const auto x = static_cast<std::int32_t>(t0[i] << 16 | chunk);
      const auto quotient = static_cast<std::int32_t>(static_cast<float>(x) * inv[i]);
      const auto qi = static_cast<std::int32_t>(q[i]);
      const std::int32_t s = x - quotient * qi;
      const auto r = static_cast<std::uint32_t>(s + (qi & (s >> 31)));
      t0[i] = std::min(r, r - q[i]);
    }
  }
  // d = (v - r) mod q for v = 0, 1 (the min again picks the unwrapped
  // difference), then d / 2 mod q by parity: d / 2, or (d - 1) / 2 + half.
  for (std::size_t i = 0; i < lanes; ++i) {
    const std::uint32_t r = t0[i];
    const std::uint32_t d0 = std::min(q[i] - r, 0u - r);
    const std::uint32_t d1 = std::min(q[i] + 1 - r, 1u - r);
    t0[i] = (d0 >> 1) + (half[i] & (0u - (d0 & 1)));
    t1[i] = (d1 >> 1) + (half[i] & (0u - (d1 & 1)));
  }
}

/// Window sieve: clears offsets t in [0, kWindow) whose candidate base + 2t
/// is divisible by a sieve prime, and (in OpenSSL style) those where
/// (base + 2t) - 1 is.
detail::SieveWindow sieve(const BigInt& base, PrimeStyle style,
                          const SieveTables& tables) {
  obs::prof::Frame frame("rsa.sieve");
  const auto limbs = base.limbs();
  // Left uninitialized (zeroing them would cost a tenth of the window):
  // lane_offsets writes every lane before anything reads it.
  std::array<std::uint32_t, kMaxLanes> t0;
  std::array<std::uint32_t, kMaxLanes> t1;
  lane_offsets(limbs.data(), limbs.size(), tables.q.data(), tables.inv.data(),
               tables.half.data(), tables.q.size(), t0.data(), t1.data());

  // One byte per offset, plus a last byte that absorbs the marks past the
  // window. The wheel primes mark by a copy: with u == -t0 mod each of
  // them, base + 2t == 0 mod q exactly when t + u == 0, and == 1 exactly
  // when t + u == (q + 1) / 2, so the window is the pattern from u.
  std::uint64_t u = 0;
  for (std::size_t k = 0; k < tables.wheel; ++k) {
    u += tables.crt[k] * (tables.q[k] - t0[k]);
  }
  detail::SieveWindow alive;
  const bool openssl = style == PrimeStyle::kOpenSsl;
  std::memcpy(alive.data(), tables.wheel_pattern[openssl].data() + u % tables.period,
              alive.size());
  // The other primes store (plain stores, no read-modify-write). Each
  // class gets ceil(kWindow / q) stores whatever its offset, so a loop's
  // exit follows q alone, the same in every window; a loop that stopped at
  // the window's end would exit where the random base says and
  // mispredict. A prime q >= kWindow stores once per class, into the sink
  // byte when it misses.
  for (std::size_t i = tables.wheel; i < tables.count; ++i) {
    const std::size_t q = tables.q[i];
    const std::size_t a = t0[i];
    if (openssl) {
      const std::size_t b = t1[i];
      for (std::size_t t = 0; t < kWindow; t += q) {
        alive[std::min(a + t, kWindow)] = 0;
        alive[std::min(b + t, kWindow)] = 0;
      }
    } else {
      for (std::size_t t = 0; t < kWindow; t += q) alive[std::min(a + t, kWindow)] = 0;
    }
  }
  return alive;
}

}  // namespace

namespace detail {

SieveOffsets sieve_offsets(const BigInt& base, std::size_t depth) {
  const SieveTables& tables = sieve_tables(depth);
  SieveOffsets offsets{std::vector<std::uint32_t>(tables.q.size()),
                       std::vector<std::uint32_t>(tables.q.size())};
  const auto limbs = base.limbs();
  lane_offsets(limbs.data(), limbs.size(), tables.q.data(), tables.inv.data(),
               tables.half.data(), tables.q.size(), offsets.zero.data(),
               offsets.one.data());
  offsets.zero.resize(tables.count);
  offsets.one.resize(tables.count);
  return offsets;
}

SieveWindow sieve_window(const BigInt& base, PrimeStyle style, std::size_t depth) {
  return sieve(base, style, sieve_tables(depth));
}

}  // namespace detail

BigInt generate_prime(bn::RandomSource& rng, std::size_t bits,
                      const KeygenOptions& opts) {
  if (bits < 32) throw std::invalid_argument("prime size below 32 bits");
  const std::uint64_t e = opts.public_exponent;
  const SieveTables& tables = sieve_tables(opts.sieve_primes);
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

    const detail::SieveWindow alive = sieve(base, opts.style, tables);
    for (std::size_t t = 0; t < kWindow; ++t) {
      if (alive[t] == 0) continue;
      if (t >= t_end) break;  // window ran off the top
      // Require gcd(e, p-1) == 1; for prime e this is p % e != 1.
      if (e > 1 && (u128{base_mod_e} + 2 * t) % e == 1) continue;
      const BigInt candidate = base + BigInt(std::uint64_t{2 * t});
      const bool small_factor =
          std::any_of(tables.trial.begin(), tables.trial.end(), [&](std::uint32_t q) {
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
