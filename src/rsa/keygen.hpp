// RSA key generation, from scratch.
//
// Two prime-generation styles matter for the study:
//  * kOpenSsl — mirrors OpenSSL's distinctive sieve (Mironov): a candidate p
//    is rejected if p - 1 is divisible by any of the first `sieve_primes`
//    small primes. Every prime OpenSSL emits therefore satisfies
//    p % q_i != 1 for those primes — the Table 5 fingerprint.
//  * kPlain — plain trial-division sieve, as non-OpenSSL stacks behave.
//
// The generator draws all randomness (candidates and Miller-Rabin bases)
// from the caller's RandomSource, so two simulated devices whose entropy
// pools collide generate byte-identical primes — the mechanism behind the
// factorable-key corpus.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "bn/bigint.hpp"
#include "rsa/key.hpp"

namespace weakkeys::rsa {

enum class PrimeStyle {
  kOpenSsl,  ///< reject p when p-1 has a small prime factor (fingerprintable)
  kPlain,    ///< plain sieve + Miller-Rabin
};

struct KeygenOptions {
  std::size_t modulus_bits = 1024;
  PrimeStyle style = PrimeStyle::kOpenSsl;
  std::uint64_t public_exponent = 65537;
  /// Trial-division depth (the paper's OpenSSL fingerprint uses 2048).
  std::size_t sieve_primes = 2048;
  int miller_rabin_rounds = 12;
};

/// Hooks into the generation sequence. before_prime(i) fires immediately
/// before prime i (0 or 1) is generated; the device simulation uses it to
/// stir the mid-keygen entropy event that makes colliding devices diverge
/// after the first prime.
struct KeygenEvents {
  std::function<void(int prime_index)> before_prime;
};

/// Generates a random prime of exactly `bits` bits (top two bits set, so a
/// product of two such primes has exactly 2*bits bits), compatible with
/// `opts.public_exponent`.
bn::BigInt generate_prime(bn::RandomSource& rng, std::size_t bits,
                          const KeygenOptions& opts);

/// Generates a full RSA key pair. Throws std::invalid_argument for
/// unsupported option combinations (modulus under 64 bits, even exponent).
RsaPrivateKey generate_key(bn::RandomSource& rng, const KeygenOptions& opts,
                           const KeygenEvents* events = nullptr);

namespace detail {

/// Odd candidates base + 2t, t in [0, kWindow), sieved per random base.
inline constexpr std::size_t kWindow = 2048;

/// Deepest sieve (`KeygenOptions::sieve_primes`): small_primes(3512) ends
/// at 32749, the last prime below 2^15, the bound the sieve's 32-bit lanes
/// need. A deeper option throws std::invalid_argument.
inline constexpr std::size_t kMaxSieveDepth = 3512;

/// For each odd prime q among the first `depth` primes, ascending: the
/// offsets t in [0, q) with base + 2t == 0 (zero) and == 1 (one) mod q.
/// Exposed for tests, like sieve_window.
struct SieveOffsets {
  std::vector<std::uint32_t> zero;
  std::vector<std::uint32_t> one;
};
SieveOffsets sieve_offsets(const bn::BigInt& base, std::size_t depth);

/// alive[t] == 0 when base + 2t has a factor among the first `depth`
/// primes, or (kOpenSsl) base + 2t - 1 has an odd one; the byte past the
/// window is scratch.
using SieveWindow = std::array<std::uint8_t, kWindow + 1>;
SieveWindow sieve_window(const bn::BigInt& base, PrimeStyle style,
                         std::size_t depth);

}  // namespace detail

}  // namespace weakkeys::rsa
