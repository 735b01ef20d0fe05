// Classifying batch-GCD divisors (paper Section 3.3.5).
//
// A genuine RNG-flaw hit yields a divisor that is one prime of roughly half
// the modulus size. Bit errors (memory, wire, storage) turn a modulus into a
// random integer whose common divisors with the rest of the corpus are
// products of small primes; the paper found 107 such non-well-formed moduli
// and excluded them from the vulnerable counts.
#pragma once

#include <cstdint>
#include <string>

#include "bn/bigint.hpp"

namespace weakkeys::fingerprint {

enum class DivisorClass {
  kSharedPrime,    ///< prime divisor of plausible size: a real weak key
  kFullModulus,    ///< divisor == N (duplicate modulus; not factorable)
  kSmoothBitError, ///< product of small primes: corrupted modulus
  kOther,          ///< anything else (composite, implausible size)
};

std::string to_string(DivisorClass c);

/// The default smoothness bound: primes up to 100,000.
inline constexpr std::uint32_t kSmoothBound = 100000;

struct DivisorVerdict {
  DivisorClass cls = DivisorClass::kOther;
  /// The part of the divisor composed of primes <= smooth_bound.
  bn::BigInt smooth_part;
};

/// Classifies divisor `d` of modulus `n` (both from a batch-GCD result).
/// `smooth_bound` is the trial-division limit for the smoothness test.
DivisorVerdict classify_divisor(const bn::BigInt& n, const bn::BigInt& d,
                                std::uint32_t smooth_bound = kSmoothBound);

/// Removes all prime factors <= bound from x, returning {smooth part,
/// remaining cofactor}. Trial division runs only when gcd(x, the product
/// of the primes <= bound) > 1.
struct SmoothSplit {
  bn::BigInt smooth;
  bn::BigInt cofactor;
};
SmoothSplit smooth_split(const bn::BigInt& x, std::uint32_t bound);

/// A modulus is well-formed if it is odd, composite-sized, and has no small
/// prime factors — cheap necessary conditions for being a product of two
/// large primes.
bool plausibly_well_formed(const bn::BigInt& n,
                           std::uint32_t bound = kSmoothBound);

/// Triage for moduli the ingest quarantine rejected before batch GCD (zero,
/// even, or tiny): routes them into the same buckets the paper used for
/// non-well-formed moduli. Anything degenerate (n <= 1) or carrying a
/// small-prime factor lands in the smooth/bit-error bucket; the remainder
/// (e.g. a tiny odd prime) in kOther. Total — never throws, any input.
DivisorClass triage_degenerate_modulus(
    const bn::BigInt& n, std::uint32_t smooth_bound = kSmoothBound);

}  // namespace weakkeys::fingerprint
