#include "fingerprint/divisor_class.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <vector>

#include "rng/prng_source.hpp"

namespace weakkeys::fingerprint {

using bn::BigInt;

std::string to_string(DivisorClass c) {
  switch (c) {
    case DivisorClass::kSharedPrime:
      return "shared prime";
    case DivisorClass::kFullModulus:
      return "full modulus (duplicate)";
    case DivisorClass::kSmoothBitError:
      return "smooth divisor (bit error)";
    case DivisorClass::kOther:
      return "other";
  }
  return "?";
}

namespace {

std::size_t prime_count_below(std::uint32_t bound) {
  // Crude upper count for small_primes(); bound/ln(bound) * 1.3.
  const double b = bound;
  return static_cast<std::size_t>(1.3 * b / std::log(b)) + 16;
}

/// The product of the primes <= bound, by a product tree.
BigInt product_of_primes(std::uint32_t bound) {
  std::vector<BigInt> level;
  if (bound >= 2) {
    for (const std::uint32_t p : bn::small_primes(prime_count_below(bound))) {
      if (p > bound) break;
      level.emplace_back(std::uint64_t{p});
    }
  }
  if (level.empty()) return BigInt(1);
  while (level.size() > 1) {
    std::vector<BigInt> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(level[i] * level[i + 1]);
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return std::move(level.front());
}

/// product_of_primes(bound), built once per bound: the default bound's
/// without a lock after its first use, any other under a mutex.
const BigInt& primorial(std::uint32_t bound) {
  static const BigInt common = product_of_primes(kSmoothBound);
  if (bound == kSmoothBound) return common;
  static std::mutex mutex;
  static std::map<std::uint32_t, BigInt> others;
  std::lock_guard lock(mutex);
  auto it = others.find(bound);
  if (it == others.end()) {
    it = others.emplace(bound, product_of_primes(bound)).first;
  }
  return it->second;
}

}  // namespace

SmoothSplit smooth_split(const BigInt& x, std::uint32_t bound) {
  SmoothSplit out{BigInt(1), x.abs()};
  if (out.cofactor.is_zero()) return out;
  if (bn::gcd(out.cofactor, primorial(bound)).is_one()) return out;
  for (const std::uint32_t p : bn::small_primes(prime_count_below(bound))) {
    if (p > bound) break;
    while (bn::mod_small(out.cofactor, p) == 0) {
      out.cofactor /= BigInt(std::uint64_t{p});
      out.smooth *= BigInt(std::uint64_t{p});
      if (out.cofactor.is_one()) return out;
    }
  }
  return out;
}

bool plausibly_well_formed(const BigInt& n, std::uint32_t bound) {
  if (n <= BigInt(4) || n.is_even()) return false;
  for (const std::uint32_t p : bn::small_primes(prime_count_below(bound))) {
    if (p > bound) break;
    if (BigInt(std::uint64_t{p}) >= n) break;
    if (bn::mod_small(n, p) == 0) return false;
  }
  return true;
}

DivisorClass triage_degenerate_modulus(const BigInt& n,
                                       std::uint32_t smooth_bound) {
  if (n <= BigInt(1)) return DivisorClass::kSmoothBitError;  // 0/1/negative: corruption
  const SmoothSplit split = smooth_split(n, smooth_bound);
  return split.smooth.is_one() ? DivisorClass::kOther
                               : DivisorClass::kSmoothBitError;
}

DivisorVerdict classify_divisor(const BigInt& n, const BigInt& d,
                                std::uint32_t smooth_bound) {
  DivisorVerdict verdict;
  if (d <= BigInt(1)) {
    verdict.cls = DivisorClass::kOther;
    return verdict;
  }
  if (d == n) {
    verdict.cls = DivisorClass::kFullModulus;
    return verdict;
  }

  const SmoothSplit split = smooth_split(d, smooth_bound);
  verdict.smooth_part = split.smooth;
  if (!split.smooth.is_one()) {
    // Any small prime factor in the divisor marks a corrupted (or otherwise
    // non-well-formed) modulus: real device primes are hundreds of bits.
    verdict.cls = DivisorClass::kSmoothBitError;
    return verdict;
  }

  // Primality spot check with a fixed-seed source keeps the pipeline
  // deterministic.
  rng::PrngRandomSource check_rng(0xd1f150f5ULL);
  const bool prime = bn::is_probable_prime(d, check_rng, 12);
  const std::size_t nb = n.bit_length();
  const std::size_t db = d.bit_length();
  const bool plausible_size = db + 8 >= nb / 2 && db <= nb / 2 + 8;
  verdict.cls = (prime && plausible_size) ? DivisorClass::kSharedPrime
                                          : DivisorClass::kOther;
  return verdict;
}

}  // namespace weakkeys::fingerprint
