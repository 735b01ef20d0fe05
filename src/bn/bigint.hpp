// Arbitrary-precision signed integers, implemented from scratch.
//
// This is the substrate the whole reproduction stands on: the batch GCD
// computation over the full key corpus is feasibility-bound by the
// asymptotics of multiplication and division, exactly as in the paper
// (Section 3.2). Consequently the library provides:
//
//   * schoolbook + Karatsuba multiplication (subquadratic above a threshold)
//     on allocation-free span kernels,
//   * Knuth Algorithm D division plus Newton-reciprocal (Barrett-style)
//     division that costs O(M(n)) for huge operands, and the two fixed-point
//     primitives of the scaled remainder tree: a Newton reciprocal
//     floor(2^k / d) and a windowed product floor(a*b / 2^s) mod 2^w,
//   * binary GCD, extended GCD / modular inverse,
//   * Montgomery modular exponentiation (used by Miller-Rabin),
//   * deterministic random generation from an abstract byte source so the
//     simulated device RNGs in src/rng drive key generation directly.
//
// Representation: sign (-1, 0, +1) and little-endian vector of 64-bit limbs
// with no trailing zero limbs (canonical form). Value semantics throughout.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace weakkeys::bn {

using Limb = std::uint64_t;

/// Quotient and remainder pair returned by BigInt::divmod (truncated
/// toward zero). Defined after BigInt below.
struct DivMod;

class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// Conversions from native integers.
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor)
  BigInt(std::int64_t v);   // NOLINT(google-explicit-constructor)
  BigInt(int v) : BigInt(static_cast<std::int64_t>(v)) {}  // NOLINT

  // -- Inspectors ----------------------------------------------------------

  [[nodiscard]] bool is_zero() const { return sign_ == 0; }
  [[nodiscard]] bool is_one() const { return sign_ == 1 && limbs_.size() == 1 && limbs_[0] == 1; }
  [[nodiscard]] bool is_negative() const { return sign_ < 0; }
  [[nodiscard]] bool is_odd() const { return sign_ != 0 && (limbs_[0] & 1); }
  [[nodiscard]] bool is_even() const { return !is_odd(); }
  [[nodiscard]] int sign() const { return sign_; }

  /// Number of significant bits of |x| (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;

  /// Number of limbs in the magnitude (0 for zero).
  [[nodiscard]] std::size_t limb_count() const { return limbs_.size(); }

  /// Bit i (0 = least significant) of the magnitude.
  [[nodiscard]] bool bit(std::size_t i) const;

  /// Value as uint64_t. Throws std::overflow_error if it does not fit or is
  /// negative.
  [[nodiscard]] std::uint64_t to_uint64() const;

  /// Read-only view of the magnitude limbs (little endian).
  [[nodiscard]] std::span<const Limb> limbs() const { return limbs_; }

  // -- Arithmetic ----------------------------------------------------------

  BigInt operator-() const;
  [[nodiscard]] BigInt abs() const;

  friend BigInt operator+(const BigInt& a, const BigInt& b);
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  /// Truncated division (rounds toward zero), like C++ integer division.
  /// Throws std::domain_error on division by zero.
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  /// Remainder with sign of the dividend (C++ semantics).
  friend BigInt operator%(const BigInt& a, const BigInt& b);

  BigInt& operator+=(const BigInt& b) { return *this = *this + b; }
  BigInt& operator-=(const BigInt& b) { return *this = *this - b; }
  BigInt& operator*=(const BigInt& b) { return *this = *this * b; }
  BigInt& operator/=(const BigInt& b) { return *this = *this / b; }
  BigInt& operator%=(const BigInt& b) { return *this = *this % b; }

  /// Quotient and remainder in one pass (truncated toward zero).
  [[nodiscard]] static DivMod divmod(const BigInt& a, const BigInt& b);

  /// Left/right shifts of the magnitude (sign preserved; -1 >> 1 == 0).
  friend BigInt operator<<(const BigInt& a, std::size_t bits);
  friend BigInt operator>>(const BigInt& a, std::size_t bits);
  BigInt& operator<<=(std::size_t bits) { return *this = *this << bits; }
  BigInt& operator>>=(std::size_t bits) { return *this = *this >> bits; }

  /// The square of this value (slightly cheaper than x * x at scale).
  [[nodiscard]] BigInt squared() const;

  // -- Comparison ----------------------------------------------------------

  friend bool operator==(const BigInt& a, const BigInt& b) = default;
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  // -- Construction from strings / bytes ------------------------------------

  /// Parses decimal (optionally signed) text. Throws std::invalid_argument.
  static BigInt from_decimal(const std::string& text);

  /// Parses lowercase/uppercase hex (no 0x prefix, optionally signed).
  static BigInt from_hex(const std::string& text);

  /// Interprets big-endian bytes as an unsigned integer.
  static BigInt from_bytes(std::span<const std::uint8_t> bytes);

  [[nodiscard]] std::string to_decimal() const;
  [[nodiscard]] std::string to_hex() const;

  /// Magnitude as big-endian bytes, no leading zeros ("{}" for zero -> {0}).
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;

  // -- Internal-but-shared helpers used by the algorithm files --------------

  /// Builds a value from a limb vector (takes ownership; normalizes).
  static BigInt from_limbs(std::vector<Limb> limbs, int sign = 1);

  /// Low `count` limbs of the magnitude as a non-negative value.
  [[nodiscard]] BigInt low_limbs(std::size_t count) const;

  /// Magnitude shifted right by `count` whole limbs, as a non-negative value.
  [[nodiscard]] BigInt high_limbs_from(std::size_t count) const;

 private:
  friend struct BigIntOps;

  void normalize();

  int sign_ = 0;
  std::vector<Limb> limbs_;
};

struct DivMod {
  BigInt quotient;
  BigInt remainder;
};

std::ostream& operator<<(std::ostream& os, const BigInt& v);

// -- Number theory ----------------------------------------------------------

/// Greatest common divisor of |a| and |b| (binary GCD); gcd(0,0) == 0. An
/// operand more than twice the other's length is first reduced modulo the
/// other's odd part by Montgomery steps, n multiplies per limb.
BigInt gcd(const BigInt& a, const BigInt& b);

/// Extended GCD: returns g = gcd(a, b) and x, y with a*x + b*y == g.
struct ExtendedGcd {
  BigInt g;
  BigInt x;
  BigInt y;
};
ExtendedGcd extended_gcd(const BigInt& a, const BigInt& b);

/// Modular inverse of a mod m (m > 1). Throws std::domain_error when
/// gcd(a, m) != 1.
BigInt mod_inverse(const BigInt& a, const BigInt& m);

/// a^e mod m for e >= 0, m > 0. Uses Montgomery arithmetic when m is odd.
BigInt mod_pow(const BigInt& a, const BigInt& e, const BigInt& m);

/// Abstract source of random bytes driving key generation. Implementations
/// include the simulated flawed device RNGs in src/rng.
class RandomSource {
 public:
  virtual ~RandomSource() = default;
  /// Fills `out` with bytes.
  virtual void fill(std::span<std::uint8_t> out) = 0;
};

/// Uniform integer in [0, 2^bits) drawn from `src`.
BigInt random_bits(RandomSource& src, std::size_t bits);

/// Uniform integer in [low, high] (inclusive); requires low <= high.
BigInt random_range(RandomSource& src, const BigInt& low, const BigInt& high);

/// Miller-Rabin primality test with `rounds` random bases from `src`.
/// Deterministic small-prime handling (trial division by the first 64
/// primes, then miller_rabin); composite numbers are detected with
/// probability >= 1 - 4^-rounds.
bool is_probable_prime(const BigInt& n, RandomSource& src, int rounds = 16);

/// The Miller-Rabin rounds of is_probable_prime alone, without its trial
/// division: for callers whose sieve already removed small factors. Each
/// round draws one base with random_range(src, 2, n - 2). Throws
/// std::domain_error unless n is odd and >= 5.
bool miller_rabin(const BigInt& n, RandomSource& src, int rounds);

/// The first `count` primes (2, 3, 5, ...), computed by sieve.
const std::vector<std::uint32_t>& small_primes(std::size_t count);

/// n mod p for a single small prime (fast limb scan, no allocation).
std::uint64_t mod_small(const BigInt& n, std::uint64_t p);

/// floor(2^bits / d) for d > 0, by Newton iteration (O(M(n)), exact).
BigInt reciprocal(const BigInt& d, std::size_t bits);

/// floor(|a * b| / 2^shift) mod 2^bits: a window of the product, for
/// fixed-point arithmetic. Exact. When the window is a narrow enough band
/// of the product, computes only that band (a middle product from two guard
/// limbs below it); otherwise, or when the guard limbs could carry into the
/// window, the full product.
BigInt mul_window(const BigInt& a, const BigInt& b, std::size_t shift,
                  std::size_t bits);

// Tuning knobs shared with the benchmark suite (see bench/perf_bn.cpp).
struct Tuning {
  /// Operand size (limbs) above which Karatsuba replaces schoolbook.
  static std::size_t& karatsuba_threshold();
  /// Divisor size (limbs) above which Newton-reciprocal division replaces
  /// Knuth Algorithm D.
  static std::size_t& newton_div_threshold();
};

}  // namespace weakkeys::bn
