// Three-prime number-theoretic transform products (DESIGN.md §5p).
//
// A product of limb vectors is a convolution of their limbs followed by
// carry propagation. Each output coefficient c_k = sum a_i b_j (i + j = k)
// is below min(an, bn) * 2^128 < 2^144 for the sizes dispatched here
// (min(an, bn) < 2^16), and a pair sharing a cyclic index below 2^145 (a
// cyclic coefficient of a wrapped product, over at most L folded limb
// pairs below 2^130 each, below 2^146), so it is recovered exactly from
// its residues modulo three 62-bit primes p = c * 2^32 + 1 (product
// ~2^186) by Garner's CRT. Each residue
// convolution is a cyclic convolution of power-of-two length L <= the cap:
// a decimation-in-frequency forward transform (natural order in,
// bit-reversed out), a pointwise Montgomery product, and a
// decimation-in-time inverse (bit-reversed in, natural out), so no pass
// permutes. Butterflies use Shoup's precomputed-quotient products with
// Harvey's lazy reduction: values stay in [0, 2p) or [0, 4p), which fit a
// limb because p < 2^62. The root tables stop at kTableLength; the few
// stages of a longer transform multiply by a table root and a side-table
// root in turn.
//
// A wrapped product a * b mod (B^L - 1) is the cyclic convolution itself,
// recombined with an end-around carry. An operand's forward transforms may
// be kept by the caller (ntt_keep) and read by every product at that
// length, and two middle products of one a transform a once per prime
// (ntt_mulmid_pair).
//
// D. Harvey, "Faster arithmetic for number-theoretic transforms",
// J. Symb. Comp. 60 (2014); V. Shoup, NTL's MulModPrecon.
#include <algorithm>
#include <array>
#include <bit>

#include "bn/detail.hpp"

namespace weakkeys::bn::detail {
namespace {

using Wide = unsigned __int128;

constexpr std::size_t kPrimeCount = 3;
constexpr std::array<Limb, kPrimeCount> kPrimes = {
    0x3fffffee00000001, 0x3fffffb400000001, 0x3fffffa000000001};

constexpr unsigned kMaxLog = std::countr_zero(kNttMaxLength);
static_assert((kNttMaxLength & (kNttMaxLength - 1)) == 0,
              "the transform cap is a power of two");
/// The root tables hold the roots of orders up to this length (3 x 128 KiB
/// for the three primes); a stage of a longer transform takes w_2h^j as
/// w_T^(j / m) from the table times w_2h^(j mod m) from a side table of
/// m = 2h / T entries.
constexpr std::size_t kTableLength = std::size_t{1} << 13;
static_assert(kTableLength <= kNttMaxLength);
/// Side-table entries: level m (2, 4, ..., kNttMaxLength / T) at [m, 2m).
constexpr std::size_t kSideEntries = 2 * kNttMaxLength / kTableLength;

Limb mul_hi(Limb a, Limb b) {
  return static_cast<Limb>((static_cast<Wide>(a) * b) >> 64);
}

/// w * y mod p in [0, 2p) for any limb y, with wp = floor(w * 2^64 / p).
Limb mul_shoup(Limb w, Limb wp, Limb y, Limb p) {
  return w * y - mul_hi(wp, y) * p;
}

/// The Shoup companion floor(w * 2^64 / p) of w < p.
Limb companion(Limb w, Limb p) {
  return static_cast<Limb>((static_cast<Wide>(w) << 64) / p);
}

Limb mul_mod(Limb a, Limb b, Limb p) {
  return static_cast<Limb>(static_cast<Wide>(a) * b % p);
}

Limb pow_mod(Limb base, Limb e, Limb p) {
  Limb r = 1;
  for (; e != 0; e >>= 1) {
    if (e & 1) r = mul_mod(r, base, p);
    base = mul_mod(base, base, p);
  }
  return r;
}

/// A constant multiplier with its Shoup companion.
struct Factor {
  Limb w = 0;
  Limb wp = 0;
  Limb times(Limb y, Limb p) const { return mul_shoup(w, wp, y, p); }
};

Factor factor(Limb value, Limb p) { return {value, companion(value, p)}; }

/// One prime's constants. The roots are stored level by level: at index
/// h + j (h a power of two below kTableLength, j < h) sits w_2h^j, for w_2h
/// a primitive 2h-th root of unity, and its companion; the inverse roots
/// are w_2h^-j = -w_2h^(h-j), whose companion is ~companion(w_2h^(h-j)).
/// Above the table, side[m + j0] = w_mT^j0 and side_inverse[m + j0] =
/// w_mT^-j0 for j0 < m, with w_mT^m = w_T, all powers of one generator.
struct Prime {
  explicit Prime(Limb modulus) : p(modulus) {
    // p^-1 mod 2^64 by Newton's iteration (each step doubles the bits).
    inv = p;
    for (int i = 0; i < 5; ++i) inv *= 2 - p * inv;
    // A quadratic non-residue g generates the 2-Sylow part: g^((p-1)/2^k)
    // has order exactly 2^k.
    Limb g = 3;
    while (pow_mod(g, (p - 1) / 2, p) != p - 1) ++g;
    for (std::size_t h = 1; h < kTableLength; h *= 2) {
      const Limb w = pow_mod(g, (p - 1) / (2 * h), p);
      Limb x = 1;
      for (std::size_t j = 0; j < h; ++j) {
        root[h + j] = x;
        root_companion[h + j] = companion(x, p);
        x = mul_mod(x, w, p);
      }
    }
    for (std::size_t m = 2; m < kSideEntries; m *= 2) {
      const Limb w = pow_mod(g, (p - 1) / (m * kTableLength), p);
      const Limb w_inverse = pow_mod(w, p - 2, p);
      Limb x = 1;
      Limb y = 1;
      for (std::size_t j = 0; j < m; ++j) {
        side[m + j] = factor(x, p);
        side_inverse[m + j] = factor(y, p);
        x = mul_mod(x, w, p);
        y = mul_mod(y, w_inverse, p);
      }
    }
    // The pointwise Montgomery product leaves a factor 2^-64 and the
    // inverse transform a factor L; undo both in one multiply.
    const Limb r = static_cast<Limb>((Wide{1} << 64) % p);
    const Limb half = (p + 1) / 2;
    Limb inv_length = 1;
    for (unsigned k = 0; k <= kMaxLog; ++k) {
      scale[k] = factor(mul_mod(r, inv_length, p), p);
      inv_length = mul_mod(inv_length, half, p);
    }
  }

  /// a * b * 2^-64 mod p in (0, 2p) for a, b < 2p (Montgomery): with
  /// t = a b < 4p^2 and m p = t mod 2^64, (t - m p) / 2^64 lies in (-p, p).
  Limb mont_mul(Limb a, Limb b) const {
    const Wide t = static_cast<Wide>(a) * b;
    const Limb m = static_cast<Limb>(t) * inv;
    return static_cast<Limb>(t >> 64) - mul_hi(m, p) + p;
  }

  /// Reduces a limb to [0, 2p): x - floor(x / 2^62) * p, as 2^62 - p is
  /// below 2^39.
  Limb load(Limb x) const { return x - (x >> 62) * p; }

  Limb p = 0;
  Limb inv = 0;  // p^-1 mod 2^64
  std::array<Limb, kTableLength> root{};
  std::array<Limb, kTableLength> root_companion{};
  std::array<Factor, kSideEntries> side{};
  std::array<Factor, kSideEntries> side_inverse{};
  std::array<Factor, kMaxLog + 1> scale{};
};

/// Garner's constants: x = v1 + p1 (v2 + p2 v3) with v2 = (x2 - v1) / p1
/// mod p2 and v3 = ((x3 - v1) / p1 - v2) / p2 mod p3.
struct Tables {
  /// a^-1 mod p, by Fermat.
  static Factor inverse_of(Limb a, Limb p) {
    return factor(pow_mod(a % p, p - 2, p), p);
  }

  Tables()
      : primes{Prime(kPrimes[0]), Prime(kPrimes[1]), Prime(kPrimes[2])},
        inv_p1_mod_p2(inverse_of(kPrimes[0], kPrimes[1])),
        inv_p1_mod_p3(inverse_of(kPrimes[0], kPrimes[2])),
        inv_p2_mod_p3(inverse_of(kPrimes[1], kPrimes[2])) {}

  std::array<Prime, kPrimeCount> primes;
  Factor inv_p1_mod_p2;
  Factor inv_p1_mod_p3;
  Factor inv_p2_mod_p3;
};

/// Built on first use; C++ makes that initialization thread-safe.
const Tables& tables() {
  static const Tables t;
  return t;
}

/// In-place forward transform of x[0, L), entries in [0, 2p) before and
/// after; the output is in bit-reversed order.
void forward(Limb* x, std::size_t length, const Prime& q) {
  const Limb p = q.p;
  const Limb p2 = 2 * p;
  std::size_t h = length / 2;
  // Above the table: j = j1 m + j0 and w_2h^j = w_T^j1 * w_2h^j0, where
  // w_2h^0 = 1 needs no second product. The butterflies are spelled out:
  // a helper taking u[j] by reference measured 6-8% slower.
  for (; 2 * h > kTableLength; h /= 2) {
    const std::size_t m = 2 * h / kTableLength;
    const Limb* w = q.root.data() + kTableLength / 2;
    const Limb* wp = q.root_companion.data() + kTableLength / 2;
    const Factor* side = q.side.data() + m;
    for (std::size_t s = 0; s < length; s += 2 * h) {
      Limb* u = x + s;
      Limb* v = u + h;
      for (std::size_t j1 = 0; j1 < kTableLength / 2; ++j1) {
        std::size_t j = j1 * m;
        {
          const Limb a = u[j];
          const Limb b = v[j];
          const Limb sum = a + b;
          u[j] = sum >= p2 ? sum - p2 : sum;
          v[j] = mul_shoup(w[j1], wp[j1], a - b + p2, p);
        }
        for (std::size_t j0 = 1; j0 < m; ++j0) {
          ++j;
          const Limb a = u[j];
          const Limb b = v[j];
          const Limb sum = a + b;
          u[j] = sum >= p2 ? sum - p2 : sum;
          v[j] = side[j0].times(mul_shoup(w[j1], wp[j1], a - b + p2, p), p);
        }
      }
    }
  }
  for (; h >= 1; h /= 2) {
    const Limb* w = q.root.data() + h;
    const Limb* wp = q.root_companion.data() + h;
    for (std::size_t s = 0; s < length; s += 2 * h) {
      Limb* u = x + s;
      Limb* v = u + h;
      for (std::size_t j = 0; j < h; ++j) {
        const Limb a = u[j];
        const Limb b = v[j];
        const Limb sum = a + b;
        u[j] = sum >= p2 ? sum - p2 : sum;
        v[j] = mul_shoup(w[j], wp[j], a - b + p2, p);
      }
    }
  }
}

/// In-place inverse transform (unscaled) of bit-reversed x[0, L), entries
/// below 4p before and after; the output is in natural order.
void inverse(Limb* x, std::size_t length, const Prime& q) {
  const Limb p = q.p;
  const Limb p2 = 2 * p;
  const Factor one = factor(1, p);
  std::size_t h = 1;
  for (; h < length && 2 * h <= kTableLength; h *= 2) {
    // w_2h^-j = -w_2h^(h-j) = p - root[2h - j], companion ~root_companion;
    // w^0 = 1.
    const Limb* w = q.root.data() + 2 * h;
    const Limb* wp = q.root_companion.data() + 2 * h;
    for (std::size_t s = 0; s < length; s += 2 * h) {
      Limb* u = x + s;
      Limb* v = u + h;
      Limb a = u[0] >= p2 ? u[0] - p2 : u[0];
      Limb t = one.times(v[0], p);
      u[0] = a + t;
      v[0] = a - t + p2;
      for (std::size_t j = 1; j < h; ++j) {
        a = u[j] >= p2 ? u[j] - p2 : u[j];
        t = mul_shoup(p - *(w - j), ~*(wp - j), v[j], p);
        u[j] = a + t;
        v[j] = a - t + p2;
      }
    }
  }
  // Above the table: w_2h^-j = w_T^-j1 * w_2h^-j0 for j = j1 m + j0.
  for (; h < length; h *= 2) {
    const std::size_t m = 2 * h / kTableLength;
    const Limb* w = q.root.data() + kTableLength;
    const Limb* wp = q.root_companion.data() + kTableLength;
    const Factor* side = q.side_inverse.data() + m;
    for (std::size_t s = 0; s < length; s += 2 * h) {
      Limb* u = x + s;
      Limb* v = u + h;
      for (std::size_t j1 = 0; j1 < kTableLength / 2; ++j1) {
        const Factor w1 = j1 == 0 ? one : Factor{p - *(w - j1), ~*(wp - j1)};
        std::size_t j = j1 * m;
        {
          const Limb a = u[j] >= p2 ? u[j] - p2 : u[j];
          const Limb t = w1.times(v[j], p);
          u[j] = a + t;
          v[j] = a - t + p2;
        }
        for (std::size_t j0 = 1; j0 < m; ++j0) {
          ++j;
          const Limb a = u[j] >= p2 ? u[j] - p2 : u[j];
          const Limb t = side[j0].times(w1.times(v[j], p), p);
          u[j] = a + t;
          v[j] = a - t + p2;
        }
      }
    }
  }
}

/// x[0, L) = the transform of a[0, an) reduced mod X^L - 1 (an <= 2L):
/// limbs past L fold onto the bottom, the rest is zero-padded.
void transform(Limb* x, const Limb* a, std::size_t an, std::size_t length,
               const Prime& q) {
  const std::size_t low = std::min(an, length);
  for (std::size_t i = 0; i < low; ++i) x[i] = q.load(a[i]);
  std::fill(x + low, x + length, Limb{0});
  const Limb p2 = 2 * q.p;
  for (std::size_t i = length; i < an; ++i) {
    const Limb v = x[i - length] + q.load(a[i]);
    x[i - length] = v >= p2 ? v - p2 : v;
  }
  forward(x, length, q);
}

/// The cyclic convolution of a and b (b == nullptr: a with itself) modulo
/// each prime, times 2^-64 / L, kept at the indices k mod L for k in
/// [first, first + count) that recombine reads: the first prime's in
/// r[0, count), the second's in ws[w, w + count) and the third's in
/// ws[0, L), by k mod L. An operand with kept transforms is read, not
/// transformed; b's transform takes ws[L, 2L) when neither operand is kept
/// and this is not a square, so w = 2L then and L otherwise (ws holds
/// ntt_scratch_limbs(L, w == L, count) limbs). Returns ws + w.
const Limb* convolve(Limb* r, const Operand& a, const Operand* b,
                     std::size_t first, std::size_t count,
                     std::size_t length, Limb* ws) {
  const Tables& t = tables();
  Limb* x = ws;
  const bool both_fresh = b != nullptr && a.transforms == nullptr &&
                          b->transforms == nullptr;
  Limb* other = ws + length;  // b's transform when both are fresh
  Limb* const kept[] = {r, ws + (both_fresh ? 2 : 1) * length};
  for (std::size_t i = 0; i < kPrimeCount; ++i) {
    const Prime& q = t.primes[i];
    const Limb* ta = x;
    if (a.transforms != nullptr) {
      ta = a.transforms + i * length;
    } else {
      transform(x, a.limbs, a.size, length, q);
    }
    const Limb* tb = ta;  // a square
    if (b != nullptr && b->transforms != nullptr) {
      tb = b->transforms + i * length;
    } else if (b != nullptr) {
      Limb* dst = both_fresh ? other : x;
      transform(dst, b->limbs, b->size, length, q);
      tb = dst;
    }
    for (std::size_t k = 0; k < length; ++k) x[k] = q.mont_mul(ta[k], tb[k]);
    inverse(x, length, q);
    if (i + 1 < kPrimeCount) {
      for (std::size_t k = 0; k < count; ++k) {
        kept[i][k] = x[(first + k) & (length - 1)];
      }
    }
  }
  return kept[1];
}

/// x mod p for x in [0, 2p).
Limb reduce_once(Limb x, Limb p) { return x >= p ? x - p : x; }

/// A coefficient of the product, below 2^144: three limbs.
struct Coefficient {
  Wide low = 0;
  Limb top = 0;
};

/// c_q = sum of a_i b_(q-i) by schoolbook: a diagonal at a corner of the
/// product, of few terms.
Coefficient diagonal(const Limb* a, std::size_t an, const Limb* b,
                     std::size_t bn, std::size_t q) {
  Coefficient c;
  const std::size_t last = std::min(q, an - 1);
  for (std::size_t i = q >= bn ? q - bn + 1 : 0; i <= last; ++i) {
    const Wide p = static_cast<Wide>(a[i]) * b[q - i];
    c.low += p;
    c.top += c.low < p;
  }
  return c;
}

/// r[0, count) = the sum of c_k B^(k - first) over k in [first,
/// first + count) for c = a * b, less the carry out, which is returned
/// (below 2^82). Each c_k is its cyclic coefficient k mod L, recovered by
/// CRT from the three residue convolutions that convolve left in r, x2 and
/// x3, less the one other coefficient of a * b that wraps onto the same
/// index, if any (an + bn - 1 <= 2L, so there is at most one). A wrapped
/// product (a == nullptr) wants the cyclic coefficients themselves and
/// subtracts nothing. Limb k - first of r is read before it is written.
Wide recombine(Limb* r, const Limb* a, std::size_t an, const Limb* b,
               std::size_t bn, std::size_t first, std::size_t count,
               std::size_t length, const Limb* x2, const Limb* x3) {
  const Tables& t = tables();
  const Prime& q1 = t.primes[0];
  const Prime& q2 = t.primes[1];
  const Prime& q3 = t.primes[2];
  const unsigned log = static_cast<unsigned>(std::countr_zero(length));
  const Factor s1 = q1.scale[log];
  const Factor s2 = q2.scale[log];
  const Factor s3 = q3.scale[log];
  const Limb p1 = q1.p, p2 = q2.p, p3 = q3.p;
  const std::size_t total = a == nullptr ? 0 : an + bn - 1;
  Wide carry = 0;  // below 2^82, as every c_k is below 2^146
  for (std::size_t k = first; k < first + count; ++k) {
    const Limb v1 = reduce_once(s1.times(r[k - first], p1), p1);
    const Limb y2 = reduce_once(s2.times(x2[k - first], p2), p2);
    const Limb y3 = reduce_once(s3.times(x3[k & (length - 1)], p3), p3);
    // v1 < p1 < 2 p2 and < 2 p3, so adding 2p keeps each difference
    // nonnegative, and every Shoup input is a limb.
    const Limb v2 =
        reduce_once(t.inv_p1_mod_p2.times(y2 + 2 * p2 - v1, p2), p2);
    const Limb u3 = t.inv_p1_mod_p3.times(y3 + 2 * p3 - v1, p3);
    const Limb v3 =
        reduce_once(t.inv_p2_mod_p3.times(u3 + 2 * p3 - v2, p3), p3);
    // c = v1 + p1 (v2 + p2 v3), in three limbs (c0, c1, c2).
    const Wide u = static_cast<Wide>(p2) * v3 + v2;
    const Wide lo = static_cast<Wide>(p1) * static_cast<Limb>(u) + v1;
    const Wide hi = static_cast<Wide>(p1) * static_cast<Limb>(u >> 64) +
                    static_cast<Limb>(lo >> 64);
    Limb c0 = static_cast<Limb>(lo);
    Wide c12 = hi;  // c1 | c2 << 64
    if (k >= length || k + length < total) {
      const Coefficient w =
          diagonal(a, an, b, bn, k >= length ? k - length : k + length);
      const Limb w0 = static_cast<Limb>(w.low);
      const Wide w12 = (static_cast<Wide>(w.top) << 64) | (w.low >> 64);
      c12 -= w12 + (c0 < w0);
      c0 -= w0;
    }
    // Add c to the carry and emit its low limb.
    const Wide s0 = static_cast<Wide>(c0) + static_cast<Limb>(carry);
    r[k - first] = static_cast<Limb>(s0);
    carry = c12 + (carry >> 64) + static_cast<Limb>(s0 >> 64);
  }
  return carry;
}

/// r[0, extra) = carry, limb by limb.
void write_carry(Limb* r, std::size_t extra, Wide carry) {
  for (std::size_t i = 0; i < extra; ++i) {
    r[i] = static_cast<Limb>(carry);
    carry >>= 64;
  }
}

/// The transform length for `need` coefficients: the next power of two, or
/// the one below when at most kNttWrapLimbs coefficients wrap past it.
std::size_t wrapped_length(std::size_t need) {
  const std::size_t full = std::bit_ceil(need);
  return full > 4 * kNttWrapLimbs && need - full / 2 <= kNttWrapLimbs
             ? full / 2
             : full;
}

}  // namespace

std::size_t ntt_product_length(std::size_t an, std::size_t bn) {
  return wrapped_length(an + bn - 1);
}

std::size_t ntt_middle_length(std::size_t an, std::size_t bn) {
  // Band coefficients past L wrap onto low ones; at most one more
  // coefficient may share each index.
  const std::size_t length = wrapped_length(an);
  return an + bn - 1 <= 2 * length ? length : std::bit_ceil(an);
}

std::size_t ntt_scratch_limbs(std::size_t length, bool single,
                              std::size_t count) {
  return (single ? 1 : 2) * length + count;
}

void ntt_keep(Limb* t, const Limb* a, std::size_t an, std::size_t length) {
  const Tables& tab = tables();
  for (std::size_t i = 0; i < kPrimeCount; ++i) {
    transform(t + i * length, a, an, length, tab.primes[i]);
  }
}

void ntt_mul(Limb* r, const Limb* a, std::size_t an, const Limb* b,
             std::size_t bn, Limb* ws) {
  const std::size_t length = ntt_product_length(an, bn);
  const Operand other{b, bn};
  const Limb* x2 = convolve(r, {a, an}, &other, 0, an + bn - 1, length, ws);
  write_carry(r + an + bn - 1, 1,
              recombine(r, a, an, b, bn, 0, an + bn - 1, length, x2, ws));
}

void ntt_sqr(Limb* r, const Limb* a, std::size_t n, Limb* ws) {
  const std::size_t length = ntt_product_length(n, n);
  const Limb* x2 = convolve(r, {a, n}, nullptr, 0, 2 * n - 1, length, ws);
  write_carry(r + 2 * n - 1, 1,
              recombine(r, a, n, a, n, 0, 2 * n - 1, length, x2, ws));
}

void ntt_mulmid(Limb* r, const Limb* a, std::size_t an, const Limb* b,
                std::size_t bn, Limb* ws) {
  ntt_mulmid_at(r, {a, an}, {b, bn}, ntt_middle_length(an, bn), ws);
}

void ntt_mulmid_at(Limb* r, const Operand& a, const Operand& b,
                   std::size_t length, Limb* ws) {
  // With L >= an, the diagonals k >= L wrap to k - L <= an + bn - 2 - L <=
  // bn - 2, below the band [bn - 1, an - 1]; a shorter L leaves a few band
  // coefficients for recombine to separate.
  const std::size_t count = a.size - b.size + 1;
  const Limb* x2 = convolve(r, a, &b, b.size - 1, count, length, ws);
  write_carry(r + count, 2,
              recombine(r, a.limbs, a.size, b.limbs, b.size, b.size - 1,
                        count, length, x2, ws));
}

void ntt_mulmid_pair(Limb* r0, Limb* r1, const Limb* a, std::size_t an,
                     const Limb* b0, std::size_t bn0, const Limb* b1,
                     std::size_t bn1, std::size_t length, Limb* ws) {
  const Tables& t = tables();
  Limb* x = ws;           // a's transform, once per prime
  Limb* y = ws + length;  // each b's transform, then its product with a
  const Limb* const b[] = {b0, b1};
  const std::size_t bn[] = {bn0, bn1};
  Limb* const r[] = {r0, r1};
  Limb* const kept2[] = {ws + 2 * length, ws + 2 * length + an - bn0 + 1};
  for (std::size_t i = 0; i < kPrimeCount; ++i) {
    const Prime& q = t.primes[i];
    transform(x, a, an, length, q);
    for (std::size_t c = 0; c < 2; ++c) {
      transform(y, b[c], bn[c], length, q);
      for (std::size_t k = 0; k < length; ++k) y[k] = q.mont_mul(x[k], y[k]);
      inverse(y, length, q);
      const std::size_t first = bn[c] - 1;
      const std::size_t count = an - bn[c] + 1;
      if (i + 1 < kPrimeCount) {
        Limb* kept = i == 0 ? r[c] : kept2[c];
        for (std::size_t k = 0; k < count; ++k) {
          kept[k] = y[(first + k) & (length - 1)];
        }
      } else {
        // The last prime's residues are in y until the next b's transform.
        write_carry(r[c] + count, 2,
                    recombine(r[c], a, an, b[c], bn[c], first, count, length,
                              kept2[c], y));
      }
    }
  }
}

void ntt_mul_wrapped(Limb* r, const Operand& a, const Operand& b,
                     std::size_t length, Limb* ws) {
  // Every cyclic coefficient is wanted as it is; the carry out of limb
  // L - 1 is worth B^L = 1, so it goes back in at the bottom, and a second
  // carry can only follow a sum that left at most the carry behind.
  const Limb* x2 = convolve(r, a, &b, 0, length, length, ws);
  const Wide carry =
      recombine(r, nullptr, 0, nullptr, 0, 0, length, length, x2, ws);
  const Limb c[2] = {static_cast<Limb>(carry), static_cast<Limb>(carry >> 64)};
  if (add_1(r + 2, length - 2, add_n(r, r, c, 2)) != 0) add_1(r, length, 1);
}

}  // namespace weakkeys::bn::detail
