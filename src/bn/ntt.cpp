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
// The transforms and the pointwise product run in 8 x 64-bit AVX-512 lanes
// where CPUID reports AVX-512F and DQ; the scalar kernels stay as the
// reference, and both write the same limbs.
//
// D. Harvey, "Faster arithmetic for number-theoretic transforms",
// J. Symb. Comp. 60 (2014); V. Shoup, NTL's MulModPrecon.
#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "bn/detail.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WEAKKEYS_NTT_LANES 1
#include <immintrin.h>
#else
#define WEAKKEYS_NTT_LANES 0
#endif

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

/// x[k] = a[k] * b[k] * 2^-64 mod p in (0, 2p) for k < L, for entries of
/// a and b below 2p; x may be a or b.
void pointwise(Limb* x, const Limb* a, const Limb* b, std::size_t length,
               const Prime& q) {
  for (std::size_t k = 0; k < length; ++k) x[k] = q.mont_mul(a[k], b[k]);
}

#if WEAKKEYS_NTT_LANES
// -- The same kernels in 8 x 64-bit AVX-512 lanes (DESIGN.md §5p, "Lanes") --
// Each lane runs the scalar formulas on its own coefficient, so every
// output limb is the scalar kernel's. The 64-bit high product is four
// 32 x 32-bit products, and q * p mod 2^64 is q + (q c mod 2^32) 2^32 for
// p = c 2^32 + 1. Stages h >= 8 read eight consecutive butterflies; the
// three shortest stages run on a 16-coefficient block held in two vectors,
// permuted between stages. GCC's vector extensions do the arithmetic, and
// the only intrinsics are ones whose headers leave no lane undefined
// (those raise -Wmaybe-uninitialized in GCC 12).

#define WEAKKEYS_LANES __attribute__((target("avx512f,avx512dq")))

typedef Limb Lanes __attribute__((vector_size(64)));
constexpr std::size_t kLanes = 8;

WEAKKEYS_LANES Lanes splat(Limb x) { return Lanes{} + x; }

WEAKKEYS_LANES Lanes load(const Limb* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

WEAKKEYS_LANES void store(Limb* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

/// p[0, count) in lanes 0 to count - 1 and zeros above; reads nothing past.
WEAKKEYS_LANES Lanes load_first(const Limb* p, std::size_t count) {
  return reinterpret_cast<Lanes>(_mm512_maskz_loadu_epi64(
      static_cast<__mmask8>((1u << count) - 1), p));
}

/// Lane l is lane index[l] of a for index[l] < 8, else lane index[l] - 8
/// of b.
WEAKKEYS_LANES Lanes permute(Lanes a, Lanes index, Lanes b) {
  return reinterpret_cast<Lanes>(_mm512_permutex2var_epi64(
      reinterpret_cast<__m512i>(a), reinterpret_cast<__m512i>(index),
      reinterpret_cast<__m512i>(b)));
}

/// Lane l of `chosen` where bit l of `mask` is set, else of `other`.
WEAKKEYS_LANES Lanes select(unsigned mask, Lanes chosen, Lanes other) {
  return reinterpret_cast<Lanes>(_mm512_mask_blend_epi64(
      static_cast<__mmask8>(mask), reinterpret_cast<__m512i>(other),
      reinterpret_cast<__m512i>(chosen)));
}

/// The 64-bit products of the lanes' low 32 bits.
WEAKKEYS_LANES Lanes mul_32(Lanes a, Lanes b) {
  return reinterpret_cast<Lanes>(_mm512_maskz_mul_epu32(
      0xFF, reinterpret_cast<__m512i>(a), reinterpret_cast<__m512i>(b)));
}

WEAKKEYS_LANES Lanes mul_hi(Lanes a, Lanes b) {
  const Lanes low = splat(0xffffffff);
  const Lanes ah = a >> 32;
  const Lanes bh = b >> 32;
  const Lanes lh = mul_32(a, bh);
  const Lanes hl = mul_32(ah, b);
  const Lanes mid = (mul_32(a, b) >> 32) + (lh & low) + (hl & low);
  return mul_32(ah, bh) + (lh >> 32) + (hl >> 32) + (mid >> 32);
}

WEAKKEYS_LANES Lanes reduce(Lanes x, Lanes bound) {
  return x >= bound ? x - bound : x;
}

/// One prime's constants in every lane.
struct LanePrime {
  WEAKKEYS_LANES explicit LanePrime(const Prime& q)
      : p(splat(q.p)), p2(splat(2 * q.p)), c(splat(q.p >> 32)),
        inv(splat(q.inv)) {}

  /// x * p mod 2^64.
  WEAKKEYS_LANES Lanes times_p(Lanes x) const {
    return x + (mul_32(x, c) << 32);
  }

  /// mul_shoup in each lane.
  WEAKKEYS_LANES Lanes shoup(Lanes w, Lanes wp, Lanes y) const {
    return w * y - times_p(mul_hi(wp, y));
  }

  /// Prime::mont_mul in each lane; mul_hi(m, p) takes two 32-bit products,
  /// as p's low half is 1.
  WEAKKEYS_LANES Lanes mont_mul(Lanes a, Lanes b) const {
    const Lanes m = a * b * inv;
    const Lanes mc = mul_32(m, c);
    const Lanes mid = (mc & splat(0xffffffff)) + (m >> 32);
    const Lanes mp_hi = mul_32(m >> 32, c) + (mc >> 32) + (mid >> 32);
    return mul_hi(a, b) - mp_hi + p;
  }

  /// forward()'s butterfly on u and v: entries below 2p in and out.
  WEAKKEYS_LANES void forward(Lanes& u, Lanes& v, Lanes w, Lanes wp) const {
    const Lanes a = u;
    u = reduce(a + v, p2);
    v = shoup(w, wp, a - v + p2);
  }

  /// inverse()'s butterfly: entries below 4p in and out.
  WEAKKEYS_LANES void inverse(Lanes& u, Lanes& v, Lanes w, Lanes wp) const {
    const Lanes a = reduce(u, p2);
    const Lanes t = shoup(w, wp, v);
    u = a + t;
    v = a - t + p2;
  }

  Lanes p, p2, c, inv;
};

/// A stage above the root table, at m = 2h / T <= 8: lane l of the
/// butterflies at j = 8g + l has j1 = 8g / m + l / m and j0 = l mod m, so
/// 8 / m table roots spread over the lanes and one side-table pattern
/// repeats.
struct SideLanes {
  static_assert(kSideEntries / 2 <= kLanes,
                "m <= 8: one side-table pattern per group of lanes");

  WEAKKEYS_LANES SideLanes(const Factor* side, std::size_t m)
      : count(kLanes / m) {
    alignas(64) Limb ws[kLanes], wps[kLanes], spreads[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      ws[l] = side[m + l % m].w;
      wps[l] = side[m + l % m].wp;
      spreads[l] = l / m;
      if (l % m == 0) first |= 1u << l;
    }
    w = load(ws);
    wp = load(wps);
    spread = load(spreads);
  }

  /// Lane l = t[l / m], reading t[0, count).
  WEAKKEYS_LANES Lanes roots(const Limb* t) const {
    const Lanes r = load_first(t, count);
    return permute(r, spread, r);
  }

  /// Lane l = t[-(l / m)], reading t[1 - count, 1 - skip); lanes that would
  /// read t[0] read 0 when skip is 1.
  WEAKKEYS_LANES Lanes roots_reversed(const Limb* t, std::size_t skip) const {
    const Lanes r = load_first(t + 1 - count, count - skip);
    return permute(r, splat(count - 1) - spread, r);
  }

  std::size_t count;
  unsigned first = 0;  // lanes with j0 = 0, which take no side product
  Lanes w, wp, spread;
};

const Lanes kLow4 = {0, 1, 2, 3, 8, 9, 10, 11};
const Lanes kHigh4 = {4, 5, 6, 7, 12, 13, 14, 15};
const Lanes kLow2 = {0, 1, 8, 9, 4, 5, 12, 13};
const Lanes kHigh2 = {2, 3, 10, 11, 6, 7, 14, 15};
const Lanes kEven = {0, 8, 2, 10, 4, 12, 6, 14};
const Lanes kOdd = {1, 9, 3, 11, 5, 13, 7, 15};
const Lanes kSplitEven = {0, 2, 4, 6, 8, 10, 12, 14};
const Lanes kSplitOdd = {1, 3, 5, 7, 9, 11, 13, 15};
const Lanes kMergeLow = {0, 8, 1, 9, 2, 10, 3, 11};
const Lanes kMergeHigh = {4, 12, 5, 13, 6, 14, 7, 15};
const Lanes kReverse = {7, 6, 5, 4, 3, 2, 1, 0};

/// forward() in lanes, for L >= 16.
WEAKKEYS_LANES void forward_lanes(Limb* x, std::size_t length,
                                  const Prime& q) {
  if (length < 2 * kLanes) return forward(x, length, q);
  const LanePrime lp(q);
  std::size_t h = length / 2;
  for (; 2 * h > kTableLength; h /= 2) {
    const std::size_t m = 2 * h / kTableLength;
    const SideLanes side(q.side.data(), m);
    const Limb* w = q.root.data() + kTableLength / 2;
    const Limb* wp = q.root_companion.data() + kTableLength / 2;
    for (std::size_t s = 0; s < length; s += 2 * h) {
      Limb* u = x + s;
      Limb* v = u + h;
      for (std::size_t j = 0; j < h; j += kLanes) {
        const std::size_t j1 = j / m;
        Lanes a = load(u + j);
        Lanes b = load(v + j);
        lp.forward(a, b, side.roots(w + j1), side.roots(wp + j1));
        store(u + j, a);
        store(v + j, select(side.first, b, lp.shoup(side.w, side.wp, b)));
      }
    }
  }
  for (; h >= kLanes; h /= 2) {
    const Limb* w = q.root.data() + h;
    const Limb* wp = q.root_companion.data() + h;
    for (std::size_t s = 0; s < length; s += 2 * h) {
      Limb* u = x + s;
      Limb* v = u + h;
      for (std::size_t j = 0; j < h; j += kLanes) {
        Lanes a = load(u + j);
        Lanes b = load(v + j);
        lp.forward(a, b, load(w + j), load(wp + j));
        store(u + j, a);
        store(v + j, b);
      }
    }
  }
  // h = 4, 2, 1 on two blocks of 8 at once: a and b hold the butterflies'
  // halves, whose roots are w_8^(l mod 4), w_4^(l mod 2) and w_2^0.
  const Limb* r = q.root.data();
  const Limb* rc = q.root_companion.data();
  const Lanes w4 = {r[4], r[5], r[6], r[7], r[4], r[5], r[6], r[7]};
  const Lanes wp4 = {rc[4], rc[5], rc[6], rc[7], rc[4], rc[5], rc[6], rc[7]};
  const Lanes w2 = {r[2], r[3], r[2], r[3], r[2], r[3], r[2], r[3]};
  const Lanes wp2 = {rc[2], rc[3], rc[2], rc[3], rc[2], rc[3], rc[2], rc[3]};
  for (std::size_t s = 0; s < length; s += 2 * kLanes) {
    const Lanes lo = load(x + s);
    const Lanes hi = load(x + s + kLanes);
    Lanes a = permute(lo, kLow4, hi);
    Lanes b = permute(lo, kHigh4, hi);
    lp.forward(a, b, w4, wp4);
    Lanes c = permute(a, kLow2, b);
    Lanes d = permute(a, kHigh2, b);
    lp.forward(c, d, w2, wp2);
    a = permute(c, kEven, d);
    b = permute(c, kOdd, d);
    lp.forward(a, b, splat(r[1]), splat(rc[1]));
    store(x + s, permute(a, kMergeLow, b));
    store(x + s + kLanes, permute(a, kMergeHigh, b));
  }
}

/// inverse() in lanes, for L >= 16.
WEAKKEYS_LANES void inverse_lanes(Limb* x, std::size_t length,
                                  const Prime& q) {
  if (length < 2 * kLanes) return inverse(x, length, q);
  const LanePrime lp(q);
  const Factor one = factor(1, q.p);
  // h = 1, 2, 4 on two blocks of 8 at once, the forward's permutes undone;
  // the roots are w_2^0, w_4^-(l mod 2) and w_8^-(l mod 4), where w^0 is
  // `one` and w_2h^-j = p - root[2h - j] with companion ~root_companion.
  {
    const Limb* r = q.root.data();
    const Limb* rc = q.root_companion.data();
    const Limb w41 = q.p - r[7], w42 = q.p - r[6], w43 = q.p - r[5];
    const Lanes w4 = {one.w, w41, w42, w43, one.w, w41, w42, w43};
    const Lanes wp4 = {one.wp, ~rc[7], ~rc[6], ~rc[5],
                       one.wp, ~rc[7], ~rc[6], ~rc[5]};
    const Limb w21 = q.p - r[3];
    const Lanes w2 = {one.w, w21, one.w, w21, one.w, w21, one.w, w21};
    const Lanes wp2 = {one.wp, ~rc[3], one.wp, ~rc[3],
                       one.wp, ~rc[3], one.wp, ~rc[3]};
    for (std::size_t s = 0; s < length; s += 2 * kLanes) {
      const Lanes lo = load(x + s);
      const Lanes hi = load(x + s + kLanes);
      Lanes a = permute(lo, kSplitEven, hi);
      Lanes b = permute(lo, kSplitOdd, hi);
      lp.inverse(a, b, splat(one.w), splat(one.wp));
      Lanes c = permute(a, kEven, b);
      Lanes d = permute(a, kOdd, b);
      lp.inverse(c, d, w2, wp2);
      a = permute(c, kLow2, d);
      b = permute(c, kHigh2, d);
      lp.inverse(a, b, w4, wp4);
      store(x + s, permute(a, kLow4, b));
      store(x + s + kLanes, permute(a, kHigh4, b));
    }
  }
  // Lanes j to j + 7 read root[2h - j - 7, 2h - j] reversed; at j = 0 the
  // lane with w^0 reads nothing and takes `one`.
  std::size_t h = kLanes;
  for (; h < length && 2 * h <= kTableLength; h *= 2) {
    const Limb* w = q.root.data() + 2 * h - (kLanes - 1);
    const Limb* wp = q.root_companion.data() + 2 * h - (kLanes - 1);
    for (std::size_t s = 0; s < length; s += 2 * h) {
      Limb* u = x + s;
      Limb* v = u + h;
      for (std::size_t j = 0; j < h; j += kLanes) {
        const std::size_t count = j == 0 ? kLanes - 1 : kLanes;
        Lanes r = load_first(w - j, count);
        Lanes rc = load_first(wp - j, count);
        r = lp.p - permute(r, kReverse, r);
        rc = ~permute(rc, kReverse, rc);
        if (j == 0) {
          r = select(1, splat(one.w), r);
          rc = select(1, splat(one.wp), rc);
        }
        Lanes a = load(u + j);
        Lanes b = load(v + j);
        lp.inverse(a, b, r, rc);
        store(u + j, a);
        store(v + j, b);
      }
    }
  }
  // Above the table: w_T^-j1 = p - root[T - j1] for j1 >= 1, read reversed
  // and spread; j1 = 0 (the lanes l < m of j = 0) takes `one`.
  for (; h < length; h *= 2) {
    const std::size_t m = 2 * h / kTableLength;
    const SideLanes side(q.side_inverse.data(), m);
    const Limb* w = q.root.data() + kTableLength;
    const Limb* wp = q.root_companion.data() + kTableLength;
    const unsigned unit = (1u << m) - 1;
    for (std::size_t s = 0; s < length; s += 2 * h) {
      Limb* u = x + s;
      Limb* v = u + h;
      for (std::size_t j = 0; j < h; j += kLanes) {
        const std::size_t j1 = j / m;
        const std::size_t skip = j1 == 0 ? 1 : 0;
        Lanes r = lp.p - side.roots_reversed(w - j1, skip);
        Lanes rc = ~side.roots_reversed(wp - j1, skip);
        if (skip != 0) {
          r = select(unit, splat(one.w), r);
          rc = select(unit, splat(one.wp), rc);
        }
        const Lanes a = reduce(load(u + j), lp.p2);
        Lanes t = lp.shoup(r, rc, load(v + j));
        t = select(side.first, t, lp.shoup(side.w, side.wp, t));
        store(u + j, a + t);
        store(v + j, a - t + lp.p2);
      }
    }
  }
}

/// pointwise() in lanes.
WEAKKEYS_LANES void pointwise_lanes(Limb* x, const Limb* a, const Limb* b,
                                    std::size_t length, const Prime& q) {
  const LanePrime lp(q);
  std::size_t k = 0;
  for (; k + kLanes <= length; k += kLanes) {
    store(x + k, lp.mont_mul(load(a + k), load(b + k)));
  }
  for (; k < length; ++k) x[k] = q.mont_mul(a[k], b[k]);
}

bool cpu_has_lanes() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
}

#endif  // WEAKKEYS_NTT_LANES

/// One set of the three kernels a product runs.
struct Kernel {
  NttKernel id;
  void (*forward)(Limb* x, std::size_t length, const Prime& q);
  void (*inverse)(Limb* x, std::size_t length, const Prime& q);
  void (*pointwise)(Limb* x, const Limb* a, const Limb* b,
                    std::size_t length, const Prime& q);
};

constexpr Kernel kScalarKernel{NttKernel::scalar, forward, inverse,
                               pointwise};
#if WEAKKEYS_NTT_LANES
constexpr Kernel kLaneKernel{NttKernel::avx512, forward_lanes, inverse_lanes,
                             pointwise_lanes};
#endif

/// The kernel named `id`, or null when this CPU or build cannot run it.
const Kernel* kernel_for(NttKernel id) {
  if (id == NttKernel::scalar) return &kScalarKernel;
#if WEAKKEYS_NTT_LANES
  static const bool lanes = cpu_has_lanes();
  if (id == NttKernel::avx512 && lanes) return &kLaneKernel;
#endif
  return nullptr;
}

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
        inv_p2_mod_p3(inverse_of(kPrimes[1], kPrimes[2])),
        kernel(kernel_for(NttKernel::avx512)) {
    if (kernel == nullptr) kernel = &kScalarKernel;
  }

  std::array<Prime, kPrimeCount> primes;
  Factor inv_p1_mod_p2;
  Factor inv_p1_mod_p3;
  Factor inv_p2_mod_p3;
  /// What every product runs: the lanes where CPUID reports them.
  const Kernel* kernel;
};

/// Built on first use; C++ makes that initialization thread-safe.
const Tables& tables() {
  static const Tables t;
  return t;
}


/// x[0, L) = the transform of a[0, an) reduced mod X^L - 1 (an <= 2L):
/// limbs past L fold onto the bottom, the rest is zero-padded.
void transform(Limb* x, const Limb* a, std::size_t an, std::size_t length,
               const Prime& q, const Kernel& kernel) {
  const std::size_t low = std::min(an, length);
  for (std::size_t i = 0; i < low; ++i) x[i] = q.load(a[i]);
  std::fill(x + low, x + length, Limb{0});
  const Limb p2 = 2 * q.p;
  for (std::size_t i = length; i < an; ++i) {
    const Limb v = x[i - length] + q.load(a[i]);
    x[i - length] = v >= p2 ? v - p2 : v;
  }
  kernel.forward(x, length, q);
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
  const Kernel& kernel = *t.kernel;
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
      transform(x, a.limbs, a.size, length, q, kernel);
    }
    const Limb* tb = ta;  // a square
    if (b != nullptr && b->transforms != nullptr) {
      tb = b->transforms + i * length;
    } else if (b != nullptr) {
      Limb* dst = both_fresh ? other : x;
      transform(dst, b->limbs, b->size, length, q, kernel);
      tb = dst;
    }
    kernel.pointwise(x, ta, tb, length, q);
    kernel.inverse(x, length, q);
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
    transform(t + i * length, a, an, length, tab.primes[i], *tab.kernel);
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
  const Kernel& kernel = *t.kernel;
  Limb* x = ws;           // a's transform, once per prime
  Limb* y = ws + length;  // each b's transform, then its product with a
  const Limb* const b[] = {b0, b1};
  const std::size_t bn[] = {bn0, bn1};
  Limb* const r[] = {r0, r1};
  Limb* const kept2[] = {ws + 2 * length, ws + 2 * length + an - bn0 + 1};
  for (std::size_t i = 0; i < kPrimeCount; ++i) {
    const Prime& q = t.primes[i];
    transform(x, a, an, length, q, kernel);
    for (std::size_t c = 0; c < 2; ++c) {
      transform(y, b[c], bn[c], length, q, kernel);
      kernel.pointwise(y, x, y, length, q);
      kernel.inverse(y, length, q);
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

NttKernel ntt_kernel() { return tables().kernel->id; }

bool ntt_kernel_available(NttKernel kernel) {
  return kernel_for(kernel) != nullptr;
}

Limb ntt_prime(std::size_t prime) { return kPrimes.at(prime); }

void ntt_run_kernel(NttKernel kernel, NttStep step, std::size_t prime,
                    Limb* x, const Limb* y, std::size_t length) {
  const Kernel* k = kernel_for(kernel);
  if (k == nullptr) throw std::invalid_argument("NTT kernel unavailable");
  const Prime& q = tables().primes.at(prime);
  switch (step) {
    case NttStep::forward:
      k->forward(x, length, q);
      break;
    case NttStep::inverse:
      k->inverse(x, length, q);
      break;
    case NttStep::pointwise:
      k->pointwise(x, x, y, length, q);
      break;
  }
}

}  // namespace weakkeys::bn::detail
