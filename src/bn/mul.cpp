// Multiplication: schoolbook below the Karatsuba threshold, Karatsuba above,
// three-prime NTTs (ntt.cpp) above kNttMinLimbs.
//
// The product tree over the full key corpus multiplies numbers of hundreds of
// thousands of limbs; a quadratic multiply would make the batch GCD
// computation infeasible (Section 3.2 of the paper), so the subquadratic path
// is load-bearing, not an optimization nicety.
//
// The kernels work on raw limb spans: the caller provides the output and one
// scratch block (mul_scratch_limbs), and the recursion never allocates. The
// LimbVec entry points allocate the output and, above the threshold, that
// scratch block: at most two allocations per product.
//
// The middle product (a band of diagonals of a product, GMP's mpn_mulmid
// contract) is the transposed Karatsuba of Hanrot, Quercia and Zimmermann,
// "The middle product algorithm, I", made exact for integer limbs as in
// D. Harvey, "The Karatsuba integer middle product" (J. Symb. Comp. 2012).
// mul_window computes the scaled remainder tree's windows with it.
//
// Above the NTT crossovers, a product or middle product that fits one
// transform of at most kNttMaxLength coefficients is one NTT; a larger one
// takes Karatsuba (transposed Karatsuba) levels, or chunks of a lopsided
// operand, down to pieces that fit (DESIGN.md §5p).
#include <algorithm>
#include <bit>
#include <memory>

#include "bn/detail.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::bn {

std::size_t& Tuning::karatsuba_threshold() {
  static std::size_t threshold = 24;  // limbs; tuned by bench/perf_bn
  return threshold;
}

namespace detail {

Limb add_n(Limb* r, const Limb* a, const Limb* b, std::size_t n) {
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb s = a[i] + carry;
    const Limb c1 = s < carry;
    r[i] = s + b[i];
    carry = c1 | (r[i] < s);
  }
  return carry;
}

Limb sub_n(Limb* r, const Limb* a, const Limb* b, std::size_t n) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb ai = a[i];
    const Limb d = ai - b[i];
    const Limb b1 = ai < b[i];
    r[i] = d - borrow;
    borrow = b1 | (d < borrow);
  }
  return borrow;
}

Limb add_1(Limb* r, std::size_t n, Limb carry) {
  for (std::size_t i = 0; i < n && carry != 0; ++i) {
    r[i] += carry;
    carry = r[i] < carry;
  }
  return carry;
}

Limb sub_1(Limb* r, std::size_t n, Limb borrow) {
  for (std::size_t i = 0; i < n && borrow != 0; ++i) {
    const Limb ri = r[i];
    r[i] = ri - borrow;
    borrow = ri < borrow;
  }
  return borrow;
}

int cmp_n(const Limb* a, const Limb* b, std::size_t n) {
  for (std::size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

Limb addmul_1(Limb* r, const Limb* a, std::size_t n, Limb b) {
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    carry += static_cast<unsigned __int128>(a[i]) * b + r[i];
    r[i] = static_cast<Limb>(carry);
    carry >>= 64;
  }
  return static_cast<Limb>(carry);
}

namespace {

/// The Karatsuba threshold, never below the 2 limbs the split needs.
std::size_t threshold() {
  return std::max<std::size_t>(Tuning::karatsuba_threshold(), 2);
}

/// The profiler frame of a product whose shorter operand has bn limbs.
const char* product_frame(std::size_t bn) {
  if (bn >= kNttMinLimbs && bn >= threshold()) return "bn.mul.ntt";
  return bn >= threshold() ? "bn.mul.karatsuba" : "bn.mul.schoolbook";
}

/// r[0, n) = a[0, n) * b; returns the carry limb.
Limb mul_1(Limb* r, const Limb* a, std::size_t n, Limb b) {
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    carry += static_cast<unsigned __int128>(a[i]) * b;
    r[i] = static_cast<Limb>(carry);
    carry >>= 64;
  }
  return static_cast<Limb>(carry);
}

/// Compares a[0, m) with b[0, bn) zero-extended (bn <= m): -1, 0 or +1.
int cmp_extended(const Limb* a, std::size_t m, const Limb* b,
                 std::size_t bn) {
  for (std::size_t i = m; i-- > bn;) {
    if (a[i] != 0) return 1;
  }
  return cmp_n(a, b, bn);
}

/// d[0, m) = |a[0, m) - b[0, bn)| with b zero-extended (bn <= m); returns
/// true when a < b.
bool abs_diff(Limb* d, const Limb* a, const Limb* b, std::size_t m,
              std::size_t bn) {
  if (cmp_extended(a, m, b, bn) < 0) {
    // a < b leaves a's limbs above bn zero, like b's.
    sub_n(d, b, a, bn);
    std::fill(d + bn, d + m, Limb{0});
    return true;
  }
  const Limb borrow = sub_n(d, a, b, bn);
  std::copy(a + bn, a + m, d + bn);
  sub_1(d + bn, m - bn, borrow);
  return false;
}

/// Whether an an x bn product (an >= bn >= the threshold) is one NTT.
bool ntt_product(std::size_t an, std::size_t bn) {
  return bn >= kNttMinLimbs && ntt_product_length(an, bn) <= kNttMaxLength;
}

/// The chunk of a that a lopsided product multiplies by all of b at a
/// time: bn, or, when b is wide enough for the NTT, the widest chunk whose
/// product is still one transform.
std::size_t lopsided_chunk(std::size_t bn) {
  return ntt_product(bn, bn) ? kNttMaxLength + kNttWrapLimbs + 1 - bn : bn;
}

void sqr_basecase(Limb* r, const Limb* a, std::size_t n) {
  // Off-diagonal products a_i a_j (i < j) once, doubled, plus the squares.
  std::fill(r, r + 2 * n, Limb{0});
  for (std::size_t i = 0; i + 1 < n; ++i) {
    r[i + n] = addmul_1(r + 2 * i + 1, a + i + 1, n - i - 1, a[i]);
  }
  Limb top = 0;
  for (std::size_t i = 0; i < 2 * n; ++i) {  // double
    const Limb v = r[i];
    r[i] = (v << 1) | top;
    top = v >> 63;
  }
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned __int128 sq = static_cast<unsigned __int128>(a[i]) * a[i];
    unsigned __int128 lo = static_cast<unsigned __int128>(r[2 * i]) +
                           static_cast<Limb>(sq) + carry;
    r[2 * i] = static_cast<Limb>(lo);
    unsigned __int128 hi = static_cast<unsigned __int128>(r[2 * i + 1]) +
                           static_cast<Limb>(sq >> 64) +
                           static_cast<Limb>(lo >> 64);
    r[2 * i + 1] = static_cast<Limb>(hi);
    carry = static_cast<Limb>(hi >> 64);
  }
}

/// Folds the Karatsuba middle term into r: with z0 = r[0, 2m) and
/// z2 = r[2m, rn) already in place and t = |a0-a1|*|b0-b1| in t[0, 2m),
/// adds z0 + z2 - t (subtract) or z0 + z2 + t at limb offset m. tmp holds
/// 2m + 1 limbs and may alias nothing else.
void fold_middle(Limb* r, std::size_t rn, std::size_t m, const Limb* t,
                 bool subtract, Limb* tmp) {
  const std::size_t z2n = rn - 2 * m;
  std::copy(r, r + 2 * m, tmp);
  Limb c = add_n(tmp, tmp, r + 2 * m, z2n);
  c = add_1(tmp + z2n, 2 * m - z2n, c);
  tmp[2 * m] = c;
  if (subtract) {
    const Limb borrow = sub_n(tmp, tmp, t, 2 * m);
    tmp[2 * m] -= borrow;
  } else {
    tmp[2 * m] += add_n(tmp, tmp, t, 2 * m);
  }
  // The middle term is at most rn - m limbs wide; its top limb is zero
  // whenever tmp runs past the product.
  const std::size_t len = std::min(2 * m + 1, rn - m);
  const Limb carry = add_n(r + m, r + m, tmp, len);
  add_1(r + m + len, rn - m - len, carry);
}

void kara_sqr(Limb* r, const Limb* a, std::size_t n, Limb* ws);

void kara_mul(Limb* r, const Limb* a, std::size_t an, const Limb* b,
              std::size_t bn, Limb* ws) {
  if (bn < threshold()) {
    mul_basecase(r, a, an, b, bn);
    return;
  }
  if (ntt_product(an, bn)) {
    ntt_mul(r, a, an, b, bn, ws);
    return;
  }
  const std::size_t m = (an + 1) / 2;
  if (bn <= m) {
    // Lopsided: a in chunks (an > chunk >= bn) against all of b,
    // accumulated in r.
    const std::size_t chunk = lopsided_chunk(bn);
    kara_mul(r, a, chunk, b, bn, ws);
    Limb* prod = ws;
    for (std::size_t off = chunk; off < an; off += chunk) {
      const std::size_t len = std::min(chunk, an - off);
      if (len >= bn) {
        kara_mul(prod, a + off, len, b, bn, ws + chunk + bn);
      } else {
        kara_mul(prod, b, bn, a + off, len, ws + chunk + bn);
      }
      // r[off, off + bn) holds the previous chunk's high half.
      const Limb carry = add_n(r + off, r + off, prod, bn);
      std::copy(prod + bn, prod + bn + len, r + off + bn);
      add_1(r + off + bn, len, carry);
    }
    return;
  }
  // x = x1 * B^m + x0; z1 = z0 + z2 - (a0 - a1)(b0 - b1).
  const std::size_t ah = an - m, bh = bn - m;
  Limb* da = ws;
  Limb* db = ws + m;
  Limb* t = ws + 2 * m + 1;
  Limb* rest = ws + 4 * m + 2;
  const bool neg_a = abs_diff(da, a, a + m, m, ah);
  const bool neg_b = abs_diff(db, b, b + m, m, bh);
  kara_mul(t, da, m, db, m, rest);
  kara_mul(r, a, m, b, m, rest);
  kara_mul(r + 2 * m, a + m, ah, b + m, bh, rest);
  fold_middle(r, an + bn, m, t, neg_a == neg_b, ws);
}

void kara_sqr(Limb* r, const Limb* a, std::size_t n, Limb* ws) {
  if (n < threshold()) {
    sqr_basecase(r, a, n);
    return;
  }
  if (ntt_product(n, n)) {
    ntt_sqr(r, a, n, ws);
    return;
  }
  const std::size_t m = (n + 1) / 2;
  Limb* d = ws;
  Limb* t = ws + 2 * m + 1;
  Limb* rest = ws + 4 * m + 2;
  abs_diff(d, a, a + m, m, n - m);
  kara_sqr(t, d, m, rest);
  kara_sqr(r, a, m, rest);
  kara_sqr(r + 2 * m, a + m, n - m, rest);
  fold_middle(r, 2 * n, m, t, /*subtract=*/true, ws);
}

// -- Middle product -----------------------------------------------------------
// MP(a, b) for an >= bn is the band sum of a_i b_j B^(i+j-(bn-1)) over
// bn-1 <= i+j <= an-1: the n = an-bn+1 diagonals of a*b that every limb of b
// meets in full, carries included, in n + 2 limbs. Below, "MP(x, w)" of a
// block x of 2m-1 limbs and w of m limbs is the m-diagonal band.

/// A two-limb value, the edge corrections below.
using Wide = unsigned __int128;

/// r[0, n) += v (n >= 2); returns the carry out.
Limb add_wide(Limb* r, std::size_t n, Wide v) {
  const Limb w[2] = {static_cast<Limb>(v), static_cast<Limb>(v >> 64)};
  return add_1(r + 2, n - 2, add_n(r, r, w, 2));
}

/// r[0, n) -= v (n >= 2); returns the borrow out.
Limb sub_wide(Limb* r, std::size_t n, Wide v) {
  const Limb w[2] = {static_cast<Limb>(v), static_cast<Limb>(v >> 64)};
  return sub_1(r + 2, n - 2, sub_n(r, r, w, 2));
}

/// Edge corrections of a band whose operand was normalized: MP of the
/// unnormalized limbs is MP(normalized) + B^m * high - low. Each carry moved
/// B out of one limb and 1 into the next; inside the band the two cancel, so
/// only the band's two edges see it (at most m limbs each).
struct Edges {
  Wide high = 0;
  Wide low = 0;
};

/// s[0, 2m-1) = x + y, limb by limb with carries, and the edges that make
/// MP(s, w) equal MP(x + y, w) with the sums unnormalized. The carry out of
/// limb i >= m-1 meets w[2m-2-i] at the top edge, one of i <= m-2 meets
/// w[m-2-i] at the bottom edge.
Edges add_block(Limb* s, const Limb* x, const Limb* y, const Limb* w,
                std::size_t m) {
  Edges e;
  Wide sum = 0;  // the carry rides in the high limb
  std::size_t i = 0;
  for (; i + 2 <= m; ++i) {
    sum = static_cast<Wide>(x[i]) + y[i] + static_cast<Limb>(sum >> 64);
    s[i] = static_cast<Limb>(sum);
    e.low += w[m - 2 - i] & (Limb{0} - static_cast<Limb>(sum >> 64));
  }
  for (; i + 1 < 2 * m; ++i) {
    sum = static_cast<Wide>(x[i]) + y[i] + static_cast<Limb>(sum >> 64);
    s[i] = static_cast<Limb>(sum);
    e.high += w[2 * m - 2 - i] & (Limb{0} - static_cast<Limb>(sum >> 64));
  }
  return e;
}

/// d[0, m) = |b0 - b1|, limb by limb with borrows; returns true when
/// b0 < b1. With x the block the difference meets, MP of the unnormalized
/// limb differences (larger minus smaller) is MP(x, d) - B^m * high + low:
/// a borrow out of limb j meets x[2m-2-j] at the top edge and x[m-2-j] at
/// the bottom one, with the signs of a carry reversed. The top limb never
/// borrows, so j <= m-2 there.
bool sub_block(Limb* d, const Limb* b0, const Limb* b1, const Limb* x,
               std::size_t m, Edges& e) {
  const bool negative = cmp_n(b0, b1, m) < 0;
  const Limb* big = negative ? b1 : b0;
  const Limb* small = negative ? b0 : b1;
  Wide diff = 0;  // the borrow rides in the high limb, as all ones
  for (std::size_t j = 0; j + 1 < m; ++j) {
    diff = static_cast<Wide>(big[j]) - small[j] -
           (static_cast<Limb>(diff >> 64) & 1);
    d[j] = static_cast<Limb>(diff);
    const Limb mask = static_cast<Limb>(diff >> 64);
    e.high += x[2 * m - 2 - j] & mask;
    e.low += x[m - 2 - j] & mask;
  }
  d[m - 1] = big[m - 1] - small[m - 1] - (static_cast<Limb>(diff >> 64) & 1);
  return negative;
}

/// Adds the three-limb value (lo, hi, top) into r[0, n), n >= 3.
void add_3(Limb* r, std::size_t n, Wide lo_hi, Limb top) {
  const Limb carry = add_wide(r, 2, lo_hi);
  add_1(r + 2, n - 2, top + carry);
}

/// sum of a[-j] * b[j] for j < bn: one diagonal of a band, in three limbs.
void dot_reversed(const Limb* a, const Limb* b, std::size_t bn, Wide& lo_hi,
                  Limb& top) {
  Wide acc = 0;
  Limb over = 0;
  for (std::size_t j = 0; j < bn; ++j) {
    const Wide p = static_cast<Wide>(*(a - j)) * b[j];
    acc += p;
    over += acc < p;
  }
  lo_hi = acc;
  top = over;
}

/// r[0, n+2) = MP(a, b), n = an - bn + 1, schoolbook: one addmul_1 row of n
/// limbs per limb of b, or, for a band narrower than b, one dot product of
/// bn limbs per diagonal.
void mulmid_basecase(Limb* r, const Limb* a, std::size_t an, const Limb* b,
                     std::size_t bn) {
  const std::size_t n = an - bn + 1;
  if (n < bn) {
    std::fill(r, r + n + 2, Limb{0});
    for (std::size_t k = 0; k < n; ++k) {
      Wide lo_hi;
      Limb top;
      dot_reversed(a + k + bn - 1, b, bn, lo_hi, top);
      add_3(r + k, n + 2 - k, lo_hi, top);
    }
    return;
  }
  Wide top = mul_1(r, a + bn - 1, n, b[0]);
  for (std::size_t j = 1; j < bn; ++j) {
    top += addmul_1(r, a + bn - 1 - j, n, b[j]);
  }
  r[n] = static_cast<Limb>(top);
  r[n + 1] = static_cast<Limb>(top >> 64);
}

}  // namespace

void mul_basecase(Limb* r, const Limb* a, std::size_t an, const Limb* b,
                  std::size_t bn) {
  r[an] = mul_1(r, a, an, b[0]);
  for (std::size_t j = 1; j < bn; ++j) {
    r[an + j] = addmul_1(r + j, a, an, b[j]);
  }
}

// Both follow kara_mul's and kara_sqr's dispatch.
std::size_t mul_scratch_limbs(std::size_t an, std::size_t bn) {
  if (bn < threshold()) return 0;
  if (ntt_product(an, bn)) {
    return ntt_scratch_limbs(ntt_product_length(an, bn), /*single=*/false,
                             an + bn - 1);
  }
  const std::size_t m = (an + 1) / 2;
  if (bn <= m) {
    // Chunk products into a (chunk + bn)-limb buffer; the last chunk may be
    // shorter, even than b.
    const std::size_t chunk = lopsided_chunk(bn);
    const std::size_t tail = (an - chunk) % chunk;
    std::size_t inner = mul_scratch_limbs(chunk, bn);
    if (tail != 0) {
      inner = std::max(inner, tail >= bn ? mul_scratch_limbs(tail, bn)
                                         : mul_scratch_limbs(bn, tail));
    }
    return chunk + bn + inner;
  }
  return 4 * m + 2 +
         std::max(mul_scratch_limbs(m, m), mul_scratch_limbs(an - m, bn - m));
}

std::size_t sqr_scratch_limbs(std::size_t n) {
  if (n < threshold()) return 0;
  if (ntt_product(n, n)) {
    return ntt_scratch_limbs(ntt_product_length(n, n), /*single=*/true,
                             2 * n - 1);
  }
  const std::size_t m = (n + 1) / 2;
  return 4 * m + 2 + std::max(sqr_scratch_limbs(m), sqr_scratch_limbs(n - m));
}

void mul_into(Limb* r, const Limb* a, std::size_t an, const Limb* b,
              std::size_t bn, Limb* scratch) {
  if (a == b && an == bn) {
    kara_sqr(r, a, an, scratch);
  } else {
    kara_mul(r, a, an, b, bn, scratch);
  }
}

/// Whether MP(a, b) (an >= bn, both sides at least the threshold) is one
/// NTT.
bool ntt_middle(std::size_t an, std::size_t bn) {
  return std::min(an - bn + 1, bn) >= kNttMiddleMinLimbs &&
         ntt_middle_length(an, bn) <= kNttMaxLength;
}

/// r[0, n+2) = MP(a, b) for an >= bn >= 1: basecase below the Karatsuba
/// threshold, one NTT above its crossover when a fits a transform, else
/// the band in bn-diagonal blocks (n > bn), b in n-limb
/// pieces (n < bn), or, when n == bn == 2m, the transposed Karatsuba
///   MP(a, b) = alpha + beta + B^m (gamma - beta),
///   alpha = MP(A0 + A1, b1), beta = MP(A1, b0 - b1), gamma = MP(A1 + A2, b0)
/// over the overlapping blocks A0 = a[0, 2m-1), A1 = a[m, 3m-1),
/// A2 = a[2m, 4m-1) and b = b0 + b1 B^m: three half-size bands where a
/// product would take four.
void mulmid_into(Limb* r, const Limb* a, std::size_t an, const Limb* b,
                 std::size_t bn, Limb* ws) {
  const std::size_t n = an - bn + 1;
  if (std::min(n, bn) < threshold()) {
    mulmid_basecase(r, a, an, b, bn);
    return;
  }
  if (ntt_middle(an, bn)) {
    ntt_mulmid(r, a, an, b, bn, ws);
    return;
  }
  if (n > bn) {
    // Diagonal blocks of bn: each block's two top limbs are the next
    // block's bottom two, kept across the call and added back.
    mulmid_into(r, a, 2 * bn - 1, b, bn, ws);
    for (std::size_t off = bn; off < n; off += bn) {
      const std::size_t len = std::min(bn, n - off);
      const Wide kept = (static_cast<Wide>(r[off + 1]) << 64) | r[off];
      mulmid_into(r + off, a + off, len + bn - 1, b, bn, ws);
      add_wide(r + off, len + 2, kept);
    }
    return;
  }
  if (n < bn) {
    // b in pieces of n limbs, each a band over the same n diagonals.
    mulmid_into(r, a + bn - n, 2 * n - 1, b, n, ws + n + 2);
    for (std::size_t j0 = n; j0 < bn; j0 += n) {
      const std::size_t w = std::min(n, bn - j0);
      mulmid_into(ws, a + bn - j0 - w, n + w - 1, b + j0, w, ws + n + 2);
      add_n(r, r, ws, n + 2);  // the sum of bands fits: no carry out
    }
    return;
  }
  if (bn % 2 != 0) {
    // Odd n == bn: an even band over the first n - 1 diagonals without b's
    // top limb, plus that limb's row (it meets a[0, n)) and the last
    // diagonal without it.
    mulmid_into(r, a + 1, an - 2, b, bn - 1, ws);
    r[n + 1] = 0;
    add_1(r + n, 2, addmul_1(r, a, n, b[bn - 1]));
    Wide lo_hi;
    Limb top;
    dot_reversed(a + an - 1, b, bn - 1, lo_hi, top);
    add_3(r + n - 1, 3, lo_hi, top);
    return;
  }
  // Every value below is taken modulo B^(n+2), where the exact MP lies.
  const std::size_t m = bn / 2;
  const Limb* b0 = b;
  const Limb* b1 = b + m;
  const Limb* a1 = a + m;
  Limb* s = ws;               // 2m - 1: A0 + A1, then A1 + A2
  Limb* d = s + 2 * m - 1;    // m: |b0 - b1|
  Limb* t = d + m;            // m + 2: beta, then gamma
  Limb* rest = t + m + 2;

  Edges e = add_block(s, a, a1, b1, m);
  mulmid_into(r, s, 2 * m - 1, b1, m, rest);  // alpha
  add_wide(r + m, 2, e.high);
  sub_wide(r, m + 2, e.low);
  std::fill(r + m + 2, r + n + 2, Limb{0});

  // beta = +-v with v = MP(A1, larger minus smaller half of b, limb by
  // limb). Those limb differences can be negative, and so can v: then t
  // holds v + B^(m+2), and at offset 0 the B^(m+2) is taken back out.
  e = Edges{};
  const bool negative = sub_block(d, b0, b1, a1, m, e);
  mulmid_into(t, a1, 2 * m - 1, d, m, rest);
  const Limb below = sub_wide(t + m, 2, e.high);
  const Limb v_negative = below > add_wide(t, m + 2, e.low);
  if (negative) {  // r += -v at 0 and +v at m
    sub_1(r + m + 2, m, sub_n(r, r, t, m + 2));
    add_1(r + m + 2, m, v_negative);
    add_n(r + m, r + m, t, m + 2);
  } else {
    add_1(r + m + 2, m, add_n(r, r, t, m + 2));
    sub_1(r + m + 2, m, v_negative);
    sub_n(r + m, r + m, t, m + 2);
  }

  e = add_block(s, a1, a + 2 * m, b0, m);
  mulmid_into(t, s, 2 * m - 1, b0, m, rest);  // gamma
  add_wide(t + m, 2, e.high);
  sub_wide(t, m + 2, e.low);
  add_n(r + m, r + m, t, m + 2);
}

// Follows mulmid_into's dispatch.
std::size_t mulmid_scratch_limbs(std::size_t an, std::size_t bn) {
  const std::size_t n = an - bn + 1;
  if (std::min(n, bn) < threshold()) return 0;
  if (ntt_middle(an, bn)) {
    return ntt_scratch_limbs(ntt_middle_length(an, bn), /*single=*/false,
                             an - bn + 1);
  }
  if (n > bn) {
    const std::size_t tail = n % bn;
    return std::max(mulmid_scratch_limbs(2 * bn - 1, bn),
                    tail == 0 ? 0 : mulmid_scratch_limbs(tail + bn - 1, bn));
  }
  if (n < bn) {
    const std::size_t tail = bn % n;
    return n + 2 +
           std::max(mulmid_scratch_limbs(2 * n - 1, n),
                    tail == 0 ? 0 : mulmid_scratch_limbs(n + tail - 1, tail));
  }
  if (bn % 2 != 0) return mulmid_scratch_limbs(an - 2, bn - 1);
  const std::size_t m = bn / 2;
  return 4 * m + 1 + mulmid_scratch_limbs(2 * m - 1, m);
}

// -- Wrapped products and kept operands ---------------------------------------

namespace {

/// Whether a wrapped product at L is one NTT: wrap_length() gave a
/// transform length.
bool ntt_wrapped(std::size_t length) {
  return length >= kNttMinLimbs && length <= kNttMaxLength &&
         std::has_single_bit(length);
}

/// Whether transforms kept at L serve the middle product of an an-limb a
/// and a bn-limb b.
bool kept_band(std::size_t an, std::size_t bn, std::size_t length) {
  return length != 0 && an <= length + kNttWrapLimbs &&
         an + bn - 1 <= 2 * length;
}

}  // namespace

std::size_t wrap_length(std::size_t limbs) {
  const std::size_t length = std::bit_ceil(limbs);
  return limbs >= kNttMinLimbs && length <= kNttMaxLength ? length : limbs;
}

std::size_t keep_wrapped_limbs(std::size_t length) {
  return ntt_wrapped(length) ? 3 * length : 0;
}

Operand keep_wrapped(const Limb* b, std::size_t bn, std::size_t length,
                     Limb* storage) {
  if (!ntt_wrapped(length)) return {b, bn};
  ntt_keep(storage, b, bn, length);
  return {b, bn, storage, length};
}

std::size_t mul_wrapped_scratch_limbs(std::size_t length, std::size_t an,
                                      std::size_t bn, bool kept) {
  if (ntt_wrapped(length)) return ntt_scratch_limbs(length, kept, length);
  return an + bn + mul_scratch_limbs(std::max(an, bn), std::min(an, bn));
}

void mul_wrapped_into(Limb* r, std::size_t length, const Operand& a,
                      const Operand& b, Limb* scratch) {
  if (ntt_wrapped(length)) {
    ntt_mul_wrapped(r, a, b, length, scratch);
    return;
  }
  const bool swap = a.size < b.size;
  const Operand& x = swap ? b : a;
  const Operand& y = swap ? a : b;
  Limb* prod = scratch;
  mul_into(prod, x.limbs, x.size, y.limbs, y.size, prod + x.size + y.size);
  fold_wrapped(r, length, prod, x.size + y.size);
}

std::size_t mulmid_kept_scratch_limbs(std::size_t an, std::size_t bn,
                                      std::size_t length) {
  if (kept_band(an, bn, length)) {
    return ntt_scratch_limbs(length, /*single=*/true, an - bn + 1);
  }
  return mulmid_scratch_limbs(an, bn);
}

void mulmid_kept_into(Limb* r, const Limb* a, std::size_t an,
                      const Operand& b, Limb* scratch) {
  if (b.transforms != nullptr && kept_band(an, b.size, b.length)) {
    ntt_mulmid_at(r, {a, an}, b, b.length, scratch);
  } else {
    mulmid_into(r, a, an, b.limbs, b.size, scratch);
  }
}

namespace {

/// r[0, L) = B^L - 1 (all ones) -> 0: the one value with two forms.
void normalize_wrapped(Limb* r, std::size_t length) {
  if (std::all_of(r, r + length, [](Limb l) { return l == ~Limb{0}; })) {
    std::fill(r, r + length, Limb{0});
  }
}

}  // namespace

void fold_wrapped(Limb* r, std::size_t length, const Limb* x,
                  std::size_t xn) {
  const std::size_t first = std::min(xn, length);
  std::copy(x, x + first, r);
  std::fill(r + first, r + length, Limb{0});
  for (std::size_t off = length; off < xn; off += length) {
    const std::size_t len = std::min(length, xn - off);
    Limb carry = add_n(r, r, x + off, len);
    carry = add_1(r + len, length - len, carry);
    // A carry out is worth B^L = 1; after it the sum is below the carry.
    if (carry != 0) add_1(r, length, 1);
  }
  normalize_wrapped(r, length);
}

void sub_wrapped(Limb* r, const Limb* a, const Limb* b, std::size_t length) {
  // A borrow out took B^L = 1 + (B^L - 1): one more to give back.
  if (sub_n(r, a, b, length) != 0) sub_1(r, length, 1);
  normalize_wrapped(r, length);
}

void sub_from_power_wrapped(Limb* r, std::size_t length, std::size_t bit) {
  // 2^bit - x = ~(x - 2^bit), as ~y = B^L - 1 - y = -y.
  const std::size_t limb = bit / 64;
  if (sub_1(r + limb, length - limb, Limb{1} << (bit % 64)) != 0) {
    sub_1(r, length, 1);
  }
  for (std::size_t i = 0; i < length; ++i) r[i] = ~r[i];
  normalize_wrapped(r, length);
}

LimbVec mul_middle(const LimbVec& a, const LimbVec& b) {
  if (b.empty() || a.size() < b.size()) return {};
  const std::size_t n = a.size() - b.size() + 1;
  LimbVec out(n + 2);
  const auto scratch = std::make_unique_for_overwrite<Limb[]>(
      mulmid_scratch_limbs(a.size(), b.size()));
  mulmid_into(out.data(), a.data(), a.size(), b.data(), b.size(),
              scratch.get());
  trim(out);
  return out;
}

LimbVec mul_schoolbook(const LimbVec& a, const LimbVec& b) {
  if (a.empty() || b.empty()) return {};
  const bool swap = a.size() < b.size();
  const LimbVec& x = swap ? b : a;
  const LimbVec& y = swap ? a : b;
  LimbVec out(x.size() + y.size());
  mul_basecase(out.data(), x.data(), x.size(), y.data(), y.size());
  trim(out);
  return out;
}

LimbVec mul_karatsuba(const LimbVec& a, const LimbVec& b) {
  if (a.empty() || b.empty()) return {};
  const bool swap = a.size() < b.size();
  const LimbVec& x = swap ? b : a;
  const LimbVec& y = swap ? a : b;
  LimbVec out(x.size() + y.size());
  const std::size_t scratch_limbs = &x == &y
                                        ? sqr_scratch_limbs(x.size())
                                        : mul_scratch_limbs(x.size(), y.size());
  std::unique_ptr<Limb[]> scratch;  // below the threshold: none, no call
  if (scratch_limbs != 0) {
    scratch = std::make_unique_for_overwrite<Limb[]>(scratch_limbs);
  }
  mul_into(out.data(), x.data(), x.size(), y.data(), y.size(), scratch.get());
  trim(out);
  return out;
}

LimbVec mul(const LimbVec& a, const LimbVec& b) {
  // Tag the kernel so the sampling profiler can split Karatsuba vs
  // schoolbook time. It costs one relaxed load when the profiler is off.
  obs::prof::Frame frame(product_frame(std::min(a.size(), b.size())));
  return mul_karatsuba(a, b);
}

}  // namespace detail

namespace {

/// floor(v / 2^bit_shift) mod 2^bits for v = src[0, n).
BigInt window_of(const Limb* src, std::size_t n, unsigned bit_shift,
                 std::size_t bits) {
  detail::LimbVec out(std::min(n, (bits + bit_shift + 63) / 64));
  for (std::size_t i = 0; i < out.size(); ++i) {
    Limb limb = src[i] >> bit_shift;
    if (bit_shift != 0 && i + 1 < n) limb |= src[i + 1] << (64 - bit_shift);
    out[i] = limb;
  }
  out.resize(std::min(out.size(), (bits + 63) / 64));
  if (bits % 64 != 0 && out.size() == (bits + 63) / 64) {
    out.back() &= (Limb{1} << (bits % 64)) - 1;
  }
  return BigIntOps::make(std::move(out), 1);
}

/// Where mul_window's window of an xn x yn product (xn >= yn >= 1) lies:
/// limbs [lo, hi) of the product, read off the band of diagonals
/// [base, hi), two guard limbs below the window. `band` is whether that
/// band is at most two thirds of the full product's work (n vs xn rows of
/// yn limbs).
struct WindowBand {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t base = 0;
  unsigned bit_shift = 0;
  bool band = false;
};

WindowBand window_band(std::size_t xn, std::size_t yn, std::size_t shift,
                       std::size_t bits) {
  WindowBand w;
  w.lo = shift / 64;
  w.bit_shift = shift % 64;
  w.hi = std::min(xn + yn, w.lo + (bits + w.bit_shift + 63) / 64);
  w.base = w.lo >= 2 ? w.lo - 2 : 0;
  w.band = 3 * (w.hi - w.base) <= 2 * xn;
  return w;
}

/// Whether a band whose lowest diagonal is `bottom` (negative: zero
/// diagonals below the product) and whose two lowest limbs are band[0, 2)
/// is exact from its third limb on: the diagonals below it add less than
/// yn * B to those two limbs, so their carry reaches further only if the
/// upper one is at least B - yn (about yn in 2^64 bands).
bool band_exact(std::ptrdiff_t bottom, const Limb* band, std::size_t yn) {
  return bottom <= 0 || band[1] < Limb{0} - yn;
}

}  // namespace

BigInt mul_window(const BigInt& a, const BigInt& b, std::size_t shift,
                  std::size_t bits) {
  using detail::LimbVec;
  const bool swap = a.limb_count() < b.limb_count();
  const LimbVec& x = BigIntOps::limbs(swap ? b : a);
  const LimbVec& y = BigIntOps::limbs(swap ? a : b);
  const std::size_t xn = x.size();
  const std::size_t yn = y.size();
  const std::size_t rn = xn + yn;
  if (yn == 0 || bits == 0 || shift / 64 >= rn) return BigInt{};
  const WindowBand w = window_band(xn, yn, shift, bits);

  // The band: diagonals [base, hi) of x * y as a middle product of y and
  // the slice of x (zero-padded past its ends) that meets them.
  if (w.band) {
    obs::prof::Frame frame("bn.mul.middle");
    const std::size_t n = w.hi - w.base;
    const std::size_t an = n + yn - 1;
    // slice[t] = x[base - (yn - 1) + t], zero outside [0, xn). When it lies
    // inside x, the kernel reads x in place; otherwise a zero-padded copy.
    const std::size_t pad = w.base + 1 < yn ? yn - 1 - w.base : 0;
    const std::size_t from = w.base + 1 < yn ? 0 : w.base + 1 - yn;
    const std::size_t count = std::min(an - pad, xn > from ? xn - from : 0);
    const bool in_place = pad == 0 && count == an;
    const auto buf = std::make_unique_for_overwrite<Limb[]>(
        (in_place ? 0 : an) + n + 2 + detail::mulmid_scratch_limbs(an, yn));
    Limb* band = buf.get() + (in_place ? 0 : an);
    const Limb* slice = x.data() + from;
    if (!in_place) {
      Limb* copy = buf.get();
      std::fill(copy, copy + pad, Limb{0});
      std::copy(x.data() + from, x.data() + from + count, copy + pad);
      std::fill(copy + pad + count, copy + an, Limb{0});
      slice = copy;
    }
    detail::mulmid_into(band, slice, an, y.data(), yn, band + n + 2);
    if (band_exact(static_cast<std::ptrdiff_t>(w.base), band, yn)) {
      return window_of(band + (w.lo - w.base), rn - w.lo, w.bit_shift, bits);
    }
  }

  obs::prof::Frame frame(detail::product_frame(yn));
  // One buffer, left uninitialized (the kernel writes every limb it
  // reads): the product, then the kernel's scratch.
  const auto prod = std::make_unique_for_overwrite<Limb[]>(
      rn + detail::mul_scratch_limbs(xn, yn));
  detail::mul_into(prod.get(), x.data(), xn, y.data(), yn, prod.get() + rn);
  return window_of(prod.get() + w.lo, rn - w.lo, w.bit_shift, bits);
}

namespace detail {

std::array<BigInt, 2> mul_window_pair(const BigInt& a, const BigInt& b0,
                                      std::size_t shift0, std::size_t bits0,
                                      const BigInt& b1, std::size_t shift1,
                                      std::size_t bits1) {
  const LimbVec& x = BigIntOps::limbs(a);
  const LimbVec* const y[] = {&BigIntOps::limbs(b0), &BigIntOps::limbs(b1)};
  const std::size_t shift[] = {shift0, shift1};
  const std::size_t bits[] = {bits0, bits1};
  const std::size_t xn = x.size();
  const std::size_t yn[] = {y[0]->size(), y[1]->size()};
  // Both windows as bands of one slice of x: diagonals [bottom_c, top) of
  // x * y_c for the union slice x[start, top) (zero outside [0, xn)).
  WindowBand w[2];
  bool paired = true;
  std::ptrdiff_t start = 0;
  std::size_t top = 0;
  for (std::size_t c = 0; c < 2 && paired; ++c) {
    paired = yn[c] != 0 && yn[c] <= xn && bits[c] != 0 &&
             shift[c] / 64 < xn + yn[c];
    if (!paired) break;
    w[c] = window_band(xn, yn[c], shift[c], bits[c]);
    const std::ptrdiff_t from = static_cast<std::ptrdiff_t>(w[c].base) -
                                static_cast<std::ptrdiff_t>(yn[c] - 1);
    start = c == 0 ? from : std::min(start, from);
    top = std::max(top, w[c].hi);
    paired = w[c].band;
  }
  const std::size_t an =
      paired ? static_cast<std::size_t>(static_cast<std::ptrdiff_t>(top) -
                                        start)
             : 0;
  const std::size_t length =
      paired ? ntt_middle_length(an, std::max(yn[0], yn[1])) : 0;
  for (std::size_t c = 0; c < 2 && paired; ++c) {
    paired = std::min(an - yn[c] + 1, yn[c]) >=
                 std::max(kNttMiddleMinLimbs, threshold()) &&
             length <= kNttMaxLength;
  }
  if (!paired) {
    return {mul_window(a, b0, shift0, bits0), mul_window(a, b1, shift1, bits1)};
  }

  obs::prof::Frame frame("bn.mul.middle");
  const std::size_t count[] = {an - yn[0] + 1, an - yn[1] + 1};
  const bool in_place =
      start >= 0 && static_cast<std::size_t>(start) + an <= xn;
  // copy (an, unless in place) | band 0 (count0 + 2) | band 1 | scratch.
  const auto buf = std::make_unique_for_overwrite<Limb[]>(
      (in_place ? 0 : an) + 2 * (count[0] + count[1] + 2 + length));
  Limb* band[2];
  band[0] = buf.get() + (in_place ? 0 : an);
  band[1] = band[0] + count[0] + 2;
  Limb* scratch = band[1] + count[1] + 2;
  const Limb* slice = x.data() + (in_place ? start : 0);
  if (!in_place) {
    Limb* copy = buf.get();
    for (std::size_t t = 0; t < an; ++t) {
      const std::ptrdiff_t i = start + static_cast<std::ptrdiff_t>(t);
      copy[t] = i >= 0 && static_cast<std::size_t>(i) < xn ? x[i] : 0;
    }
    slice = copy;
  }
  ntt_mulmid_pair(band[0], band[1], slice, an, y[0]->data(), yn[0],
                  y[1]->data(), yn[1], length, scratch);
  std::array<BigInt, 2> out;
  for (std::size_t c = 0; c < 2; ++c) {
    const std::ptrdiff_t bottom =
        start + static_cast<std::ptrdiff_t>(yn[c] - 1);
    if (!band_exact(bottom, band[c], yn[c])) {
      out[c] = mul_window(a, c == 0 ? b0 : b1, shift[c], bits[c]);
      continue;
    }
    out[c] = window_of(band[c] + (static_cast<std::ptrdiff_t>(w[c].lo) -
                                  bottom),
                       xn + yn[c] - w[c].lo, w[c].bit_shift, bits[c]);
  }
  return out;
}

}  // namespace detail

}  // namespace weakkeys::bn
