// Multiplication: schoolbook below the Karatsuba threshold, Karatsuba above.
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
#include <algorithm>
#include <memory>

#include "bn/detail.hpp"
#include "obs/mem.hpp"
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

namespace {

/// The Karatsuba threshold, never below the 2 limbs the split needs.
std::size_t threshold() {
  return std::max<std::size_t>(Tuning::karatsuba_threshold(), 2);
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

/// r[0, n) += a[0, n) * b; returns the carry limb.
Limb addmul_1(Limb* r, const Limb* a, std::size_t n, Limb b) {
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    carry += static_cast<unsigned __int128>(a[i]) * b + r[i];
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

/// Scratch of an n x n (or n-limb square) Karatsuba product.
std::size_t balanced_scratch(std::size_t n) {
  std::size_t total = 0;
  for (; n >= threshold(); n = (n + 1) / 2) total += 4 * ((n + 1) / 2) + 2;
  return total;
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
  const std::size_t m = (an + 1) / 2;
  if (bn <= m) {
    // Lopsided: a in bn-limb chunks against all of b, accumulated in r.
    kara_mul(r, a, bn, b, bn, ws);
    Limb* prod = ws;
    for (std::size_t off = bn; off < an; off += bn) {
      const std::size_t len = std::min(bn, an - off);
      if (len >= bn) {
        kara_mul(prod, a + off, len, b, bn, ws + 2 * bn);
      } else {
        kara_mul(prod, b, bn, a + off, len, ws + 2 * bn);
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

}  // namespace

void mul_basecase(Limb* r, const Limb* a, std::size_t an, const Limb* b,
                  std::size_t bn) {
  r[an] = mul_1(r, a, an, b[0]);
  for (std::size_t j = 1; j < bn; ++j) {
    r[an + j] = addmul_1(r + j, a, an, b[j]);
  }
}

std::size_t mul_scratch_limbs(std::size_t an, std::size_t bn) {
  if (bn < threshold()) return 0;
  // A lopsided product runs bn x bn products into a 2bn-limb chunk buffer.
  if (bn <= (an + 1) / 2) return 2 * bn + balanced_scratch(bn);
  return balanced_scratch(an);
}

void mul_into(Limb* r, const Limb* a, std::size_t an, const Limb* b,
              std::size_t bn, Limb* scratch) {
  if (a == b && an == bn) {
    kara_sqr(r, a, an, scratch);
  } else {
    kara_mul(r, a, an, b, bn, scratch);
  }
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
  const std::size_t scratch_limbs = mul_scratch_limbs(x.size(), y.size());
  std::unique_ptr<Limb[]> scratch;  // below the threshold: none, no call
  if (scratch_limbs != 0) {
    scratch = std::make_unique_for_overwrite<Limb[]>(scratch_limbs);
  }
  mul_into(out.data(), x.data(), x.size(), y.data(), y.size(), scratch.get());
  trim(out);
  return out;
}

LimbVec mul(const LimbVec& a, const LimbVec& b) {
  // Attribute limb storage to "bn.limbs" only when no higher-level scope
  // (a product-tree level, the remainder tree) already claims it, and tag
  // the kernel so the sampling profiler can split Karatsuba vs schoolbook
  // time. Both cost one relaxed load when the corresponding plane is off.
  static const int limbs_label = obs::mem::register_label("bn.limbs");
  obs::MemScope mem_scope(limbs_label, /*only_if_unattributed=*/true);
  obs::prof::Frame frame(std::min(a.size(), b.size()) >= threshold()
                             ? "bn.mul.karatsuba"
                             : "bn.mul.schoolbook");
  return mul_karatsuba(a, b);
}

}  // namespace detail

BigInt mul_window(const BigInt& a, const BigInt& b, std::size_t shift,
                  std::size_t bits) {
  using detail::LimbVec;
  const bool swap = a.limb_count() < b.limb_count();
  const LimbVec& x = BigIntOps::limbs(swap ? b : a);
  const LimbVec& y = BigIntOps::limbs(swap ? a : b);
  const std::size_t rn = x.size() + y.size();
  const std::size_t lo = shift / 64;
  if (y.empty() || bits == 0 || lo >= rn) return BigInt{};

  static const int limbs_label = obs::mem::register_label("bn.limbs");
  obs::MemScope mem_scope(limbs_label, /*only_if_unattributed=*/true);
  obs::prof::Frame frame(y.size() >= detail::threshold() ? "bn.mul.karatsuba"
                                                         : "bn.mul.schoolbook");
  // One buffer, left uninitialized (the kernel writes every limb it
  // reads): the product, then the kernel's scratch.
  const auto prod = std::make_unique_for_overwrite<Limb[]>(
      rn + detail::mul_scratch_limbs(x.size(), y.size()));
  detail::mul_into(prod.get(), x.data(), x.size(), y.data(), y.size(),
                   prod.get() + rn);

  const unsigned bit_shift = shift % 64;
  const std::size_t hi = std::min(rn, lo + (bits + bit_shift + 63) / 64);
  LimbVec out(hi - lo);
  for (std::size_t i = 0; i < out.size(); ++i) {
    Limb limb = prod[lo + i] >> bit_shift;
    if (bit_shift != 0 && lo + i + 1 < rn) {
      limb |= prod[lo + i + 1] << (64 - bit_shift);
    }
    out[i] = limb;
  }
  out.resize(std::min(out.size(), (bits + 63) / 64));
  if (bits % 64 != 0 && out.size() == (bits + 63) / 64) {
    out.back() &= (Limb{1} << (bits % 64)) - 1;
  }
  return BigIntOps::make(std::move(out), 1);
}

}  // namespace weakkeys::bn
