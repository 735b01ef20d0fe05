// Division.
//
// Two algorithms, dispatched on operand shape:
//  * Knuth Algorithm D (TAOCP vol. 2, 4.3.1; the divmnu64 formulation) —
//    quadratic, excellent for modulus-sized operands.
//  * Newton-reciprocal division — computes I = floor(beta^(2n)/B) by
//    recursive Newton iteration (precision doubling) on the span kernels,
//    in one scratch block, then reduces the dividend in Barrett steps of 2n
//    limbs. Costs O(M(n)) per step.
//
// The same Newton iteration gives reciprocal(d, k) = floor(2^k / d), the
// one reciprocal per product tree that the division-free remainder tree
// (batchgcd/remainder_tree.hpp) starts from.
//
// Every approximate step ends in an exact correction loop, so correctness
// never depends on the error analysis. The analysis bounds the loops'
// iterations, and a loop that passes its bound throws std::logic_error: only
// a wrong product gets there, and it must fail rather than spin.
//
// The same bounds size the products. Each Newton level's two residuals,
// beta^(n+h) - Ih * d and beta^(2n) - X1 * d, lie below 9 beta^n in
// magnitude, so each is read off the product mod B^L - 1 for the wrap
// length L >= n + 1 (a wrapped product, half the transform of the full
// one), both on d's transforms, kept for the level; the correction uses
// only the top limbs of Ih * |E'|, a band on Ih's kept transforms.
#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "bn/detail.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::bn {

std::size_t& Tuning::newton_div_threshold() {
  // On the Karatsuba span kernels the 2n/n crossover vs Knuth-D is ~1k
  // divisor limbs (BM_DivNewton/1024 ~ BM_DivKnuth/1024; Knuth wins 2x at
  // 256, Newton ~2x at 4096). The remainder tree no longer divides, so
  // this now serves general-purpose division only.
  static std::size_t threshold = 1024;  // limbs; tuned by bench/perf_bn
  return threshold;
}

namespace detail {

namespace {

constexpr unsigned __int128 kBase = static_cast<unsigned __int128>(1) << 64;

void divmod_single_limb(const LimbVec& a, Limb d, LimbVec& q, LimbVec& r) {
  q.assign(a.size(), 0);
  unsigned __int128 rem = 0;
  for (std::size_t i = a.size(); i-- > 0;) {
    const unsigned __int128 cur = (rem << 64) | a[i];
    q[i] = static_cast<Limb>(cur / d);
    rem = cur % d;
  }
  trim(q);
  r.clear();
  if (rem != 0) r.push_back(static_cast<Limb>(rem));
}

}  // namespace

void divmod_knuth(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r) {
  if (b.empty()) throw std::domain_error("division by zero");
  if (cmp(a, b) < 0) {
    q.clear();
    r = a;
    trim(r);
    return;
  }
  if (b.size() == 1) {
    divmod_single_limb(a, b[0], q, r);
    return;
  }

  // Normalize so the divisor's top bit is set.
  const unsigned s = static_cast<unsigned>(std::countl_zero(b.back()));
  LimbVec v = shl(b, s);
  LimbVec u = shl(a, s);
  const std::size_t n = v.size();
  u.push_back(0);  // extra high limb for the first iteration
  const std::size_t m = u.size() - n - 1;  // quotient has m+1 digits

  q.assign(m + 1, 0);
  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q[j] from the top two dividend limbs and top divisor limb.
    const unsigned __int128 num =
        (static_cast<unsigned __int128>(u[j + n]) << 64) | u[j + n - 1];
    unsigned __int128 qhat = num / v[n - 1];
    unsigned __int128 rhat = num % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-subtract qhat * v from u[j .. j+n].
    Limb qh = static_cast<Limb>(qhat);
    unsigned __int128 borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned __int128 p = static_cast<unsigned __int128>(qh) * v[i];
      const __int128 t = static_cast<__int128>(static_cast<unsigned __int128>(u[i + j])) -
                         static_cast<__int128>(borrow) -
                         static_cast<__int128>(static_cast<Limb>(p));
      u[i + j] = static_cast<Limb>(t);
      borrow = static_cast<unsigned __int128>(p >> 64) -
               static_cast<unsigned __int128>(t >> 64);
    }
    const __int128 t = static_cast<__int128>(static_cast<unsigned __int128>(u[j + n])) -
                       static_cast<__int128>(borrow);
    u[j + n] = static_cast<Limb>(t);

    if (t < 0) {  // estimate was one too large: add divisor back
      --qh;
      unsigned __int128 carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        carry += static_cast<unsigned __int128>(u[i + j]) + v[i];
        u[i + j] = static_cast<Limb>(carry);
        carry >>= 64;
      }
      u[j + n] += static_cast<Limb>(carry);
    }
    q[j] = qh;
  }

  trim(q);
  u.resize(n);
  r = shr(u, s);
}

namespace {

using Ops = BigIntOps;

BigInt make_pos(LimbVec v) { return Ops::make(std::move(v), 1); }

/// Base case of invert_into: below this many limbs Knuth D divides
/// beta^(2n) by the divisor directly.
constexpr std::size_t kInvertBaseLimbs = 16;

/// invert_into's exact correction moves X1 by at most these steps to the
/// exact X = floor(beta^(2n) / d). With X0 = Ih * beta^l, the residual
/// E' = beta^(n+h) - Ih * d lies in (-2 beta^n, beta^n), so
/// eps = E' / beta^(n+h) has |eps| < 2 beta^-h. The step's real value
/// X0 (1 + eps) = (beta^(2n) / d)(1 - eps^2) is below beta^(2n) / d by
/// less than 8 (less than 2 when E' >= 0). Truncating the correction moves
/// X1 by less than 1, and the band it is read from (diagonals 2h - 2 and
/// up) by at most 1 more, down when E' >= 0 and up when E' < 0. So X1 lies
/// in [X - 8, X + 2].
constexpr int kInvertMaxLower = 2;
constexpr int kInvertMaxRaise = 8;
/// Barrett's estimate floor(floor(A / beta^n) * I / beta^n) is never above
/// the quotient and, for A < beta^(2n) and B >= beta^n / 2, at most 3
/// below it: A / beta^(2n) < 1 and beta^n / B <= 2 bound the two dropped
/// terms, and the floor costs one more.
constexpr int kBarrettMaxRaise = 3;

/// Counts one exact-correction step of `where`; throws once `steps` passes
/// `bound`.
void correction_step(int& steps, int bound, const char* where) {
  if (++steps > bound) {
    throw std::logic_error(std::string(where) +
                           ": correction past its bound (a wrong product)");
  }
}

/// r[0, n) = -a[0, n) mod beta^n (two's complement; r may alias a).
void negate(Limb* r, const Limb* a, std::size_t n) {
  Limb carry = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb v = ~a[i] + carry;
    carry = carry != 0 && v == 0;
    r[i] = v;
  }
}

/// Scratch limbs invert_into needs at one level for an n-limb divisor
/// (n > kInvertBaseLimbs): d's and Ih's kept transforms, the wrapped
/// products (L limbs, the band's output too), the residual with the band's
/// slice (n + 3) and the products' own scratch.
std::size_t invert_level_limbs(std::size_t n) {
  const std::size_t h = (n + 1) / 2;
  const std::size_t length = wrap_length(n + 1);
  const std::size_t kept = keep_wrapped_limbs(length);
  return 2 * kept + length + n + 3 +
         std::max({mul_wrapped_scratch_limbs(length, h + 1, n, kept != 0),
                   mul_wrapped_scratch_limbs(length, n + 1, n, kept != 0),
                   mulmid_kept_scratch_limbs(n + 3, h + 1,
                                             kept != 0 ? length : 0)});
}

/// Scratch limbs invert_into needs for an n-limb divisor: its own level's
/// or its recursive call's.
std::size_t invert_scratch_limbs(std::size_t n) {
  if (n <= kInvertBaseLimbs) return 0;
  return std::max(invert_scratch_limbs((n + 1) / 2), invert_level_limbs(n));
}

/// e[0, n + 1) = the residual 2^bit - x as n + 1 limbs of two's
/// complement, from w[0, L) = x mod (B^L - 1), for a residual known to lie
/// in [-B^L / 2, B^L / 2). Overwrites w.
void wrapped_residual(Limb* e, std::size_t n, Limb* w, std::size_t length,
                      std::size_t bit) {
  sub_from_power_wrapped(w, length, bit);
  // A negative residual v reads B^L - 1 + v: add the 1 back.
  if ((w[length - 1] >> 63) != 0) add_1(w, length, 1);
  std::copy(w, w + n + 1, e);
}

/// out[0, n] = floor(beta^(2n) / d) for a normalized n-limb d (top bit
/// set), by recursive Newton iteration (precision doubling) in the caller's
/// scratch `ws` (invert_scratch_limbs(n)); allocation-free above the base
/// case. Each level refines the top half's reciprocal once,
///   X1 = X0 + X0 * (beta^(2n) - X0 * d) / beta^(2n),
/// then corrects X1 exactly, so the next level starts from an exact value
/// and the correction loops run O(1) times. Both residuals are known to lie
/// below 9 beta^n in magnitude (E' in (-2 beta^n, beta^n), R in [-2d, 9d)),
/// far inside [-B^L / 2, B^L / 2) for L >= n + 1, so each is read off a
/// wrapped product mod B^L - 1 (half the transform of the full product),
/// both against d's kept transforms. The correction's top l + 2 limbs are a
/// band of Ih * |E'| on Ih's kept transforms.
void invert_into(Limb* out, const Limb* d, std::size_t n, Limb* ws) {
  if (n <= kInvertBaseLimbs) {
    LimbVec num(2 * n + 1, 0);
    num[2 * n] = 1;
    LimbVec q, r;
    divmod_knuth(num, LimbVec(d, d + n), q, r);
    std::fill(out, out + n + 1, Limb{0});
    std::copy(q.begin(), q.end(), out);
    return;
  }
  const std::size_t h = (n + 1) / 2;
  const std::size_t l = n - h;
  // X0 = Ih * beta^l from the reciprocal Ih of d's top h limbs.
  invert_into(out + l, d + l, h, ws);
  std::fill(out, out + l, Limb{0});
  const Limb* ih = out + l;  // h + 1 limbs
  const std::size_t length = wrap_length(n + 1);
  const std::size_t kept = keep_wrapped_limbs(length);
  const Operand dk = keep_wrapped(d, n, length, ws);
  const Operand ik = keep_wrapped(ih, h + 1, length, ws + kept);
  Limb* w = ws + 2 * kept;  // L limbs: the wrapped products and the band
  Limb* e = w + length;     // n + 3 limbs: E' and the band's slice, then R
  Limb* scratch = e + n + 3;

  // E' = beta^(n+h) - Ih * d (= (beta^(2n) - X0 * d) / beta^l).
  mul_wrapped_into(w, length, ik, dk, scratch);
  wrapped_residual(e, n, w, length, 64 * ((n + h) % length));
  const bool e_negative = (e[n] >> 63) != 0;
  if (e_negative) negate(e, e, n + 1);
  // X1 = X0 +- floor(Ih * |E'| / beta^(2h)), an (l + 2)-limb correction:
  // the band of diagonals 2h - 2 and up, which meet |E'| from limb h - 2,
  // with two guard limbs below beta^(2h).
  std::copy(e + h - 2, e + n + 1, e);
  std::fill(e + l + 3, e + n + 3, Limb{0});
  mulmid_kept_into(w, e, n + 3, ik, scratch);
  if (e_negative) {
    sub_1(out + l + 2, h - 1, sub_n(out, out, w + 2, l + 2));
  } else {
    add_1(out + l + 2, h - 1, add_n(out, out, w + 2, l + 2));
  }

  // Exact correction: R = beta^(2n) - X1 * d must land in [0, d).
  mul_wrapped_into(w, length, {out, n + 1}, dk, scratch);
  wrapped_residual(e, n, w, length, 64 * ((2 * n) % length));
  int lowered = 0;
  while ((e[n] >> 63) != 0) {
    correction_step(lowered, kInvertMaxLower, "invert_into");
    sub_1(out, n + 1, 1);
    e[n] += add_n(e, e, d, n);
  }
  int raised = 0;
  while (e[n] != 0 || cmp_n(e, d, n) >= 0) {
    correction_step(raised, kInvertMaxRaise, "invert_into");
    add_1(out, n + 1, 1);
    e[n] -= sub_n(e, e, d, n);
  }
}

/// floor(beta^(2n) / b) for a normalized n-limb b.
BigInt invert(const BigInt& b) {
  const LimbVec& d = Ops::limbs(b);
  const std::size_t n = d.size();
  LimbVec out(n + 1);
  LimbVec ws(invert_scratch_limbs(n));
  invert_into(out.data(), d.data(), n, ws.data());
  return make_pos(std::move(out));
}

/// Barrett step: divides A (< beta^(2n)) by normalized n-limb B using the
/// precomputed exact reciprocal I = floor(beta^(2n)/B).
void barrett_step(const BigInt& a, const BigInt& b, const BigInt& i,
                  std::size_t n, BigInt& q, BigInt& r) {
  const BigInt a1 = a.high_limbs_from(n);
  q = (a1 * i) >> (64 * n);
  r = a - q * b;
  int lowered = 0;
  while (r.is_negative()) {
    correction_step(lowered, 0, "barrett_step");
    q -= 1;
    r += b;
  }
  int raised = 0;
  while (r >= b) {
    correction_step(raised, kBarrettMaxRaise, "barrett_step");
    q += 1;
    r -= b;
  }
}

}  // namespace

void divmod_newton(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r) {
  if (b.empty()) throw std::domain_error("division by zero");
  if (cmp(a, b) < 0) {
    q.clear();
    r = a;
    trim(r);
    return;
  }

  const unsigned s = static_cast<unsigned>(std::countl_zero(b.back()));
  const BigInt bb = make_pos(shl(b, s));
  BigInt rem = make_pos(shl(a, s));
  const std::size_t n = Ops::limbs(bb).size();
  const BigInt inv = invert(bb);

  BigInt quot;  // accumulated quotient
  while (rem >= bb) {
    const std::size_t k = rem.limb_count();
    if (k <= 2 * n) {
      BigInt qs, rs;
      barrett_step(rem, bb, inv, n, qs, rs);
      quot += qs;
      rem = std::move(rs);
    } else {
      // Peel off the top 2n limbs, divide them, and fold the remainder back.
      const std::size_t j = k - 2 * n;
      const BigInt hi = rem.high_limbs_from(j);
      const BigInt lo = rem.low_limbs(j);
      BigInt qs, rs;
      barrett_step(hi, bb, inv, n, qs, rs);
      quot += qs << (64 * j);
      rem = (rs << (64 * j)) + lo;
    }
  }

  q = Ops::limbs(quot);
  trim(q);
  r = shr(Ops::limbs(rem), s);
}

void divmod(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r) {
  const std::size_t threshold = Tuning::newton_div_threshold();
  const bool big_divisor = b.size() >= threshold;
  const bool big_quotient = a.size() >= b.size() + threshold / 2;
  if (big_divisor && big_quotient) {
    obs::prof::Frame frame("bn.div.newton");
    divmod_newton(a, b, q, r);
  } else {
    obs::prof::Frame frame("bn.div.knuth");
    divmod_knuth(a, b, q, r);
  }
}

}  // namespace detail

BigInt reciprocal(const BigInt& d, std::size_t bits) {
  using detail::LimbVec;
  if (d.sign() <= 0) {
    throw std::domain_error("reciprocal of a non-positive value");
  }
  obs::prof::Frame frame("bn.reciprocal");
  // floor(2^bits / d) = floor(2^(bits+s) / D) for D = d << s normalized to
  // n limbs. invert_into gives floor(beta^(2n+t) / D) when fed D * beta^t;
  // t pads the precision up to bits + s.
  const LimbVec& limbs = BigIntOps::limbs(d);
  const std::size_t n = limbs.size();
  const std::size_t s =
      static_cast<std::size_t>(std::countl_zero(limbs.back()));
  const std::size_t want = bits + s;
  const std::size_t t = want > 128 * n ? (want - 128 * n + 63) / 64 : 0;
  const LimbVec padded = detail::shl(limbs, s + 64 * t);
  // One allocation for the result and the Newton scratch.
  LimbVec buf(n + t + 1 + detail::invert_scratch_limbs(n + t));
  detail::invert_into(buf.data(), padded.data(), n + t,
                      buf.data() + n + t + 1);
  buf.resize(n + t + 1);
  return BigIntOps::make(detail::shr(buf, 64 * (2 * n + t) - want), 1);
}

}  // namespace weakkeys::bn
