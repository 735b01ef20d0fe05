// Internal magnitude-level primitives shared by the BigInt algorithm files.
// Magnitudes are little-endian limb vectors with no trailing zero limbs.
// Not part of the public API.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bn/bigint.hpp"

namespace weakkeys::bn {

/// Grants the algorithm translation units access to BigInt internals without
/// exposing them publicly.
struct BigIntOps {
  static std::vector<Limb>& limbs(BigInt& x) { return x.limbs_; }
  static const std::vector<Limb>& limbs(const BigInt& x) { return x.limbs_; }
  static int sign(const BigInt& x) { return x.sign_; }
  static BigInt make(std::vector<Limb> limbs, int sign) {
    return BigInt::from_limbs(std::move(limbs), sign);
  }
};

namespace detail {

using LimbVec = std::vector<Limb>;

/// Removes trailing zero limbs.
void trim(LimbVec& v);

/// Three-way magnitude comparison: -1, 0, +1.
int cmp(const LimbVec& a, const LimbVec& b);

/// a + b.
LimbVec add(const LimbVec& a, const LimbVec& b);

/// a - b; requires a >= b.
LimbVec sub(const LimbVec& a, const LimbVec& b);

/// a << bits / a >> bits.
LimbVec shl(const LimbVec& a, std::size_t bits);
LimbVec shr(const LimbVec& a, std::size_t bits);

/// a * b; dispatches schoolbook, Karatsuba or NTT on operand size.
LimbVec mul(const LimbVec& a, const LimbVec& b);

/// Schoolbook product, exposed for threshold benchmarking.
LimbVec mul_schoolbook(const LimbVec& a, const LimbVec& b);

/// The mul_into product of a and b (Karatsuba, over NTT leaves above
/// kNttMinLimbs; schoolbook below the threshold).
LimbVec mul_karatsuba(const LimbVec& a, const LimbVec& b);

/// The middle product of a and b (a.size() >= b.size() >= 1; see
/// mulmid_into), trimmed.
LimbVec mul_middle(const LimbVec& a, const LimbVec& b);

// -- Span kernels ------------------------------------------------------------
// Operands are raw little-endian limb ranges (leading zero limbs allowed);
// outputs must not overlap the inputs. None of these allocate.

/// r[0, n) = a[0, n) +/- b[0, n), returning the carry/borrow out; r may
/// alias a or b.
Limb add_n(Limb* r, const Limb* a, const Limb* b, std::size_t n);
Limb sub_n(Limb* r, const Limb* a, const Limb* b, std::size_t n);

/// Adds/subtracts one limb into r[0, n), returning the carry/borrow out.
Limb add_1(Limb* r, std::size_t n, Limb carry);
Limb sub_1(Limb* r, std::size_t n, Limb borrow);

/// Three-way comparison of a[0, n) and b[0, n): -1, 0 or +1.
int cmp_n(const Limb* a, const Limb* b, std::size_t n);

/// r[0, an + bn) = a[0, an) * b[0, bn), schoolbook; an >= bn >= 1.
void mul_basecase(Limb* r, const Limb* a, std::size_t an, const Limb* b,
                  std::size_t bn);

/// Products whose shorter operand has at least this many limbs run as
/// three-prime NTTs (ntt.cpp, DESIGN.md §5p), above the Karatsuba threshold
/// (Tuning::karatsuba_threshold); measured with bench/perf_bn.
inline constexpr std::size_t kNttMinLimbs = 448;
/// The same crossover for a middle product, on the shorter of its band and
/// its short operand.
inline constexpr std::size_t kNttMiddleMinLimbs = 256;
/// The longest transform: a bench-scale tree root (about 19,000 limbs) is
/// one. A product of more than this many coefficients (a middle product
/// over a longer operand) is split by Karatsuba (transposed Karatsuba)
/// levels onto transforms of at most this length, which bounds the NTT
/// scratch near 3 * kNttMaxLength limbs (1.5 MiB) per product.
inline constexpr std::size_t kNttMaxLength = std::size_t{1} << 16;

/// Scratch limbs mul_into needs for an an x bn product (an >= bn); a square
/// needs sqr_scratch_limbs(an), which is never more.
std::size_t mul_scratch_limbs(std::size_t an, std::size_t bn);
std::size_t sqr_scratch_limbs(std::size_t n);

/// r[0, an + bn) = a[0, an) * b[0, bn) for an >= bn >= 1, Karatsuba above
/// the threshold and NTTs above kNttMinLimbs (squaring when a and b are the
/// same range), using `scratch` of at least mul_scratch_limbs(an, bn) limbs.
void mul_into(Limb* r, const Limb* a, std::size_t an, const Limb* b,
              std::size_t bn, Limb* scratch);

/// Scratch limbs mulmid_into needs for an an x bn middle product.
std::size_t mulmid_scratch_limbs(std::size_t an, std::size_t bn);

/// r[0, n + 2) = the middle product of a[0, an) and b[0, bn) for
/// an >= bn >= 1 and n = an - bn + 1: the sum of a_i * b_j * B^(i+j-(bn-1))
/// over bn-1 <= i+j <= an-1, the n diagonals of a * b that meet all of b
/// (GMP's mpn_mulmid contract). Transposed Karatsuba above the Karatsuba
/// threshold, an NTT above kNttMiddleMinLimbs, using `scratch` of at least
/// mulmid_scratch_limbs(an, bn) limbs.
void mulmid_into(Limb* r, const Limb* a, std::size_t an, const Limb* b,
                 std::size_t bn, Limb* scratch);

// -- NTT kernels (ntt.cpp) ----------------------------------------------------
// Exact for operands of any limbs while the transform length stays at most
// kNttMaxLength; the callers above dispatch to them.

/// At most this many coefficients may wrap past a transform length: they
/// are subtracted out by schoolbook (O(kNttWrapLimbs^2) work) where the
/// next power of two would double the transform.
inline constexpr std::size_t kNttWrapLimbs = 32;

/// The transform length of an NTT product (square) of an x bn limbs, and of
/// an NTT middle product.
std::size_t ntt_product_length(std::size_t an, std::size_t bn);
std::size_t ntt_middle_length(std::size_t an, std::size_t bn);

/// Scratch limbs of one NTT product of transform length `length` that
/// keeps `count` coefficients (an + bn - 1 for a product, the band's
/// an - bn + 1 for a middle product, L for a wrapped product): one
/// transform, b's transform unless the product is `single` (a square, or
/// an operand's transforms are kept), and one prime's kept residues;
/// another prime's are kept in the output.
std::size_t ntt_scratch_limbs(std::size_t length, bool single,
                              std::size_t count);

/// One operand of a product: its limbs and, when `transforms` is set, its
/// three per-prime forward transforms at transform length `length`
/// (3 * length limbs of caller storage, ntt_keep), which a product at that
/// length reads instead of transforming the limbs again.
struct Operand {
  const Limb* limbs = nullptr;
  std::size_t size = 0;
  const Limb* transforms = nullptr;
  std::size_t length = 0;
};

/// t[0, 3L) = the forward transforms of a[0, an) reduced mod X^L - 1
/// (an <= 2L), one per prime, for L = length.
void ntt_keep(Limb* t, const Limb* a, std::size_t an, std::size_t length);

/// r[0, an + bn) = a * b, for an >= bn >= 1 and a transform length of at
/// most kNttMaxLength.
void ntt_mul(Limb* r, const Limb* a, std::size_t an, const Limb* b,
             std::size_t bn, Limb* scratch);

/// r[0, 2n) = a * a, likewise.
void ntt_sqr(Limb* r, const Limb* a, std::size_t n, Limb* scratch);

/// r[0, an - bn + 3) = the middle product of a and b (mulmid_into), for
/// an >= bn >= 1 and a transform length of at most kNttMaxLength.
void ntt_mulmid(Limb* r, const Limb* a, std::size_t an, const Limb* b,
                std::size_t bn, Limb* scratch);

/// The middle product at transform length L, for an <= L + kNttWrapLimbs
/// and an + bn - 1 <= 2L; either operand's transforms may be kept at L.
void ntt_mulmid_at(Limb* r, const Operand& a, const Operand& b,
                   std::size_t length, Limb* scratch);

/// r[0, L) = a * b mod (B^L - 1), a value in [0, B^L - 1], for a and b of
/// at most 2L limbs each (longer ones are folded): the cyclic
/// convolution at L, recombined with an end-around carry and no wrap
/// correction. Either operand's transforms may be kept at L.
void ntt_mul_wrapped(Limb* r, const Operand& a, const Operand& b,
                     std::size_t length, Limb* scratch);

/// The middle products r0[0, an - bn0 + 3) of a and b0 and r1[0,
/// an - bn1 + 3) of a and b1 at one transform length L valid for both
/// (ntt_mulmid_at), a's transform computed once per prime for the two.
/// ws holds 2L + (an - bn0 + 1) + (an - bn1 + 1) limbs.
void ntt_mulmid_pair(Limb* r0, Limb* r1, const Limb* a, std::size_t an,
                     const Limb* b0, std::size_t bn0, const Limb* b1,
                     std::size_t bn1, std::size_t length, Limb* scratch);

/// The NTT's butterfly and pointwise kernels (DESIGN.md §5p, "Lanes"): the
/// scalar reference, and the same formulas in 8 x 64-bit AVX-512 lanes,
/// which write the same limbs. Products run the lanes where CPUID reports
/// AVX-512F and DQ, picked once when the NTT tables are built.
enum class NttKernel { scalar, avx512 };
enum class NttStep { forward, inverse, pointwise };

/// The kernel every NTT product runs.
NttKernel ntt_kernel();

/// Whether this CPU and build can run `kernel`.
bool ntt_kernel_available(NttKernel kernel);

/// The NTT's prime number `prime` (0, 1 or 2).
Limb ntt_prime(std::size_t prime);

/// A test hook: one step of prime `prime`'s transform on x[0, L) in place,
/// by the named kernel (std::invalid_argument if it is unavailable). The
/// forward transform takes entries below 2p, natural order in and
/// bit-reversed out; the inverse takes entries below 4p, bit-reversed in
/// and natural out, unscaled; pointwise sets x[k] = x[k] y[k] 2^-64 mod p
/// in (0, 2p) for entries below 2p.
void ntt_run_kernel(NttKernel kernel, NttStep step, std::size_t prime,
                    Limb* x, const Limb* y, std::size_t length);

// -- Wrapped products and kept operands (mul.cpp) -----------------------------
// The same products at every size: above the NTT crossover they run on the
// kernels above, below it on the Karatsuba span kernels. An operand kept
// below the crossover keeps nothing (Operand::transforms stays null).

/// r[0, n) += a[0, n) * b; returns the carry limb.
Limb addmul_1(Limb* r, const Limb* a, std::size_t n, Limb b);

/// The modulus length L of a wrapped product whose answer is known to fit
/// `limbs` limbs (B^L - 1 > that answer): the next power of two when the
/// product is one NTT, else `limbs` itself.
std::size_t wrap_length(std::size_t limbs);

/// Storage limbs keep_wrapped() takes at wrap length L (0 below the NTT).
std::size_t keep_wrapped_limbs(std::size_t length);

/// b[0, bn) kept for wrapped products at wrap length L, its transforms in
/// storage[0, keep_wrapped_limbs(L)).
Operand keep_wrapped(const Limb* b, std::size_t bn, std::size_t length,
                     Limb* storage);

/// Scratch limbs of mul_wrapped_into at wrap length L for an an-limb and a
/// bn-limb operand, `kept` when either operand's transforms are kept.
std::size_t mul_wrapped_scratch_limbs(std::size_t length, std::size_t an,
                                      std::size_t bn, bool kept);

/// r[0, L) = a * b mod (B^L - 1), a value in [0, B^L - 1], for L =
/// wrap_length(...): one NTT at L (a and b of at most 2L limbs each), or
/// the full product folded by end-around carries.
void mul_wrapped_into(Limb* r, std::size_t length, const Operand& a,
                      const Operand& b, Limb* scratch);

/// Scratch limbs of mulmid_kept_into for an an-limb a against a bn-limb b
/// kept at transform length L (0: not kept).
std::size_t mulmid_kept_scratch_limbs(std::size_t an, std::size_t bn,
                                      std::size_t length);

/// r[0, an - bn + 3) = the middle product of a and b (mulmid_into), for
/// an >= bn; one NTT on b's kept transforms when their length suits the
/// band (an <= L + kNttWrapLimbs, an + bn - 1 <= 2L), else mulmid_into.
void mulmid_kept_into(Limb* r, const Limb* a, std::size_t an,
                      const Operand& b, Limb* scratch);

/// {mul_window(a, b0, shift0, bits0), mul_window(a, b1, shift1, bits1)}:
/// two windows of products of one a, as a descent node's two children take
/// them from their parent's fraction. When both are bands of one NTT
/// length, the slice of a that meets either band is transformed once per
/// prime for both (ntt_mulmid_pair); otherwise two mul_window calls.
std::array<BigInt, 2> mul_window_pair(const BigInt& a, const BigInt& b0,
                                      std::size_t shift0, std::size_t bits0,
                                      const BigInt& b1, std::size_t shift1,
                                      std::size_t bits1);

/// r[0, L) = x[0, xn) mod (B^L - 1), in [0, B^L - 1): L-limb pieces
/// summed with end-around carries.
void fold_wrapped(Limb* r, std::size_t length, const Limb* x,
                  std::size_t xn);

/// r[0, L) = (a - b) mod (B^L - 1), in [0, B^L - 1); r may alias a or b.
void sub_wrapped(Limb* r, const Limb* a, const Limb* b, std::size_t length);

/// r[0, L) = (2^bit - r) mod (B^L - 1), in [0, B^L - 1), for bit < 64 L:
/// a residual 2^bit - x from the wrapped product x.
void sub_from_power_wrapped(Limb* r, std::size_t length, std::size_t bit);

/// Floor division of magnitudes: a = q*b + r, 0 <= r < b. b must be nonzero.
/// Dispatches Knuth Algorithm D vs Newton-reciprocal division on size.
void divmod(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r);

/// Knuth Algorithm D (quadratic), exposed for threshold benchmarking.
void divmod_knuth(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r);

/// Newton-reciprocal division (O(M(n))), exposed for benchmarking. Requires
/// b larger than a handful of limbs.
void divmod_newton(const LimbVec& a, const LimbVec& b, LimbVec& q, LimbVec& r);

/// Significant bits of the magnitude (0 for empty).
std::size_t bit_length(const LimbVec& v);

// -- Small-operand kernels ----------------------------------------------------

/// Widest operand, in limbs, that the small-operand kernels (Montgomery
/// exponentiation, gcd) keep entirely in stack scratch. 8 limbs is a
/// 512-bit prime, the largest factor of the 1024-bit keys in the study.
inline constexpr std::size_t kSmallLimbs = 8;

/// Limb scratch that lives on the stack up to kInline limbs and takes one
/// heap block beyond that. Uninitialised; not copyable (data() points into
/// the object).
template <std::size_t kInline>
class LimbBuffer {
 public:
  explicit LimbBuffer(std::size_t n) {
    if (n > kInline) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  LimbBuffer(const LimbBuffer&) = delete;
  LimbBuffer& operator=(const LimbBuffer&) = delete;

  [[nodiscard]] Limb* data() { return data_; }
  [[nodiscard]] const Limb* data() const { return data_; }

 private:
  std::array<Limb, kInline> inline_;
  std::vector<Limb> heap_;
  Limb* data_ = inline_.data();
};

/// Montgomery arithmetic modulo an odd m > 1 of n limbs, on raw limb
/// ranges. A value in Montgomery form is an n-limb array holding
/// x * beta^n mod m, fully reduced, so equal residues compare equal limb by
/// limb. Nothing here allocates for m of up to kSmallLimbs limbs; a wider
/// modulus takes heap blocks per call (the context, pow(), to_mont()),
/// never per product. A context owns scratch, so it belongs to one thread.
class Montgomery {
 public:
  /// Builds the context: -m^-1 mod beta, beta^n mod m and beta^2n mod m,
  /// by doublings and Montgomery squarings (no division).
  explicit Montgomery(const BigInt& m);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] const Limb* modulus() const { return buf_.data(); }
  /// beta^n mod m: the Montgomery image of 1.
  [[nodiscard]] const Limb* one() const { return buf_.data() + 2 * n_; }

  /// r = a * b * beta^-n mod m. r may alias a or b.
  void mul(Limb* r, const Limb* a, const Limb* b) {
    kernels_.mul(r, a, b, modulus(), n0_, n_, t());
  }

  /// r = the Montgomery image of x, for x < m given as at most n limbs.
  void to_mont(Limb* r, std::span<const Limb> x);

  /// The plain value of Montgomery-form x.
  [[nodiscard]] BigInt from_mont(const Limb* x);

  /// r = base^e in Montgomery form (base in Montgomery form too), by a
  /// left-to-right sliding window of up to 5 bits. r may alias base.
  void pow(Limb* r, const Limb* base, std::span<const Limb> e);

  /// One width's kernels; the pointers are picked once per context, so the
  /// widths up to kSmallLimbs run fully unrolled instances.
  struct Kernels {
    void (*mul)(Limb* r, const Limb* a, const Limb* b, const Limb* m,
                Limb n0, std::size_t n, Limb* t);
    void (*pow)(Limb* r, const Limb* base, std::span<const Limb> e,
                const Limb* one, const Limb* m, Limb n0, std::size_t n,
                Limb* t);
  };

 private:
  // buf_ holds m | beta^2n mod m | beta^n mod m | product scratch (2n).
  Limb* rr() { return buf_.data() + n_; }
  Limb* t() { return buf_.data() + 3 * n_; }

  std::size_t n_;
  Limb n0_;
  Kernels kernels_;
  LimbBuffer<5 * kSmallLimbs> buf_;
};

}  // namespace detail
}  // namespace weakkeys::bn
