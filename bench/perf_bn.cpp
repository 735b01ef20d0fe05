// Microbenchmarks for the bignum substrate, including the two ablations
// DESIGN.md calls out:
//   * schoolbook vs Karatsuba vs NTT multiplication (BM_MulSchoolbook,
//     BM_MulKaratsuba below the NTT crossover, BM_Mul above it), and the
//     middle product the scaled remainder tree keeps, and the wrapped
//     product (mod B^L - 1) of its row arithmetic and reciprocal,
//   * Newton-reciprocal vs Knuth Algorithm D division,
// the Newton reciprocal the scaled remainder tree starts from, Montgomery
// modexp, gcd (on one fixed pair and over varying pairs), RSA keygen
// throughput (healthy and flawed RNG, one prime of each style) with the
// SHA-256 work a flawed RNG's fills cost, and — when GMP is found at configure time — GMP's multiply,
// divide, powm and gcd on the same operands as a yardstick for how far the
// kernels are from the hardware (BM_*_Gmp).
#include <benchmark/benchmark.h>
#if WEAKKEYS_BENCH_GMP
#include <gmp.h>
#endif

#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "bn/detail.hpp"
#include "crypto/sha256.hpp"
#include "rng/entropy_pool.hpp"
#include "rng/prng_source.hpp"
#include "rng/urandom.hpp"
#include "rsa/keygen.hpp"

namespace {

using namespace weakkeys;
using bn::BigInt;

BigInt random_bits_of(std::uint64_t seed, std::size_t bits) {
  rng::PrngRandomSource src(seed);
  BigInt v = bn::random_bits(src, bits);
  if (v.is_zero()) v = BigInt(1);
  return v;
}

void BM_MulSchoolbook(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(1, limbs * 64);
  const BigInt b = random_bits_of(2, limbs * 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::detail::mul_schoolbook(
        bn::BigIntOps::limbs(a), bn::BigIntOps::limbs(b)));
  }
}
BENCHMARK(BM_MulSchoolbook)->Arg(16)->Arg(64)->Arg(256);

/// The n x n product bn multiplies with (detail::mul_into's dispatch).
void BM_Mul(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(1, limbs * 64);
  const BigInt b = random_bits_of(2, limbs * 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::detail::mul_karatsuba(
        bn::BigIntOps::limbs(a), bn::BigIntOps::limbs(b)));
  }
}
// Above kNttMinLimbs the product is NTTs (over Karatsuba levels above the
// transform cap). 8,300 is just past a power-of-two step (a 2^15 transform)
// and 19,116 the study's root size (one 2^16 transform).
BENCHMARK(BM_Mul)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(8192)
    ->Arg(8300)
    ->Arg(16384)
    ->Arg(19116);

/// BM_Mul below the NTT crossover, where the product is Karatsuba.
void BM_MulKaratsuba(benchmark::State& state) { BM_Mul(state); }
BENCHMARK(BM_MulKaratsuba)->Arg(16)->Arg(64)->Arg(256);

/// The middle product of a (2n-1)-limb a and an n-limb b, the n-diagonal
/// band a scaled-descent node keeps (bn::mul_window), beside BM_Mul's
/// n x n product.
void BM_MulMiddle(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(1, (2 * limbs - 1) * 64);
  const BigInt b = random_bits_of(2, limbs * 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::detail::mul_middle(
        bn::BigIntOps::limbs(a), bn::BigIntOps::limbs(b)));
  }
}
BENCHMARK(BM_MulMiddle)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(8300)
    ->Arg(16384)
    ->Arg(19116);

/// a * b mod (B^L - 1) for n-limb a and b at the wrap length of an
/// (n + 1)-limb answer (detail::wrap_length): a row's Barrett remainder or
/// R0 at a root of n limbs, beside BM_Mul's full n x n product. 16,356 is
/// factor_inproc's root size (one 2^14 transform against 2^15 for the
/// product), 19,116 the study's (2^15 against 2^16).
void BM_MulWrapped(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(1, limbs * 64);
  const BigInt b = random_bits_of(2, limbs * 64);
  const auto& al = bn::BigIntOps::limbs(a);
  const auto& bl = bn::BigIntOps::limbs(b);
  const std::size_t length = bn::detail::wrap_length(limbs + 1);
  std::vector<bn::Limb> r(length);
  std::vector<bn::Limb> scratch(bn::detail::mul_wrapped_scratch_limbs(
      length, al.size(), bl.size(), /*kept=*/false));
  for (auto _ : state) {
    bn::detail::mul_wrapped_into(r.data(), length, {al.data(), al.size()},
                                 {bl.data(), bl.size()}, scratch.data());
    benchmark::DoNotOptimize(r.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MulWrapped)->Arg(16356)->Arg(19116);

/// An a x b product with a far longer than b: a in chunks of one transform
/// each against all of b.
void BM_MulLopsided(benchmark::State& state) {
  const auto an = static_cast<std::size_t>(state.range(0));
  const auto bn = static_cast<std::size_t>(state.range(1));
  const BigInt a = random_bits_of(1, an * 64);
  const BigInt b = random_bits_of(2, bn * 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::detail::mul_karatsuba(
        bn::BigIntOps::limbs(a), bn::BigIntOps::limbs(b)));
  }
}
BENCHMARK(BM_MulLopsided)->Args({65536, 512});

void BM_DivKnuth(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(3, limbs * 2 * 64);
  const BigInt b = random_bits_of(4, limbs * 64);
  bn::detail::LimbVec q, r;
  for (auto _ : state) {
    bn::detail::divmod_knuth(bn::BigIntOps::limbs(a), bn::BigIntOps::limbs(b),
                             q, r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_DivKnuth)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_DivNewton(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(3, limbs * 2 * 64);
  const BigInt b = random_bits_of(4, limbs * 64);
  bn::detail::LimbVec q, r;
  for (auto _ : state) {
    bn::detail::divmod_newton(bn::BigIntOps::limbs(a), bn::BigIntOps::limbs(b),
                              q, r);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_DivNewton)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

/// floor(2^(2b+64) / d) for a b-bit d: the root reciprocal of a k-subset
/// tree (ProductTree::root_reciprocal), by limbs of d. 16,356 is
/// factor_inproc's root size, 19,116 the study's.
void BM_Reciprocal(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const BigInt d = random_bits_of(4, limbs * 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::reciprocal(d, 2 * d.bit_length() + 64));
  }
}
BENCHMARK(BM_Reciprocal)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16356)
    ->Arg(16384)
    ->Arg(19116);

#if WEAKKEYS_BENCH_GMP
/// A GMP copy of `v`.
struct Mpz {
  explicit Mpz(const BigInt& v) {
    mpz_init_set_str(z, v.to_hex().c_str(), 16);
  }
  Mpz() { mpz_init(z); }
  ~Mpz() { mpz_clear(z); }
  Mpz(const Mpz&) = delete;
  Mpz& operator=(const Mpz&) = delete;
  mpz_t z;
};

void BM_Mul_Gmp(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const Mpz a(random_bits_of(1, limbs * 64));
  const Mpz b(random_bits_of(2, limbs * 64));
  Mpz r;
  for (auto _ : state) {
    mpz_mul(r.z, a.z, b.z);
    benchmark::DoNotOptimize(r.z);
  }
}
BENCHMARK(BM_Mul_Gmp)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(8192)
    ->Arg(8300)
    ->Arg(16384)
    ->Arg(19116);

/// 2n / n limbs, as BM_DivKnuth and BM_DivNewton.
void BM_Div_Gmp(benchmark::State& state) {
  const auto limbs = static_cast<std::size_t>(state.range(0));
  const Mpz a(random_bits_of(3, limbs * 2 * 64));
  const Mpz b(random_bits_of(4, limbs * 64));
  Mpz q, r;
  for (auto _ : state) {
    mpz_tdiv_qr(q.z, r.z, a.z, b.z);
    benchmark::DoNotOptimize(q.z);
  }
}
BENCHMARK(BM_Div_Gmp)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);
#endif

void BM_ModPow(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const BigInt base = random_bits_of(5, bits);
  const BigInt exponent = random_bits_of(6, bits);
  BigInt modulus = random_bits_of(7, bits);
  if (modulus.is_even()) modulus += BigInt(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::mod_pow(base, exponent, modulus));
  }
}
BENCHMARK(BM_ModPow)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_Gcd(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const BigInt a = random_bits_of(8, bits);
  const BigInt b = random_bits_of(9, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::gcd(a, b));
  }
}
BENCHMARK(BM_Gcd)->Arg(256)->Arg(1024);

/// BM_Gcd's one fixed pair lets the branch predictor learn its whole
/// control flow. The leaf GCDs of a batch GCD never repeat an operand, so
/// this row cycles through kGcdPairs pre-drawn pairs instead.
constexpr std::size_t kGcdPairs = 4096;

std::vector<std::pair<BigInt, BigInt>> gcd_pairs(std::size_t bits) {
  std::vector<std::pair<BigInt, BigInt>> pairs;
  pairs.reserve(kGcdPairs);
  for (std::size_t i = 0; i < kGcdPairs; ++i) {
    pairs.emplace_back(random_bits_of(1000 + 2 * i, bits),
                       random_bits_of(1001 + 2 * i, bits));
  }
  return pairs;
}

void BM_Gcd_Varying(benchmark::State& state) {
  const auto pairs = gcd_pairs(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i];
    benchmark::DoNotOptimize(bn::gcd(a, b));
    i = (i + 1) % kGcdPairs;
  }
}
BENCHMARK(BM_Gcd_Varying)->Arg(256);

#if WEAKKEYS_BENCH_GMP
/// The same operands as BM_ModPow and BM_Gcd.
void BM_ModPow_Gmp(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const Mpz base(random_bits_of(5, bits));
  const Mpz exponent(random_bits_of(6, bits));
  BigInt modulus = random_bits_of(7, bits);
  if (modulus.is_even()) modulus += BigInt(1);
  const Mpz m(modulus);
  Mpz r;
  for (auto _ : state) {
    mpz_powm(r.z, base.z, exponent.z, m.z);
    benchmark::DoNotOptimize(r.z);
  }
}
BENCHMARK(BM_ModPow_Gmp)->Arg(128)->Arg(256);

void BM_Gcd_Gmp(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const Mpz a(random_bits_of(8, bits));
  const Mpz b(random_bits_of(9, bits));
  Mpz r;
  for (auto _ : state) {
    mpz_gcd(r.z, a.z, b.z);
    benchmark::DoNotOptimize(r.z);
  }
}
BENCHMARK(BM_Gcd_Gmp)->Arg(256);

/// The same pairs as BM_Gcd_Varying.
void BM_Gcd_Varying_Gmp(benchmark::State& state) {
  const auto pairs = gcd_pairs(static_cast<std::size_t>(state.range(0)));
  std::vector<Mpz> a(kGcdPairs);
  std::vector<Mpz> b(kGcdPairs);
  for (std::size_t i = 0; i < kGcdPairs; ++i) {
    mpz_set_str(a[i].z, pairs[i].first.to_hex().c_str(), 16);
    mpz_set_str(b[i].z, pairs[i].second.to_hex().c_str(), 16);
  }
  Mpz r;
  std::size_t i = 0;
  for (auto _ : state) {
    mpz_gcd(r.z, a[i].z, b[i].z);
    benchmark::DoNotOptimize(r.z);
    i = (i + 1) % kGcdPairs;
  }
}
BENCHMARK(BM_Gcd_Varying_Gmp)->Arg(256);
#endif

void BM_RsaKeygen(benchmark::State& state) {
  rng::PrngRandomSource src(10);
  rsa::KeygenOptions opts;
  opts.modulus_bits = static_cast<std::size_t>(state.range(0));
  opts.miller_rabin_rounds = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa::generate_key(src, opts));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

/// A flawed device's key, as the simulator makes it: a fresh SimulatedUrandom
/// per key (boot mixes included) and the mid-keygen stir. Every fill is
/// SHA-256 extraction, so this row prices the SHA rounds beside the sieve.
void BM_RsaKeygenFlawed(benchmark::State& state) {
  rsa::KeygenOptions opts;
  opts.modulus_bits = static_cast<std::size_t>(state.range(0));
  opts.miller_rabin_rounds = 5;
  const rng::RngFlawModel flaw{.boot_entropy_bits = 20,
                               .divergence_entropy_bits = 40};
  std::uint64_t device = 0;
  for (auto _ : state) {
    ++device;
    rng::SimulatedUrandom urandom("bench-fw", flaw, device, device * 31);
    const rsa::KeygenEvents events{[&urandom](int prime) {
      if (prime == 1) urandom.stir_divergence_event();
    }};
    benchmark::DoNotOptimize(rsa::generate_key(urandom, opts, &events));
  }
}
BENCHMARK(BM_RsaKeygenFlawed)->Arg(256)->Unit(benchmark::kMicrosecond);

/// One prime: sieve windows, trial division and Miller-Rabin, in both
/// prime styles.
void BM_GeneratePrime(benchmark::State& state, rsa::PrimeStyle style) {
  rng::PrngRandomSource src(11);
  rsa::KeygenOptions opts;
  opts.style = style;
  opts.miller_rabin_rounds = 5;
  const auto bits = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa::generate_prime(src, bits, opts));
  }
}
BENCHMARK_CAPTURE(BM_GeneratePrime, openssl, rsa::PrimeStyle::kOpenSsl)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GeneratePrime, plain, rsa::PrimeStyle::kPlain)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

/// One SimulatedUrandom-sized fill: three SHA-256 compressions.
void BM_EntropyExtract(benchmark::State& state) {
  rng::EntropyPool pool;
  pool.mix_u64(42, 64.0);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    pool.extract(out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_EntropyExtract)->Arg(16);

void BM_Sha256(benchmark::State& state) {
  const std::vector<std::uint8_t> message(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(message));
  }
}
BENCHMARK(BM_Sha256)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return weakkeys::bench::run_benchmarks_with_json("perf_bn", argc, argv);
}
