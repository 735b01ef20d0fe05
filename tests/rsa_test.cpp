#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "bn/bigint.hpp"
#include "crypto/sha256.hpp"
#include "fingerprint/openssl_fingerprint.hpp"
#include "rng/prng_source.hpp"
#include "rng/urandom.hpp"
#include "rsa/ibm_nine_primes.hpp"
#include "rsa/keygen.hpp"
#include "rsa/pkcs1.hpp"

namespace weakkeys::rsa {
namespace {

using bn::BigInt;
using rng::PrngRandomSource;

KeygenOptions small_opts(PrimeStyle style = PrimeStyle::kOpenSsl) {
  KeygenOptions opts;
  opts.modulus_bits = 256;
  opts.style = style;
  opts.miller_rabin_rounds = 8;
  return opts;
}

// ------------------------------------------------------------ keygen ----

TEST(Keygen, ProducesConsistentKey) {
  PrngRandomSource rng(1);
  const RsaPrivateKey key = generate_key(rng, small_opts());
  EXPECT_TRUE(key.is_consistent());
  EXPECT_EQ(key.pub.n.bit_length(), 256u);
  EXPECT_EQ(key.pub.e, BigInt(65537));
  EXPECT_NE(key.p, key.q);
}

TEST(Keygen, ExactModulusSizeAcrossSizes) {
  PrngRandomSource rng(2);
  for (std::size_t bits : {128u, 192u, 256u, 384u, 512u}) {
    KeygenOptions opts = small_opts();
    opts.modulus_bits = bits;
    const RsaPrivateKey key = generate_key(rng, opts);
    EXPECT_EQ(key.pub.n.bit_length(), bits);
    EXPECT_TRUE(key.is_consistent());
  }
}

TEST(Keygen, DeterministicGivenSameStream) {
  PrngRandomSource a(7), b(7);
  const auto ka = generate_key(a, small_opts());
  const auto kb = generate_key(b, small_opts());
  EXPECT_EQ(ka.pub.n, kb.pub.n);
  EXPECT_EQ(ka.p, kb.p);
}

TEST(Keygen, RejectsBadOptions) {
  PrngRandomSource rng(1);
  KeygenOptions opts = small_opts();
  opts.modulus_bits = 32;
  EXPECT_THROW(generate_key(rng, opts), std::invalid_argument);
  opts = small_opts();
  opts.public_exponent = 4;
  EXPECT_THROW(generate_key(rng, opts), std::invalid_argument);

  // One prime past the sieve's 2^15 lane bound. Twice: a rejected depth
  // must leave no partly built table for the next call to sieve with.
  opts = small_opts();
  opts.sieve_primes = detail::kMaxSieveDepth + 1;
  EXPECT_THROW(generate_key(rng, opts), std::invalid_argument);
  EXPECT_THROW(generate_key(rng, opts), std::invalid_argument);
  for (const std::size_t depth : {std::size_t{16}, std::size_t{128}, std::size_t{256},
                                  std::size_t{2048}, detail::kMaxSieveDepth}) {
    opts.sieve_primes = depth;
    EXPECT_TRUE(generate_key(rng, opts).is_consistent()) << "depth=" << depth;
  }
}

// The sieve's 32-bit lanes against a scalar 64-bit reference: residues by
// bn::mod_small, offsets t with base + 2t == 0 (and == 1 in OpenSSL style)
// mod q by modular halving, every multiple marked. The test checks each
// lane's offsets as well as the window, since a wrong offset often hides
// under another prime's mark.
detail::SieveWindow reference_window(const BigInt& base, PrimeStyle style,
                                     std::size_t depth) {
  detail::SieveWindow alive;
  alive.fill(1);
  for (const std::uint64_t q : bn::small_primes(depth)) {
    if (q == 2) continue;
    const std::uint64_t r = bn::mod_small(base, q);
    const std::uint64_t half = (q + 1) / 2;
    for (const std::uint64_t v : {0, 1}) {
      if (v == 1 && style != PrimeStyle::kOpenSsl) continue;
      const std::uint64_t first = (v + q - r) % q * half % q;
      for (std::uint64_t t = first; t < detail::kWindow; t += q) alive[t] = 0;
    }
  }
  return alive;
}

TEST(Keygen, SieveLanesMatchScalarResidues) {
  EXPECT_LT(bn::small_primes(detail::kMaxSieveDepth).back(), 1u << 15);
  EXPECT_GT(bn::small_primes(detail::kMaxSieveDepth + 1).back(), 1u << 15);

  PrngRandomSource rng(17);
  // Depth 4 covers fewer odd primes than the window's wheel of five.
  for (const std::size_t depth : {std::size_t{4}, std::size_t{16}, std::size_t{128},
                                  std::size_t{256}, std::size_t{2048}}) {
    const auto& primes = bn::small_primes(depth);
    std::vector<BigInt> bases;
    for (const std::size_t bits : {std::size_t{128}, std::size_t{256}}) {
      for (int i = 0; i < 32; ++i) bases.push_back(bn::random_bits(rng, bits));
      const BigInt top = BigInt(1) << bits;
      bases.push_back(top - BigInt(1));    // all-ones limbs
      bases.push_back(top - BigInt(101));  // t_end < kWindow in generate_prime
      // == 0 and == 1 mod a small, a middle and the largest sieve prime.
      for (const std::uint32_t q : {primes[1], primes[primes.size() / 2], primes.back()}) {
        const BigInt multiple = (bn::random_bits(rng, bits - 16) + BigInt(1)) * BigInt(std::uint64_t{q});
        bases.push_back(multiple);
        bases.push_back(multiple + BigInt(1));
      }
    }
    std::vector<std::uint32_t> odd_primes(primes.begin() + 1, primes.end());
    for (const BigInt& base : bases) {
      const detail::SieveOffsets offsets = detail::sieve_offsets(base, depth);
      ASSERT_EQ(offsets.zero.size(), odd_primes.size());
      for (std::size_t i = 0; i < odd_primes.size(); ++i) {
        const std::uint64_t q = odd_primes[i];
        const std::uint64_t r = bn::mod_small(base, q);
        ASSERT_EQ((r + 2 * std::uint64_t{offsets.zero[i]}) % q, 0u)
            << "q=" << q << " base=" << base.to_hex();
        ASSERT_EQ((r + 2 * std::uint64_t{offsets.one[i]}) % q, 1u)
            << "q=" << q << " base=" << base.to_hex();
        ASSERT_LT(offsets.zero[i], q);
        ASSERT_LT(offsets.one[i], q);
      }
      for (const PrimeStyle style : {PrimeStyle::kOpenSsl, PrimeStyle::kPlain}) {
        const detail::SieveWindow lanes = detail::sieve_window(base, style, depth);
        const detail::SieveWindow reference = reference_window(base, style, depth);
        ASSERT_TRUE(std::equal(lanes.begin(), lanes.begin() + detail::kWindow,
                               reference.begin()))
            << "depth=" << depth << " base=" << base.to_hex()
            << " openssl=" << (style == PrimeStyle::kOpenSsl);
      }
    }
  }
}

// Pool threads resolve the sieve tables, the sieve clone and the SHA-256
// block function on their first key, concurrently; a depth no other test
// uses makes that first use happen here. Each thread's key must equal the
// one a serial run makes from the same stream.
TEST(Keygen, ConcurrentFirstUseMatchesSerial) {
  KeygenOptions opts = small_opts();
  opts.sieve_primes = 333;
  const rng::RngFlawModel flaw{.boot_entropy_bits = 8, .divergence_entropy_bits = 40};
  auto key_of = [&](std::uint64_t device) {
    rng::SimulatedUrandom urandom("concurrent-fw", flaw, device, device * 7);
    return generate_key(urandom, opts).pub.n;
  };
  constexpr std::uint64_t kThreads = 4;
  std::vector<BigInt> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (std::uint64_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { concurrent[i] = key_of(i); });
  }
  for (auto& thread : threads) thread.join();
  for (std::uint64_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(concurrent[i], key_of(i)) << "device=" << i;
  }
}

TEST(Keygen, PrimesAreProbablePrimes) {
  PrngRandomSource rng(3);
  const RsaPrivateKey key = generate_key(rng, small_opts());
  EXPECT_TRUE(bn::is_probable_prime(key.p, rng, 20));
  EXPECT_TRUE(bn::is_probable_prime(key.q, rng, 20));
}

TEST(Keygen, PublicExponentCoprimality) {
  PrngRandomSource rng(4);
  const RsaPrivateKey key = generate_key(rng, small_opts());
  EXPECT_EQ(bn::gcd(key.pub.e, (key.p - BigInt(1)) * (key.q - BigInt(1))),
            BigInt(1));
}

TEST(Keygen, BeforePrimeHookFiresTwice) {
  PrngRandomSource rng(5);
  std::vector<int> calls;
  KeygenEvents events;
  events.before_prime = [&calls](int i) { calls.push_back(i); };
  (void)generate_key(rng, small_opts(), &events);
  ASSERT_GE(calls.size(), 2u);
  EXPECT_EQ(calls[0], 0);
  EXPECT_EQ(calls[1], 1);
}

// The load-bearing fingerprint property: OpenSSL-style primes satisfy the
// Mironov test; plain primes usually do not.
TEST(Keygen, OpensslStylePrimesSatisfyFingerprint) {
  PrngRandomSource rng(6);
  KeygenOptions opts = small_opts(PrimeStyle::kOpenSsl);
  for (int i = 0; i < 6; ++i) {
    const BigInt p = generate_prime(rng, 128, opts);
    EXPECT_TRUE(fingerprint::satisfies_openssl_fingerprint(p));
  }
}

TEST(Keygen, PlainPrimesMostlyViolateFingerprint) {
  PrngRandomSource rng(7);
  KeygenOptions opts = small_opts(PrimeStyle::kPlain);
  int satisfying = 0;
  constexpr int kTrials = 24;
  for (int i = 0; i < kTrials; ++i) {
    if (fingerprint::satisfies_openssl_fingerprint(
            generate_prime(rng, 128, opts))) {
      ++satisfying;
    }
  }
  // ~7.5% expected; 24 trials all satisfying would be astronomical.
  EXPECT_LT(satisfying, kTrials / 2);
}

// The mechanism behind the entire study: boot-state collision + mid-keygen
// stir => shared first prime, distinct second prime.
TEST(Keygen, FlawedDevicesShareExactlyOnePrime) {
  const rng::RngFlawModel flaw{.boot_entropy_bits = 4,
                               .divergence_entropy_bits = 40};
  rng::SimulatedUrandom dev_a("acme-1.0", flaw, 9, 111);
  rng::SimulatedUrandom dev_b("acme-1.0", flaw, 9, 222);
  KeygenEvents ev_a{[&dev_a](int i) { if (i == 1) dev_a.stir_divergence_event(); }};
  KeygenEvents ev_b{[&dev_b](int i) { if (i == 1) dev_b.stir_divergence_event(); }};

  const auto ka = generate_key(dev_a, small_opts(), &ev_a);
  const auto kb = generate_key(dev_b, small_opts(), &ev_b);
  EXPECT_EQ(ka.p, kb.p);
  EXPECT_NE(ka.q, kb.q);
  EXPECT_NE(ka.pub.n, kb.pub.n);
  EXPECT_EQ(bn::gcd(ka.pub.n, kb.pub.n), ka.p);
}

TEST(Keygen, NoStirFlawYieldsIdenticalKeys) {
  const rng::RngFlawModel flaw{.boot_entropy_bits = 4,
                               .divergence_entropy_bits = -1};
  rng::SimulatedUrandom dev_a("acme-1.0", flaw, 9, 111);
  rng::SimulatedUrandom dev_b("acme-1.0", flaw, 9, 222);
  KeygenEvents ev_a{[&dev_a](int i) { if (i == 1) dev_a.stir_divergence_event(); }};
  KeygenEvents ev_b{[&dev_b](int i) { if (i == 1) dev_b.stir_divergence_event(); }};
  const auto ka = generate_key(dev_a, small_opts(), &ev_a);
  const auto kb = generate_key(dev_b, small_opts(), &ev_b);
  EXPECT_EQ(ka.pub.n, kb.pub.n);  // default-certificate behaviour
}

// Keys are a pure function of the RandomSource stream: the candidates, the
// Miller-Rabin bases and the early exits all consume it in one fixed order.
// One digest over moduli from every source kind, both prime styles, two
// sizes and two sieve depths pins that order, so a kernel rewrite that
// draws one byte more or less (or accepts a different candidate) fails
// here before it shifts a corpus. The digest was recorded from the
// BigInt-vector Montgomery kernel that predates the span kernels.
TEST(Keygen, GoldenModuliPinDrawOrder) {
  crypto::Sha256 digest;
  std::size_t keys = 0;
  for (const std::size_t sieve : {std::size_t{2048}, std::size_t{16}}) {
    for (const PrimeStyle style : {PrimeStyle::kOpenSsl, PrimeStyle::kPlain}) {
      for (const std::size_t bits : {std::size_t{256}, std::size_t{512}}) {
        KeygenOptions opts = small_opts(style);
        opts.modulus_bits = bits;
        opts.sieve_primes = sieve;
        const std::uint64_t seed = bits + sieve + (style == PrimeStyle::kPlain);
        auto absorb = [&](const RsaPrivateKey& key) {
          ASSERT_TRUE(key.is_consistent());
          digest.update(key.pub.n.to_hex() + "\n");
          ++keys;
        };

        PrngRandomSource prng(seed);
        for (int i = 0; i < 2; ++i) absorb(generate_key(prng, opts));

        for (const int divergence : {40, -1}) {
          const rng::RngFlawModel flaw{.boot_entropy_bits = 8,
                                       .divergence_entropy_bits = divergence};
          rng::SimulatedUrandom dev("golden-fw", flaw, seed, seed * 31);
          KeygenEvents events{[&dev](int i) {
            if (i == 1) dev.stir_divergence_event();
          }};
          absorb(generate_key(dev, opts, &events));
        }
      }
    }
  }
  EXPECT_EQ(keys, 32u);
  EXPECT_EQ(crypto::digest_hex(digest.finish()),
            "1c4050ecae86f6123d5ae5027a9029a8d3a346c156772083c61320d2f760335c");
}

// ------------------------------------------------------------- IBM ----

TEST(IbmNinePrimes, PoolProperties) {
  const IbmNinePrimeGenerator gen(256, 42);
  EXPECT_EQ(gen.primes().size(), 9u);
  const auto moduli = gen.possible_moduli();
  EXPECT_EQ(moduli.size(), 36u);
  const std::set<std::string> unique(
      [&] {
        std::set<std::string> s;
        for (const auto& m : moduli) s.insert(m.to_hex());
        return s;
      }());
  EXPECT_EQ(unique.size(), 36u);
}

TEST(IbmNinePrimes, DeterministicByTag) {
  const IbmNinePrimeGenerator a(256, 42), b(256, 42), c(256, 43);
  EXPECT_EQ(a.primes(), b.primes());
  EXPECT_NE(a.primes(), c.primes());
}

TEST(IbmNinePrimes, GeneratedKeysStayInClique) {
  const IbmNinePrimeGenerator gen(256, 42);
  const auto moduli = gen.possible_moduli();
  PrngRandomSource rng(8);
  for (int i = 0; i < 20; ++i) {
    const RsaPrivateKey key = gen.generate(rng);
    EXPECT_TRUE(key.is_consistent());
    EXPECT_TRUE(std::find(moduli.begin(), moduli.end(), key.pub.n) !=
                moduli.end());
  }
}

// ------------------------------------------------------------ pkcs1 ----

class Pkcs1RoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Pkcs1RoundTrip, EncryptDecrypt) {
  PrngRandomSource rng(11);
  KeygenOptions opts = small_opts();
  opts.modulus_bits = GetParam();
  const RsaPrivateKey key = generate_key(rng, opts);

  const std::vector<std::uint8_t> message = {'s', 'e', 'c', 'r', 'e', 't'};
  const auto ciphertext = encrypt(key.pub, message, rng);
  EXPECT_EQ(ciphertext.size(), (GetParam() + 7) / 8);
  EXPECT_EQ(decrypt(key, ciphertext), message);
}

TEST_P(Pkcs1RoundTrip, SignVerify) {
  PrngRandomSource rng(12);
  KeygenOptions opts = small_opts();
  opts.modulus_bits = GetParam();
  const RsaPrivateKey key = generate_key(rng, opts);

  const std::vector<std::uint8_t> message = {'h', 'i'};
  const auto signature = sign(key, message);
  EXPECT_TRUE(verify(key.pub, message, signature));

  std::vector<std::uint8_t> tampered = message;
  tampered[0] ^= 1;
  EXPECT_FALSE(verify(key.pub, tampered, signature));

  auto bad_sig = signature;
  bad_sig.back() ^= 1;
  EXPECT_FALSE(verify(key.pub, message, bad_sig));
}

INSTANTIATE_TEST_SUITE_P(KeySizes, Pkcs1RoundTrip,
                         ::testing::Values(256, 384, 512));

TEST(Pkcs1, MessageTooLongRejected) {
  PrngRandomSource rng(13);
  const RsaPrivateKey key = generate_key(rng, small_opts());  // 32-byte k
  const std::vector<std::uint8_t> long_message(30, 'x');      // needs 41
  EXPECT_THROW(encrypt(key.pub, long_message, rng), std::invalid_argument);
}

TEST(Pkcs1, RawOpsRoundTrip) {
  PrngRandomSource rng(14);
  const RsaPrivateKey key = generate_key(rng, small_opts());
  const BigInt m(123456789);
  EXPECT_EQ(private_op(key, public_op(key.pub, m)), m);
  EXPECT_EQ(public_op(key.pub, private_op(key, m)), m);
  EXPECT_THROW(public_op(key.pub, key.pub.n), std::domain_error);
  EXPECT_THROW(private_op(key, -BigInt(1)), std::domain_error);
}

// The attack the paper warns about: recovering a private key from two
// moduli sharing a prime, then decrypting traffic.
TEST(Pkcs1, FactoredKeyDecryptsTraffic) {
  const rng::RngFlawModel flaw{.boot_entropy_bits = 2,
                               .divergence_entropy_bits = 40};
  rng::SimulatedUrandom dev_a("vuln-fw", flaw, 1, 10);
  rng::SimulatedUrandom dev_b("vuln-fw", flaw, 1, 20);
  KeygenEvents ev_a{[&dev_a](int i) { if (i == 1) dev_a.stir_divergence_event(); }};
  KeygenEvents ev_b{[&dev_b](int i) { if (i == 1) dev_b.stir_divergence_event(); }};
  const auto victim = generate_key(dev_a, small_opts(), &ev_a);
  const auto other = generate_key(dev_b, small_opts(), &ev_b);

  // Attacker sees only the two public keys.
  const BigInt p = bn::gcd(victim.pub.n, other.pub.n);
  ASSERT_GT(p, BigInt(1));
  const BigInt q = victim.pub.n / p;
  const RsaPrivateKey recovered = assemble_private_key(p, q, victim.pub.e);

  PrngRandomSource rng(15);
  const std::vector<std::uint8_t> session_key = {0xde, 0xad, 0xbe, 0xef};
  const auto ciphertext = encrypt(victim.pub, session_key, rng);
  EXPECT_EQ(decrypt(recovered, ciphertext), session_key);
}

TEST(AssemblePrivateKey, RejectsNonInvertibleExponent) {
  // e divides p-1 => not invertible mod lcm.
  const BigInt p(23), q(11);
  EXPECT_THROW(assemble_private_key(p, q, BigInt(11)), std::domain_error);
}

}  // namespace
}  // namespace weakkeys::rsa
