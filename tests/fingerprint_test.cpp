#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fingerprint/divisor_class.hpp"
#include "fingerprint/ibm_clique.hpp"
#include "fingerprint/mitm_detector.hpp"
#include "fingerprint/openssl_fingerprint.hpp"
#include "fingerprint/prime_pools.hpp"
#include "fingerprint/subject_rules.hpp"
#include "rng/prng_source.hpp"
#include "rsa/ibm_nine_primes.hpp"
#include "rsa/keygen.hpp"
#include "util/prng.hpp"

namespace weakkeys::fingerprint {
namespace {

using bn::BigInt;

cert::Certificate cert_with_subject(
    std::initializer_list<std::pair<const char*, const char*>> attrs,
    std::vector<std::string> sans = {}) {
  cert::Certificate c;
  for (const auto& [t, v] : attrs) c.subject.add(t, v);
  c.issuer = c.subject;
  c.san_dns = std::move(sans);
  c.key.n = BigInt(35);
  c.key.e = BigInt(65537);
  return c;
}

// ------------------------------------------------------- SubjectRules ----

TEST(SubjectRules, JuniperSystemGenerated) {
  const auto rules = SubjectRules::standard();
  const auto label =
      rules.classify(cert_with_subject({{"CN", "system generated"}}));
  ASSERT_TRUE(label);
  EXPECT_EQ(label->vendor, "Juniper");
}

TEST(SubjectRules, OrganizationWithModel) {
  const auto rules = SubjectRules::standard();
  const auto label = rules.classify(
      cert_with_subject({{"CN", "RV082"}, {"OU", "RV082"}, {"O", "Cisco"}}));
  ASSERT_TRUE(label);
  EXPECT_EQ(label->vendor, "Cisco");
  EXPECT_EQ(label->model, "RV082");
}

TEST(SubjectRules, McAfeeNeedsBanner) {
  const auto rules = SubjectRules::standard();
  const auto plain = cert_with_subject({{"CN", "Default Common Name"},
                                        {"OU", "Default Unit"},
                                        {"O", "Default Organization"}});
  EXPECT_FALSE(rules.classify(plain, ""));
  const auto label = rules.classify(plain, "SnapGear Management Console");
  ASSERT_TRUE(label);
  EXPECT_EQ(label->vendor, "McAfee");
  EXPECT_EQ(label->method, "banner");
}

TEST(SubjectRules, FritzboxDomainsAndSans) {
  const auto rules = SubjectRules::standard();
  const auto by_cn =
      rules.classify(cert_with_subject({{"CN", "a1b2c3.myfritz.net"}}));
  ASSERT_TRUE(by_cn);
  EXPECT_EQ(by_cn->vendor, "Fritz!Box");

  const auto by_san = rules.classify(
      cert_with_subject({{"CN", "something else"}}, {"fritz.box"}));
  ASSERT_TRUE(by_san);
  EXPECT_EQ(by_san->vendor, "Fritz!Box");
  EXPECT_EQ(by_san->method, "san");
}

TEST(SubjectRules, DellImagingGroup) {
  const auto rules = SubjectRules::standard();
  const auto label = rules.classify(cert_with_subject(
      {{"CN", "printer-1"}, {"OU", "Dell Imaging Group"}, {"O", "Dell Inc."}}));
  ASSERT_TRUE(label);
  EXPECT_EQ(label->vendor, "Dell");
}

TEST(SubjectRules, PlaceholderOrgsUnlabeled) {
  const auto rules = SubjectRules::standard();
  EXPECT_FALSE(rules.classify(
      cert_with_subject({{"CN", "x"}, {"O", "Customer Organization 17"}})));
  EXPECT_FALSE(rules.classify(
      cert_with_subject({{"CN", "x"}, {"O", "Default Organization"}})));
  EXPECT_FALSE(
      rules.classify(cert_with_subject({{"CN", "192.168.17.4"}})));
}

TEST(SubjectRules, BareIpDetection) {
  EXPECT_TRUE(subject_is_bare_ip(cert_with_subject({{"CN", "10.1.2.3"}})));
  EXPECT_FALSE(subject_is_bare_ip(cert_with_subject({{"CN", "host.name"}})));
  EXPECT_FALSE(subject_is_bare_ip(
      cert_with_subject({{"CN", "10.1.2.3"}, {"O", "Org"}})));
}

// ----------------------------------------------- OpenSSL fingerprint ----

TEST(OpensslFingerprint, DetectsGenerationStyle) {
  rng::PrngRandomSource rng(1);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 256;
  opts.miller_rabin_rounds = 8;

  opts.style = rsa::PrimeStyle::kOpenSsl;
  std::vector<BigInt> openssl_primes;
  for (int i = 0; i < 4; ++i) {
    openssl_primes.push_back(rsa::generate_prime(rng, 128, opts));
  }
  const auto openssl_verdict = classify_openssl(openssl_primes);
  EXPECT_EQ(openssl_verdict.cls, ImplementationClass::kLikelyOpenSsl);
  EXPECT_EQ(openssl_verdict.factors_satisfying, 4u);

  opts.style = rsa::PrimeStyle::kPlain;
  std::vector<BigInt> plain_primes;
  for (int i = 0; i < 24; ++i) {
    plain_primes.push_back(rsa::generate_prime(rng, 128, opts));
  }
  const auto plain_verdict = classify_openssl(plain_primes);
  EXPECT_EQ(plain_verdict.cls, ImplementationClass::kNotOpenSsl);
  // ~7.5% of random primes satisfy the property by chance.
  EXPECT_LT(plain_verdict.factors_satisfying, 12u);
}

TEST(OpensslFingerprint, InsufficientData) {
  EXPECT_EQ(classify_openssl({}).cls, ImplementationClass::kInsufficientData);
}

TEST(OpensslFingerprint, KnownSmallValues) {
  // 23 - 1 = 22 = 2*11: divisible by 2 => p % 2 == 1 fails the test... 23%2=1.
  EXPECT_FALSE(satisfies_openssl_fingerprint(BigInt(23), 16));
  // Large prime p where p-1 = 2*q with q prime ("safe prime"): satisfies for
  // any sieve bound below q. 1000000007 - 1 = 2 * 500000003 (500000003 prime)
  // ... but p % 2 == 1 always for odd p. The property checks p % q_i != 1,
  // and p odd => p % 2 == 1, so the first sieve prime (2) always "fails"?
  // No: OpenSSL's test skips 2 conceptually since p-1 is always even; our
  // implementation must therefore start at 3. Verified here:
  EXPECT_TRUE(satisfies_openssl_fingerprint(
      BigInt(std::uint64_t{1000000007ULL}), 4));
}

// --------------------------------------------------------- divisors ----

TEST(DivisorClass, SharedPrimeDetected) {
  rng::PrngRandomSource rng(2);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  const BigInt p = rsa::generate_prime(rng, 64, opts);
  const BigInt q = rsa::generate_prime(rng, 64, opts);
  const auto verdict = classify_divisor(p * q, p);
  EXPECT_EQ(verdict.cls, DivisorClass::kSharedPrime);
}

TEST(DivisorClass, FullModulusDetected) {
  const BigInt n(35);
  EXPECT_EQ(classify_divisor(n, n).cls, DivisorClass::kFullModulus);
}

TEST(DivisorClass, SmoothDivisorFlagsBitError) {
  const BigInt smooth = BigInt(2 * 3 * 5 * 7 * 11) * BigInt(13 * 17 * 19);
  const BigInt n = smooth * BigInt(1) + BigInt(0);
  const auto verdict = classify_divisor(n * BigInt(101), smooth);
  EXPECT_EQ(verdict.cls, DivisorClass::kSmoothBitError);
  EXPECT_EQ(verdict.smooth_part, smooth);
}

TEST(DivisorClass, TrivialDivisorIsOther) {
  EXPECT_EQ(classify_divisor(BigInt(35), BigInt(1)).cls, DivisorClass::kOther);
}

TEST(SmoothSplit, SeparatesSmoothPart) {
  const BigInt big_prime = BigInt::from_decimal("1000000000000000003");
  const BigInt x = BigInt(2 * 2 * 3 * 25) * big_prime;
  const auto split = smooth_split(x, 1000);
  EXPECT_EQ(split.smooth, BigInt(300));
  EXPECT_EQ(split.cofactor, big_prime);
}

TEST(SmoothSplit, FullySmoothValue) {
  const auto split = smooth_split(BigInt(720), 10);
  EXPECT_EQ(split.smooth, BigInt(720));
  EXPECT_EQ(split.cofactor, BigInt(1));
}

// smooth_split skips trial division when x shares no factor with the
// product of the primes <= bound. Against plain trial division by every
// integer up to the bound: primes of 128 and 256 bits alone, times 2^5 3^2,
// and times 99,991 (the largest prime <= 100,000) and 100,003 (the first
// above it), products of those two, small smooth values and random
// 256-bit values, at the bounds 10, 1,000 and 100,000.
TEST(SmoothSplit, GcdFilterMatchesTrialDivision) {
  const auto trial_split = [](const BigInt& x, std::uint32_t bound) {
    SmoothSplit out{BigInt(1), x.abs()};
    for (std::uint32_t d = 2; d <= bound && !out.cofactor.is_one(); ++d) {
      while (bn::mod_small(out.cofactor, d) == 0) {
        out.cofactor /= BigInt(std::uint64_t{d});
        out.smooth *= BigInt(std::uint64_t{d});
      }
    }
    return out;
  };
  rng::PrngRandomSource rng(39);
  rsa::KeygenOptions opts;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.modulus_bits = 256;
  const BigInt p128 = rsa::generate_prime(rng, 128, opts);
  opts.modulus_bits = 512;
  const BigInt p256 = rsa::generate_prime(rng, 256, opts);
  const BigInt below(99991);
  const BigInt above(100003);
  const BigInt smooth = BigInt(2 * 3 * 5 * 7 * 11) * BigInt(13 * 17 * 19);
  std::vector<BigInt> values = {p128,
                                p256,
                                BigInt(32 * 9) * p128,
                                BigInt(32 * 9) * p256,
                                below * p128,
                                above * p128,
                                below * above * p256,
                                below * below * above,
                                above,
                                BigInt(720),
                                BigInt(1),
                                smooth};
  util::Xoshiro256 words(39);
  for (std::uint64_t i = 0; i < 8; ++i) {
    BigInt v;
    for (int limb = 0; limb < 4; ++limb) v = (v << 64) + BigInt(words());
    values.push_back(v);
    values.push_back(v * BigInt(i + 2));
  }
  for (const std::uint32_t bound : {10u, 1000u, kSmoothBound}) {
    for (const BigInt& x : values) {
      const SmoothSplit got = smooth_split(x, bound);
      const SmoothSplit want = trial_split(x, bound);
      EXPECT_EQ(got.smooth, want.smooth) << x.to_hex() << " bound " << bound;
      EXPECT_EQ(got.cofactor, want.cofactor)
          << x.to_hex() << " bound " << bound;
    }
  }
  EXPECT_EQ(smooth_split(below * p128, kSmoothBound).smooth, below);
  EXPECT_TRUE(smooth_split(above * p128, kSmoothBound).smooth.is_one());
}

TEST(WellFormedness, ChecksNecessaryConditions) {
  EXPECT_FALSE(plausibly_well_formed(BigInt(4)));            // too small/even
  EXPECT_FALSE(plausibly_well_formed(BigInt(3 * 1000003)));  // small factor
  const BigInt p = BigInt::from_decimal("1000000000000000003");
  const BigInt q = BigInt::from_decimal("999999999999999989");
  EXPECT_TRUE(plausibly_well_formed(p * q));
}

// -------------------------------------------------------- PrimePools ----

TEST(PrimePools, ExtrapolatesUniqueOwner) {
  PrimePools pools;
  const BigInt p1(101), p2(103), q(9973);
  pools.add("VendorA", p1);
  pools.add("VendorA", p2);
  EXPECT_EQ(pools.extrapolate(p1, q), "VendorA");
  EXPECT_EQ(pools.extrapolate(q, p2), "VendorA");
  EXPECT_EQ(pools.extrapolate(q, q), "");  // unknown prime
  EXPECT_EQ(pools.pool_size("VendorA"), 2u);
  EXPECT_EQ(pools.pool_size("nobody"), 0u);
}

TEST(PrimePools, AmbiguousOwnersRejected) {
  PrimePools pools;
  pools.add("VendorA", BigInt(101));
  pools.add("VendorB", BigInt(103));
  EXPECT_EQ(pools.extrapolate(BigInt(101), BigInt(103)), "");
}

TEST(PrimePools, OverlapsReported) {
  PrimePools pools;
  pools.add("Dell", BigInt(101));
  pools.add("Xerox", BigInt(101));
  pools.add("Xerox", BigInt(103));
  const auto overlaps = pools.overlaps();
  ASSERT_EQ(overlaps.size(), 1u);
  EXPECT_EQ(overlaps[0].vendor_a, "Dell");
  EXPECT_EQ(overlaps[0].vendor_b, "Xerox");
  EXPECT_EQ(overlaps[0].shared_primes, 1u);
}

// --------------------------------------------------------- IBM clique ----

TEST(IbmClique, DetectsDegenerateGenerator) {
  const rsa::IbmNinePrimeGenerator gen(128, 7);
  std::vector<FactoredModulus> factored;
  const auto& primes = gen.primes();
  for (int i = 0; i < 9; ++i) {
    for (int j = i + 1; j < 9; ++j) {
      factored.push_back({primes[static_cast<std::size_t>(i)],
                          primes[static_cast<std::size_t>(j)],
                          primes[static_cast<std::size_t>(i)] *
                              primes[static_cast<std::size_t>(j)]});
    }
  }
  const auto cliques = find_degenerate_cliques(factored);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].primes.size(), 9u);
  EXPECT_EQ(cliques[0].moduli.size(), 36u);
  EXPECT_DOUBLE_EQ(cliques[0].density, 1.0);
}

TEST(IbmClique, StarsAreNotCliques) {
  // Five moduli all sharing one prime: density 2/(m+1), well under 0.75.
  rng::PrngRandomSource rng(3);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  const BigInt shared = rsa::generate_prime(rng, 64, opts);
  std::vector<FactoredModulus> factored;
  for (int i = 0; i < 5; ++i) {
    const BigInt q = rsa::generate_prime(rng, 64, opts);
    factored.push_back({shared, q, shared * q});
  }
  EXPECT_TRUE(find_degenerate_cliques(factored).empty());
}

TEST(IbmClique, DuplicateModuliCountedOnce) {
  const rsa::IbmNinePrimeGenerator gen(128, 7);
  const auto& p = gen.primes();
  std::vector<FactoredModulus> factored;
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 9; ++i) {
      for (int j = i + 1; j < 9; ++j) {
        factored.push_back({p[static_cast<std::size_t>(i)],
                            p[static_cast<std::size_t>(j)],
                            p[static_cast<std::size_t>(i)] *
                                p[static_cast<std::size_t>(j)]});
      }
    }
  }
  const auto cliques = find_degenerate_cliques(factored);
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0].moduli.size(), 36u);
}

// ------------------------------------------------------ MITM detector ----

TEST(MitmDetector, FlagsFixedKeyAcrossManyIps) {
  netsim::ScanDataset dataset;
  netsim::ScanSnapshot snap;
  snap.date = util::Date(2015, 1, 15);
  snap.source = "Censys";
  snap.protocol = netsim::Protocol::kHttps;

  const BigInt fixed_n(std::uint64_t{0x1234567887654321ULL});
  for (int i = 0; i < 12; ++i) {
    auto c = std::make_shared<cert::Certificate>();
    c->subject.add("CN", "device-" + std::to_string(i));
    c->issuer = c->subject;
    c->key.n = fixed_n;
    c->key.e = BigInt(65537);
    snap.records.push_back(netsim::HostRecord{
        netsim::Ipv4(static_cast<std::uint32_t>(0x0a000000 + i)), std::move(c),
        ""});
  }
  // One ordinary host, unique key.
  auto ordinary = std::make_shared<cert::Certificate>();
  ordinary->subject.add("CN", "unique");
  ordinary->issuer = ordinary->subject;
  ordinary->key.n = BigInt(std::uint64_t{0x9999999999ULL});
  ordinary->key.e = BigInt(65537);
  snap.records.push_back(
      netsim::HostRecord{netsim::Ipv4(0x0b000001), ordinary, ""});
  dataset.snapshots.push_back(std::move(snap));

  const auto candidates = detect_fixed_key_mitm(dataset, {}, MitmOptions{});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].modulus, fixed_n);
  EXPECT_EQ(candidates[0].distinct_ips, 12u);
  EXPECT_EQ(candidates[0].distinct_subjects, 12u);
  EXPECT_FALSE(candidates[0].ever_factored);
}

TEST(MitmDetector, FactoredCliqueMarked) {
  netsim::ScanDataset dataset;
  netsim::ScanSnapshot snap;
  snap.date = util::Date(2015, 1, 15);
  snap.source = "Censys";
  const BigInt clique_n(std::uint64_t{0xabcdef});
  for (int i = 0; i < 10; ++i) {
    auto c = std::make_shared<cert::Certificate>();
    c->subject.add("CN", "org-" + std::to_string(i));
    c->issuer = c->subject;
    c->key.n = clique_n;
    c->key.e = BigInt(65537);
    snap.records.push_back(netsim::HostRecord{
        netsim::Ipv4(static_cast<std::uint32_t>(0x0c000000 + i)), std::move(c),
        ""});
  }
  dataset.snapshots.push_back(std::move(snap));
  const auto candidates =
      detect_fixed_key_mitm(dataset, {clique_n.to_hex()}, MitmOptions{});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_TRUE(candidates[0].ever_factored);
}

TEST(MitmDetector, SameSubjectEverywhereNotFlagged) {
  // Identical default certificates (same subject) at many IPs: min_subjects
  // keeps them out.
  netsim::ScanDataset dataset;
  netsim::ScanSnapshot snap;
  snap.date = util::Date(2015, 1, 15);
  snap.source = "Censys";
  auto shared_cert = std::make_shared<cert::Certificate>();
  shared_cert->subject.add("CN", "Default Common Name");
  shared_cert->issuer = shared_cert->subject;
  shared_cert->key.n = BigInt(std::uint64_t{0x777777});
  shared_cert->key.e = BigInt(65537);
  for (int i = 0; i < 20; ++i) {
    snap.records.push_back(netsim::HostRecord{
        netsim::Ipv4(static_cast<std::uint32_t>(0x0d000000 + i)), shared_cert,
        ""});
  }
  dataset.snapshots.push_back(std::move(snap));
  EXPECT_TRUE(detect_fixed_key_mitm(dataset, {}, MitmOptions{}).empty());
}

TEST(MitmDetector, SharedIndexScansOnlyHttpsRecords) {
  // An SMTPS snapshot first: a fixed key of its own under many subjects,
  // and six of the HTTPS certificates below shown at other IPs. Neither
  // may reach the scan when the caller passes an index of every protocol.
  const auto make_cert = [](const std::string& cn, const BigInt& n) {
    auto c = std::make_shared<cert::Certificate>();
    c->subject.add("CN", cn);
    c->issuer = c->subject;
    c->key.n = n;
    c->key.e = BigInt(65537);
    return c;
  };
  const BigInt fixed_n(std::uint64_t{0x1234567887654321ULL});
  const BigInt mail_n(std::uint64_t{0x5555555555ULL});
  std::vector<std::shared_ptr<cert::Certificate>> https_certs;
  for (int i = 0; i < 12; ++i) {
    https_certs.push_back(make_cert("device-" + std::to_string(i), fixed_n));
  }
  netsim::ScanDataset dataset;
  netsim::ScanSnapshot mail;
  mail.date = util::Date(2015, 1, 15);
  mail.source = "Censys";
  mail.protocol = netsim::Protocol::kSmtps;
  for (int i = 0; i < 12; ++i) {
    mail.records.push_back(netsim::HostRecord{
        netsim::Ipv4(static_cast<std::uint32_t>(0x0e000000 + i)),
        make_cert("mail-" + std::to_string(i), mail_n), ""});
  }
  for (int i = 0; i < 6; ++i) {
    mail.records.push_back(netsim::HostRecord{
        netsim::Ipv4(static_cast<std::uint32_t>(0x0f000000 + i)),
        https_certs[i], ""});
  }
  netsim::ScanSnapshot web;
  web.date = util::Date(2015, 2, 15);
  web.source = "Censys";
  web.protocol = netsim::Protocol::kHttps;
  for (int i = 0; i < 12; ++i) {
    web.records.push_back(netsim::HostRecord{
        netsim::Ipv4(static_cast<std::uint32_t>(0x0a000000 + i)),
        https_certs[i], ""});
  }
  dataset.snapshots.push_back(std::move(mail));
  dataset.snapshots.push_back(std::move(web));

  const netsim::CertificateIndex index = netsim::index_certificates(dataset);
  const auto shared = detect_fixed_key_mitm(dataset, {}, MitmOptions{},
                                            nullptr, nullptr, &index);
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_EQ(shared[0].modulus, fixed_n);
  EXPECT_EQ(shared[0].distinct_ips, 12u);
  EXPECT_EQ(shared[0].records, 12u);
  EXPECT_EQ(shared[0].distinct_subjects, 12u);
  const auto own = detect_fixed_key_mitm(dataset, {}, MitmOptions{});
  ASSERT_EQ(own.size(), 1u);
  EXPECT_EQ(own[0].modulus, fixed_n);
  EXPECT_EQ(own[0].distinct_ips, 12u);
  EXPECT_EQ(own[0].records, 12u);
}

}  // namespace
}  // namespace weakkeys::fingerprint
