// The dirty-corpus pipeline: noise injection, the ingest/quarantine stage,
// degenerate-modulus triage, and the end-to-end invariant that results on
// the clean subset are byte-identical to a noise-free run.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/ingest.hpp"
#include "core/study.hpp"
#include "fingerprint/divisor_class.hpp"
#include "netsim/noise.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"

namespace weakkeys::core {
namespace {

rsa::RsaPrivateKey test_key(std::uint64_t seed) {
  rng::PrngRandomSource rng(seed);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 256;
  opts.miller_rabin_rounds = 8;
  return rsa::generate_key(rng, opts);
}

cert::Certificate make_cert(std::uint64_t seed, std::uint64_t serial,
                            const std::string& cn) {
  cert::DistinguishedName dn;
  dn.add("CN", cn);
  return cert::make_self_signed(
      dn, {}, {util::Date(2012, 1, 1), util::Date(2022, 1, 1)},
      test_key(seed), serial);
}

netsim::HostRecord record_for(cert::Certificate c, std::uint32_t ip = 1) {
  netsim::HostRecord rec;
  rec.ip = netsim::Ipv4(ip);
  rec.certificate = std::make_shared<const cert::Certificate>(std::move(c));
  return rec;
}

using Undecoded = decltype(netsim::ScanSnapshot::undecoded);

/// One snapshot of `records`, with `undecoded` as its side list of wire
/// bytes (keyed by record index).
netsim::ScanDataset dataset_of(std::vector<netsim::HostRecord> records,
                               Undecoded undecoded = {}) {
  netsim::ScanSnapshot snap;
  snap.date = util::Date(2013, 6, 1);
  snap.source = "test";
  snap.records = std::move(records);
  snap.undecoded = std::move(undecoded);
  netsim::ScanDataset ds;
  ds.snapshots.push_back(std::move(snap));
  return ds;
}

// ------------------------------------------------------------- ingest ----

TEST(Ingest, CleanDatasetPassesThrough) {
  auto ds = dataset_of({record_for(make_cert(1, 10, "a")),
                        record_for(make_cert(2, 11, "b"))});
  const auto result = ingest_dataset(ds);
  EXPECT_EQ(result.stats.records_seen, 2u);
  EXPECT_EQ(result.stats.records_kept, 2u);
  EXPECT_EQ(result.stats.records_quarantined, 0u);
  EXPECT_EQ(result.kept.total_host_records(), 2u);
  EXPECT_TRUE(result.degenerate_moduli.empty());
}

TEST(Ingest, QuarantinesEachSemanticReason) {
  auto good = make_cert(3, 20, "good");

  auto zero = good;
  zero.key.n = bn::BigInt(0);
  auto tiny = good;
  tiny.key.n = bn::BigInt(12345);  // odd, far below 128 bits
  auto even = good;
  even.key.n = good.key.n - bn::BigInt(1);
  auto bad_e = good;
  bad_e.key.e = bn::BigInt(1);
  auto inverted = good;
  inverted.validity.not_after = inverted.validity.not_before.add_days(-30);
  // Same serial as `good` under a different subject: junk echoing a real key.
  auto dup = make_cert(4, 20, "scan-junk");

  auto ds = dataset_of({record_for(good), record_for(zero), record_for(tiny),
                        record_for(even), record_for(bad_e),
                        record_for(inverted), record_for(dup)});
  const auto result = ingest_dataset(ds);

  EXPECT_EQ(result.stats.records_kept, 1u);
  EXPECT_EQ(result.stats.records_quarantined, 6u);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kZeroModulus), 1u);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kTinyModulus), 1u);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kEvenModulus), 1u);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kBadExponent), 1u);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kInvertedValidity), 1u);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kDuplicateSerial), 1u);

  // The zero, tiny, and even moduli reroute to the divisor-class triage.
  EXPECT_EQ(result.stats.degenerate_moduli, 3u);
  ASSERT_EQ(result.degenerate_moduli.size(), 3u);

  const std::string summary = result.stats.summary();
  EXPECT_NE(summary.find("even-modulus=1"), std::string::npos) << summary;
  EXPECT_NE(summary.find("duplicate-serial=1"), std::string::npos) << summary;
}

TEST(Ingest, DegenerateModulusListedOnceAcrossCertificatesAndRawRecords) {
  const auto good = make_cert(8, 60, "host");
  const auto with = [&](std::uint64_t serial, const bn::BigInt& n) {
    auto c = good;
    c.serial = serial;
    c.key.n = n;
    return c;
  };
  const bn::BigInt even = good.key.n - bn::BigInt(1);
  const bn::BigInt tiny(12345);
  // Two certificate objects and a decoded raw record share the even
  // modulus; two raw records carry a tiny one no certificate object has.
  auto ds = dataset_of({record_for(with(61, even)), record_for(with(62, even)),
                        {}, {}, {}},
                       {{2, with(63, even).encode()},
                        {3, with(64, tiny).encode()},
                        {4, with(65, tiny).encode()}});
  const auto result = ingest_dataset(ds);
  EXPECT_EQ(result.stats.records_quarantined, 5u);
  EXPECT_EQ(result.degenerate_moduli, (std::vector<bn::BigInt>{even, tiny}));
}

TEST(Ingest, SameSerialSameSubjectIsKept) {
  // Per-observation variants (bit flips, MITM substitution) reuse the serial
  // under the victim's own subject and must not trip the duplicate check.
  auto variant = make_cert(5, 30, "victim");
  variant.key.n = variant.key.n + bn::BigInt(2);  // still odd, large
  auto ds =
      dataset_of({record_for(make_cert(5, 30, "victim")), record_for(variant)});
  const auto result = ingest_dataset(ds);
  EXPECT_EQ(result.stats.records_kept, 2u);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kDuplicateSerial), 0u);
}

TEST(Ingest, MissingCertificateQuarantined) {
  netsim::HostRecord empty;
  empty.ip = netsim::Ipv4(9);
  auto ds = dataset_of({std::move(empty)});
  const auto result = ingest_dataset(ds);
  EXPECT_EQ(result.stats.records_kept, 0u);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kMissingCertificate),
            1u);
}

TEST(Ingest, RawBytesRecoveredWhenValid) {
  const auto original = make_cert(6, 40, "raw-host");
  netsim::HostRecord raw;
  raw.ip = netsim::Ipv4(10);
  auto ds = dataset_of({std::move(raw)}, {{0, original.encode()}});

  const auto result = ingest_dataset(ds);
  EXPECT_EQ(result.stats.raw_records, 1u);
  EXPECT_EQ(result.stats.raw_recovered, 1u);
  EXPECT_EQ(result.stats.records_kept, 1u);
  const auto& rec = result.kept.snapshots.at(0).records.at(0);
  ASSERT_TRUE(rec.has_cert());
  EXPECT_EQ(rec.cert(), original);
  EXPECT_EQ(rec.ip, netsim::Ipv4(10));
}

TEST(Ingest, KeptDatasetCarriesNoUndecodedBytes) {
  // A recovered record, a garbage one and a clean one: whatever the bytes
  // became, the kept snapshots hold decoded certificates only.
  const auto original = make_cert(6, 40, "raw-host");
  auto garbage = original.encode();
  garbage.resize(3);
  auto ds = dataset_of({{}, {}, record_for(make_cert(9, 41, "clean"))},
                       {{0, original.encode()}, {1, std::move(garbage)}});
  const auto result = ingest_dataset(ds);
  EXPECT_EQ(result.stats.raw_records, 2u);
  EXPECT_EQ(result.stats.records_kept, 2u);
  ASSERT_EQ(result.kept.snapshots.size(), 1u);
  EXPECT_TRUE(result.kept.snapshots[0].undecoded.empty());
}

TEST(Ingest, SideListEntriesWithoutACertificateLessRecordAreIgnored) {
  // Entry 0 names a record that has a certificate and entry 9 names no
  // record; both carry bytes that would be quarantined (tiny modulus,
  // duplicate serial) if read. Ingest stays total and counts exactly as
  // without them.
  const auto original = make_cert(6, 40, "raw-host");
  auto tiny = make_cert(9, 41, "clean");
  tiny.key.n = bn::BigInt(12345);
  const auto records = [&] {
    return std::vector<netsim::HostRecord>{
        record_for(make_cert(9, 41, "clean")), {}};
  };
  const auto plain =
      ingest_dataset(dataset_of(records(), {{1, original.encode()}}));
  const auto stray = ingest_dataset(
      dataset_of(records(), {{0, tiny.encode()},
                             {1, original.encode()},
                             {9, make_cert(10, 41, "junk").encode()}}));
  EXPECT_EQ(stray.stats, plain.stats);
  EXPECT_EQ(stray.stats.records_kept, 2u);
  EXPECT_EQ(stray.stats.raw_records, 1u);
  EXPECT_TRUE(stray.degenerate_moduli.empty());
  ASSERT_EQ(stray.kept.total_host_records(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(stray.kept.snapshots[0].records[r].cert(),
              plain.kept.snapshots[0].records[r].cert());
  }
}

TEST(Ingest, RawGarbageQuarantinedByParseReason) {
  const auto bytes = make_cert(7, 50, "victim").encode();

  auto wrong_tag = bytes;
  wrong_tag[0] = 0x77;
  auto ds = dataset_of({{}, {}}, {{0, {bytes.begin(), bytes.begin() + 3}},
                                  {1, std::move(wrong_tag)}});

  const auto result = ingest_dataset(ds);
  EXPECT_EQ(result.stats.records_kept, 0u);
  EXPECT_EQ(result.stats.raw_records, 2u);
  EXPECT_EQ(result.stats.raw_recovered, 0u);
  EXPECT_EQ(
      result.stats.quarantined(QuarantineReason::kParseTruncatedHeader), 1u);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kParseBadTag), 1u);
  EXPECT_EQ(result.stats.parse_failures(), 2u);
}

// ------------------------------------------------------------- triage ----

TEST(Triage, DegenerateModuliLandInPaperBuckets) {
  using fingerprint::DivisorClass;
  using fingerprint::triage_degenerate_modulus;
  // Zero/one: pure corruption, the bit-error bucket.
  EXPECT_EQ(triage_degenerate_modulus(bn::BigInt(0)),
            DivisorClass::kSmoothBitError);
  EXPECT_EQ(triage_degenerate_modulus(bn::BigInt(1)),
            DivisorClass::kSmoothBitError);
  // Even or small-prime-divisible: smooth part nontrivial.
  EXPECT_EQ(triage_degenerate_modulus(bn::BigInt(1) << 200),
            DivisorClass::kSmoothBitError);
  EXPECT_EQ(triage_degenerate_modulus((bn::BigInt(1) << 200) + bn::BigInt(5)),
            DivisorClass::kSmoothBitError);  // divisible by 5
  // A large prime with no small factors (2^127 - 1 is prime): kOther.
  EXPECT_EQ(triage_degenerate_modulus((bn::BigInt(1) << 127) - bn::BigInt(1)),
            DivisorClass::kOther);
}

// -------------------------------------------------------------- noise ----

netsim::NoiseConfig busy_noise() {
  netsim::NoiseConfig noise;
  noise.truncated_rate = 0.05;
  noise.bitflip_rate = 0.05;
  noise.zero_modulus_rate = 0.03;
  noise.even_modulus_rate = 0.03;
  noise.tiny_modulus_rate = 0.03;
  noise.bad_exponent_rate = 0.03;
  noise.inverted_validity_rate = 0.03;
  noise.duplicate_serial_rate = 0.03;
  return noise;
}

netsim::ScanDataset sample_dataset() {
  std::vector<netsim::HostRecord> records;
  for (std::uint64_t i = 0; i < 40; ++i) {
    records.push_back(record_for(make_cert(100 + i, 100 + i, "host"),
                                 static_cast<std::uint32_t>(i)));
  }
  return dataset_of(std::move(records));
}

TEST(Noise, DeterministicFromSeed) {
  auto a = sample_dataset();
  auto b = sample_dataset();
  const auto noise = busy_noise();
  const auto sa = netsim::apply_noise(a, noise);
  const auto sb = netsim::apply_noise(b, noise);

  EXPECT_GT(sa.total(), 0u);
  EXPECT_EQ(sa.total(), sb.total());
  EXPECT_EQ(a.snapshots[0].undecoded, b.snapshots[0].undecoded);
  ASSERT_EQ(a.snapshots[0].records.size(), b.snapshots[0].records.size());
  for (std::size_t i = 0; i < a.snapshots[0].records.size(); ++i) {
    const auto& ra = a.snapshots[0].records[i];
    const auto& rb = b.snapshots[0].records[i];
    EXPECT_EQ(ra.ip, rb.ip);
    ASSERT_EQ(ra.has_cert(), rb.has_cert());
    if (ra.has_cert()) {
      EXPECT_EQ(ra.cert(), rb.cert());
    }
  }
}

TEST(Noise, AppendsJunkWithoutTouchingCleanRecords) {
  const auto before = sample_dataset();
  auto after = sample_dataset();
  const auto summary = netsim::apply_noise(after, busy_noise());

  const auto& orig = before.snapshots[0].records;
  const auto& noisy = after.snapshots[0].records;
  ASSERT_EQ(noisy.size(), orig.size() + summary.total());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_EQ(noisy[i].ip, orig[i].ip);
    EXPECT_EQ(noisy[i].cert(), orig[i].cert());
  }
  // Each wire-damage record is certificate-less, with its bytes in the
  // side list.
  const auto& undecoded = after.snapshots[0].undecoded;
  EXPECT_EQ(undecoded.size(), summary.raw_records());
  for (const auto& [r, der] : undecoded) {
    ASSERT_GE(r, orig.size());
    ASSERT_LT(r, noisy.size());
    EXPECT_FALSE(noisy[r].has_cert());
    EXPECT_FALSE(der.empty());
  }
}

TEST(Noise, FingerprintSeparatesConfigs) {
  netsim::NoiseConfig off;
  EXPECT_FALSE(off.any());
  EXPECT_EQ(off.fingerprint(), 0u);

  const auto on = busy_noise();
  ASSERT_TRUE(on.any());
  EXPECT_NE(on.fingerprint(), 0u);

  auto reseeded = on;
  reseeded.seed ^= 1;
  EXPECT_NE(on.fingerprint(), reseeded.fingerprint());
  auto rerated = on;
  rerated.bitflip_rate += 0.01;
  EXPECT_NE(on.fingerprint(), rerated.fingerprint());
}

TEST(Noise, InjectedCorruptionIsFullyAccountedFor) {
  auto ds = sample_dataset();
  const auto summary = netsim::apply_noise(ds, busy_noise());
  ASSERT_GT(summary.total(), 0u);
  const auto result = ingest_dataset(ds);

  // Every decoded-object injection maps to exactly its quarantine reason.
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kZeroModulus),
            summary.zero_modulus);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kTinyModulus),
            summary.tiny_modulus);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kBadExponent),
            summary.bad_exponent);
  EXPECT_EQ(result.stats.quarantined(QuarantineReason::kInvertedValidity),
            summary.inverted_validity);
  // Bit flips can land anywhere — a flipped subject byte yields a
  // same-serial/different-subject record, a flipped modulus bit an even
  // one — so these buckets are lower bounds, not equalities.
  EXPECT_GE(result.stats.quarantined(QuarantineReason::kDuplicateSerial),
            summary.duplicate_serial);
  EXPECT_GE(result.stats.quarantined(QuarantineReason::kEvenModulus),
            summary.even_modulus);

  // Wire-damage records either fail to parse, are quarantined semantically,
  // or decode cleanly and are recovered — nothing vanishes.
  EXPECT_EQ(result.stats.raw_records, summary.raw_records());
  EXPECT_EQ(result.stats.records_seen,
            sample_dataset().total_host_records() + summary.total());
  EXPECT_EQ(result.stats.records_quarantined + result.stats.records_kept,
            result.stats.records_seen);
  EXPECT_EQ(result.stats.records_quarantined + result.stats.raw_recovered,
            summary.total());
}

// ----------------------------------------------- dirty-corpus pipeline ----

TEST(StudyDirtyCorpus, NoisyRunMatchesCleanRunOnCleanSubset) {
  StudyConfig config;
  config.sim.seed = 991;
  config.sim.scale = 0.008;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 2;
  config.threads = 2;
  config.cache_path = "";

  Study clean(config);
  clean.run();
  EXPECT_EQ(clean.ingest_stats().records_quarantined, 0u);
  EXPECT_EQ(clean.ingest_stats().records_kept,
            clean.ingest_stats().records_seen);
  EXPECT_EQ(clean.noise_summary().total(), 0u);

  auto noisy_config = config;
  noisy_config.noise.truncated_rate = 0.01;
  noisy_config.noise.bitflip_rate = 0.01;
  noisy_config.noise.zero_modulus_rate = 0.005;
  noisy_config.noise.even_modulus_rate = 0.005;
  noisy_config.noise.tiny_modulus_rate = 0.005;
  noisy_config.noise.bad_exponent_rate = 0.005;
  noisy_config.noise.inverted_validity_rate = 0.005;
  noisy_config.noise.duplicate_serial_rate = 0.005;

  Study noisy(noisy_config);
  noisy.run();  // must complete without throwing on the dirty corpus

  const auto& summary = noisy.noise_summary();
  const auto& stats = noisy.ingest_stats();
  ASSERT_GT(summary.total(), 0u);
  EXPECT_GT(stats.records_quarantined, 0u);
  // Every injected corruption is accounted for: quarantined or recovered.
  EXPECT_EQ(stats.records_quarantined + stats.raw_recovered, summary.total());
  EXPECT_EQ(stats.quarantined(QuarantineReason::kZeroModulus),
            summary.zero_modulus);
  // Lower bound: bit flips in the subject bytes also land here.
  EXPECT_GE(stats.quarantined(QuarantineReason::kDuplicateSerial),
            summary.duplicate_serial);
  EXPECT_GT(stats.degenerate_moduli, 0u);

  // Degenerate moduli were triaged into the bit-error/other buckets.
  EXPECT_GE(noisy.factor_stats().bit_errors + noisy.factor_stats().other,
            clean.factor_stats().bit_errors + clean.factor_stats().other +
                stats.degenerate_moduli);

  // The headline result — the vulnerable set — is byte-identical on the
  // clean subset: junk never adds or removes a weak key.
  std::set<std::string> clean_vuln;
  for (const auto& f : clean.factored()) clean_vuln.insert(f.n.to_hex());
  std::set<std::string> noisy_vuln;
  for (const auto& f : noisy.factored()) noisy_vuln.insert(f.n.to_hex());
  EXPECT_EQ(clean_vuln, noisy_vuln);
  EXPECT_EQ(clean.vulnerable().size(), noisy.vulnerable().size());
  EXPECT_EQ(clean.factor_stats().shared_prime,
            noisy.factor_stats().shared_prime);
}

}  // namespace
}  // namespace weakkeys::core
