// The passes after simulation (ingest, chain exclusion, divisor
// classification and the fingerprint scans) run on the run's pool. Their
// output must not depend on it: each is run here over one noisy corpus with
// no pool and with pools of 1, 2, 4 and 8 threads. The pooled runs also
// share one certificate index across the passes, as Study::run() does,
// while the serial run lets each call build its own. The certificate fact
// table built from their output is checked the same way.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <optional>
#include <string>
#include <vector>

#include "analysis/chains.hpp"
#include "analysis/facts.hpp"
#include "analysis/timeseries.hpp"
#include "batchgcd/batch_gcd.hpp"
#include "core/ingest.hpp"
#include "core/scan_store.hpp"
#include "core/study.hpp"
#include "crypto/sha256.hpp"
#include "fingerprint/ibm_clique.hpp"
#include "fingerprint/mitm_detector.hpp"
#include "fingerprint/prime_pools.hpp"
#include "fingerprint/subject_rules.hpp"
#include "netsim/catalog.hpp"
#include "netsim/internet.hpp"
#include "netsim/noise.hpp"
#include "rsa/ibm_nine_primes.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys {
namespace {

/// A catalog-scale corpus with Rapid7 intermediates, scan noise on top:
/// raw-byte records (truncated and bit-flipped), duplicate serials and
/// degenerate keys.
const netsim::ScanDataset& noisy_corpus() {
  static const netsim::ScanDataset corpus = [] {
    netsim::SimConfig config;
    config.seed = 4242;
    config.rapid7_intermediate_rate = 0.3;
    netsim::Internet net(netsim::standard_models(0.01), config);
    netsim::ScanDataset ds = net.run(netsim::standard_campaigns());
    netsim::NoiseConfig noise;
    noise.truncated_rate = 0.01;
    noise.bitflip_rate = 0.02;
    noise.zero_modulus_rate = 0.002;
    noise.even_modulus_rate = 0.002;
    noise.tiny_modulus_rate = 0.002;
    noise.bad_exponent_rate = 0.002;
    noise.inverted_validity_rate = 0.002;
    noise.duplicate_serial_rate = 0.01;
    netsim::apply_noise(ds, noise);
    return ds;
  }();
  return corpus;
}

/// SHA-256 of a dataset's scan-store bytes.
std::string digest(const netsim::ScanDataset& ds, const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pooled_passes_" + std::to_string(::getpid()) + "_" + tag + ".cache"))
          .string();
  core::save_dataset(ds, core::StoreKey{4242, 4000, 6, 1}, path);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  crypto::Sha256 sha;
  sha.update(bytes);
  return crypto::digest_hex(sha.finish());
}

std::vector<std::string> hex_of(const std::vector<bn::BigInt>& values) {
  std::vector<std::string> out;
  for (const auto& v : values) out.push_back(v.to_hex());
  return out;
}

/// Everything the passes produce, in a comparable form.
struct PassOutput {
  std::string kept_digest;
  std::string excluded_digest;
  core::IngestStats stats;
  std::vector<std::string> degenerate_moduli;
  std::vector<std::string> distinct_moduli;
  std::vector<std::string> factored;  // "n p q class", in pass order
  std::vector<std::size_t> full_modulus;
  std::vector<std::optional<fingerprint::VendorLabel>> labels;
  std::vector<std::string> mitm;  // "n ips subjects records factored"
};

PassOutput run_passes(std::optional<std::size_t> threads) {
  std::optional<util::ThreadPool> pool_storage;
  if (threads) pool_storage.emplace(*threads);
  util::ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;
  const util::CancellationToken token;
  const std::string tag = std::to_string(threads.value_or(0));

  PassOutput out;
  core::IngestResult ingest =
      core::ingest_dataset(noisy_corpus(), &token, pool);
  out.kept_digest = digest(ingest.kept, "kept" + tag);
  out.stats = ingest.stats;
  out.degenerate_moduli = hex_of(ingest.degenerate_moduli);

  const netsim::ScanDataset dataset =
      analysis::exclude_intermediates(std::move(ingest.kept), pool, &token);
  out.excluded_digest = digest(dataset, "excluded" + tag);

  const netsim::CertificateIndex index = netsim::index_certificates(dataset);
  const netsim::CertificateIndex* shared = pool ? &index : nullptr;
  const std::vector<bn::BigInt> moduli = dataset.distinct_moduli(shared);
  out.distinct_moduli = hex_of(moduli);
  const batchgcd::BatchGcdResult gcd = batchgcd::batch_gcd(moduli);
  const core::DivisorPass divisors =
      core::classify_divisors(moduli, gcd.divisors, pool, &token);
  for (const auto& f : divisors.factored) {
    out.factored.push_back(f.n.to_hex() + " " + f.p.to_hex() + " " +
                           f.q.to_hex() + " " +
                           fingerprint::to_string(f.divisor_class));
  }
  out.full_modulus = divisors.full_modulus;

  out.labels = fingerprint::SubjectRules::standard().classify_all(
      dataset, index, pool, &token);

  // Low thresholds, so the small corpus yields candidates.
  fingerprint::MitmOptions options;
  options.min_ips = 2;
  options.min_subjects = 2;
  std::vector<std::string> factored_hex;
  for (const auto& f : divisors.factored) factored_hex.push_back(f.n.to_hex());
  for (const auto& c : fingerprint::detect_fixed_key_mitm(
           dataset, factored_hex, options, pool, &token, shared)) {
    out.mitm.push_back(c.modulus.to_hex() + " " +
                       std::to_string(c.distinct_ips) + " " +
                       std::to_string(c.distinct_subjects) + " " +
                       std::to_string(c.records) + " " +
                       (c.ever_factored ? "1" : "0"));
  }
  return out;
}

TEST(PooledPasses, OutputIsIdenticalAcrossPoolSizes) {
  const PassOutput serial = run_passes(std::nullopt);
  // The corpus exercises every ordering rule the passes keep.
  EXPECT_GT(serial.stats.raw_recovered, 0u);
  EXPECT_GT(serial.stats.quarantined(core::QuarantineReason::kDuplicateSerial),
            0u);
  EXPECT_GT(serial.degenerate_moduli.size(), 1u);
  EXPECT_NE(serial.kept_digest, serial.excluded_digest);
  EXPECT_FALSE(serial.factored.empty());
  EXPECT_FALSE(serial.mitm.empty());
  std::size_t labeled = 0;
  for (const auto& label : serial.labels) labeled += label.has_value();
  EXPECT_GT(labeled, 0u);

  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const PassOutput pooled = run_passes(threads);
    EXPECT_EQ(pooled.kept_digest, serial.kept_digest);
    EXPECT_EQ(pooled.stats, serial.stats);
    EXPECT_EQ(pooled.degenerate_moduli, serial.degenerate_moduli);
    EXPECT_EQ(pooled.excluded_digest, serial.excluded_digest);
    EXPECT_EQ(pooled.distinct_moduli, serial.distinct_moduli);
    EXPECT_EQ(pooled.factored, serial.factored);
    EXPECT_EQ(pooled.full_modulus, serial.full_modulus);
    EXPECT_EQ(pooled.labels, serial.labels);
    EXPECT_EQ(pooled.mitm, serial.mitm);
  }
}

/// The corpus the fact table is built over: the noisy corpus after ingest
/// and chain exclusion, plus a degenerate-generator clique. Every HTTPS
/// snapshot gains hosts serving all 36 moduli of one nine-prime pool, every
/// third under a Siemens subject, so the clique label both overrides a
/// subject label and labels unnamed hosts.
const netsim::ScanDataset& fact_corpus() {
  static const netsim::ScanDataset corpus = [] {
    netsim::ScanDataset ds = analysis::exclude_intermediates(
        core::ingest_dataset(noisy_corpus()).kept);
    const rsa::IbmNinePrimeGenerator ibm(512, 7);
    std::vector<netsim::CertHandle> certs;
    for (const bn::BigInt& n : ibm.possible_moduli()) {
      auto c = std::make_shared<cert::Certificate>();
      c->serial = 0x1b30000 + certs.size();
      if (certs.size() % 3 == 0) {
        c->subject.add("O", "Siemens");
        c->subject.add("OU", "BACnet");
      } else {
        c->subject.add("CN", "rsa-ii-" + std::to_string(certs.size()));
      }
      c->issuer = c->subject;
      c->key.n = n;
      c->key.e = bn::BigInt(65537);
      certs.push_back(std::move(c));
    }
    for (auto& snap : ds.snapshots) {
      if (snap.protocol != netsim::Protocol::kHttps) continue;
      for (std::size_t i = 0; i < certs.size(); ++i) {
        snap.records.push_back(
            {netsim::Ipv4(0x0a0b0000 + static_cast<std::uint32_t>(i)),
             certs[i], ""});
      }
    }
    return ds;
  }();
  return corpus;
}

/// The fact table over fact_corpus(), from the passes that feed it run as
/// Study::run() runs them: subject labels and the divisor pass on `pool`,
/// the pairwise second pass, then each factored modulus settled by id
/// (clique flag, subject vendors, extrapolated vendor).
analysis::CertificateFacts corpus_facts(util::ThreadPool* pool,
                                        const util::CancellationToken& token) {
  const netsim::ScanDataset& ds = fact_corpus();
  netsim::CertificateIndex index = netsim::index_certificates(ds);
  const auto labels = fingerprint::SubjectRules::standard().classify_all(
      ds, index, pool, &token);
  const std::vector<bn::BigInt> moduli = ds.distinct_moduli(&index);
  core::DivisorPass divisors = core::classify_divisors(
      moduli, batchgcd::batch_gcd(moduli).divisors, pool, &token);
  std::vector<core::FactorRecord> factored = std::move(divisors.factored);
  for (const std::size_t i : divisors.full_modulus) {
    for (const std::size_t j : divisors.full_modulus) {
      if (i == j) continue;
      const bn::BigInt g = bn::gcd(moduli[i], moduli[j]);
      if (g > bn::BigInt(1) && g < moduli[i]) {
        factored.push_back({moduli[i], g, moduli[i] / g,
                            fingerprint::DivisorClass::kFullModulus,
                            static_cast<std::uint32_t>(i)});
        break;
      }
    }
  }

  std::vector<fingerprint::FactoredModulus> triples;
  for (const auto& f : factored) triples.push_back({f.p, f.q, f.n});
  std::vector<std::uint8_t> in_clique(index.moduli());
  for (const auto& c : fingerprint::find_degenerate_cliques(triples)) {
    for (const auto& n : c.moduli) in_clique[index.find_modulus(ds, n)] = 1;
  }
  std::vector<std::set<std::string>> vendors(index.moduli());
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (labels[i]) vendors[index.modulus_of[i]].insert(labels[i]->vendor);
  }
  fingerprint::PrimePools pools;
  for (const auto& f : factored) {
    if (in_clique[f.modulus] || vendors[f.modulus].size() != 1) continue;
    pools.add(*vendors[f.modulus].begin(), f.p);
    pools.add(*vendors[f.modulus].begin(), f.q);
  }
  std::vector<analysis::FactoredKey> keys;
  for (const auto& f : factored) {
    analysis::FactoredKey key{f.modulus, in_clique[f.modulus] != 0, ""};
    if (!key.clique && vendors[f.modulus].empty()) {
      key.extrapolated = pools.extrapolate(f.p, f.q);
    }
    keys.push_back(std::move(key));
  }
  return analysis::build_certificate_facts(std::move(index), labels, keys);
}

std::vector<std::string> rows_of(const analysis::VendorSeries& series) {
  std::vector<std::string> rows;
  for (const auto& p : series.points) {
    rows.push_back(series.vendor + "/" + series.model + " " +
                   p.date.to_string() + " " + p.source + " " +
                   std::to_string(p.total_hosts) + " " +
                   std::to_string(p.vulnerable_hosts));
  }
  return rows;
}

/// Every label id and vulnerable bit, and every series the facts yield.
struct FactsOutput {
  std::vector<fingerprint::VendorLabel> labels;
  std::vector<std::uint32_t> label_of;
  std::vector<std::uint8_t> vulnerable;
  std::vector<std::string> series;
};

FactsOutput build_facts(std::optional<std::size_t> threads) {
  std::optional<util::ThreadPool> pool_storage;
  if (threads) pool_storage.emplace(*threads);
  util::ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;
  const util::CancellationToken token;

  const analysis::CertificateFacts facts = corpus_facts(pool, token);
  FactsOutput out{facts.labels, facts.label_of, facts.vulnerable, {}};
  const analysis::TimeSeriesBuilder builder(fact_corpus(), facts);
  std::vector<analysis::VendorSeries> series = {builder.overall_series()};
  for (const auto& vendor : builder.vendors()) {
    series.push_back(builder.vendor_series(vendor));
  }
  for (const auto& label : facts.labels) {
    if (!label.model.empty()) {
      series.push_back(builder.vendor_series(label.vendor, label.model));
    }
  }
  for (const auto& s : series) {
    const auto rows = rows_of(s);
    out.series.insert(out.series.end(), rows.begin(), rows.end());
  }
  return out;
}

TEST(PooledPasses, FactsAreIdenticalAcrossPoolSizes) {
  const FactsOutput serial = build_facts(std::nullopt);
  // Subject, extrapolated and clique labels all occur.
  std::set<std::string> methods;
  for (const auto& label : serial.labels) methods.insert(label.method);
  EXPECT_TRUE(methods.contains("subject"));
  EXPECT_TRUE(methods.contains("shared-prime"));
  EXPECT_TRUE(methods.contains("prime-clique"));
  EXPECT_GT(std::count(serial.vulnerable.begin(), serial.vulnerable.end(), 1),
            0);
  EXPECT_GT(std::count(serial.label_of.begin(), serial.label_of.end(),
                       analysis::CertificateFacts::kUnlabeled),
            0);

  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const FactsOutput pooled = build_facts(threads);
    EXPECT_EQ(pooled.labels, serial.labels);
    EXPECT_EQ(pooled.label_of, serial.label_of);
    EXPECT_EQ(pooled.vulnerable, serial.vulnerable);
    EXPECT_EQ(pooled.series, serial.series);
  }
}

TEST(PooledPasses, CancelledTokenStopsEveryPass) {
  util::ThreadPool pool(2);
  util::CancellationToken token;
  token.cancel("test");
  EXPECT_THROW(core::ingest_dataset(noisy_corpus(), &token, &pool),
               util::Cancelled);
  EXPECT_THROW(analysis::exclude_intermediates(noisy_corpus(), &pool, &token),
               util::Cancelled);
}

}  // namespace
}  // namespace weakkeys
