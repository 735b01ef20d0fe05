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
#include <map>
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
  const std::vector<bn::BigInt> moduli = dataset.distinct_moduli(pool, shared);
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

/// The fact table's inputs over the noisy corpus, computed once without a
/// pool (the passes that produce them are checked above): the dataset, its
/// subject labels, and the factored moduli with their clique flags and
/// extrapolated vendors, found as Study::run() finds them.
struct FactInputs {
  netsim::ScanDataset dataset;
  std::vector<std::optional<fingerprint::VendorLabel>> labels;
  std::vector<analysis::FactoredKey> factored;
};

const FactInputs& fact_inputs() {
  static const FactInputs inputs = [] {
    FactInputs in;
    in.dataset = analysis::exclude_intermediates(
        core::ingest_dataset(noisy_corpus()).kept);
    const netsim::CertificateIndex index =
        netsim::index_certificates(in.dataset);
    in.labels =
        fingerprint::SubjectRules::standard().classify_all(in.dataset, index);
    const std::vector<bn::BigInt> moduli = in.dataset.distinct_moduli();
    const core::DivisorPass divisors = core::classify_divisors(
        moduli, batchgcd::batch_gcd(moduli).divisors);

    std::vector<fingerprint::FactoredModulus> triples;
    for (const auto& f : divisors.factored) triples.push_back({f.p, f.q, f.n});
    std::set<std::string> clique;
    for (const auto& c : fingerprint::find_degenerate_cliques(triples)) {
      for (const auto& n : c.moduli) clique.insert(n.to_hex());
    }
    std::map<std::string, std::set<std::string>> subject_vendors;
    for (std::size_t i = 0; i < index.size(); ++i) {
      if (!in.labels[i]) continue;
      subject_vendors[index.first_record(in.dataset, i).cert().key.n.to_hex()]
          .insert(in.labels[i]->vendor);
    }
    fingerprint::PrimePools pools;
    for (const auto& f : divisors.factored) {
      const auto it = subject_vendors.find(f.n.to_hex());
      if (clique.contains(f.n.to_hex()) || it == subject_vendors.end() ||
          it->second.size() != 1) {
        continue;
      }
      pools.add(*it->second.begin(), f.p);
      pools.add(*it->second.begin(), f.q);
    }
    for (const auto& f : divisors.factored) {
      analysis::FactoredKey key{f.n, clique.contains(f.n.to_hex()), ""};
      if (!key.clique && !subject_vendors.contains(f.n.to_hex())) {
        key.extrapolated = pools.extrapolate(f.p, f.q);
      }
      in.factored.push_back(std::move(key));
    }
    return in;
  }();
  return inputs;
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
  const FactInputs& in = fact_inputs();

  const analysis::CertificateFacts facts = analysis::build_certificate_facts(
      in.dataset, netsim::index_certificates(in.dataset), in.labels,
      in.factored, pool, &token);
  FactsOutput out{facts.labels, facts.label_of, facts.vulnerable, {}};
  const analysis::TimeSeriesBuilder builder(in.dataset, facts);
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
  // Subject and extrapolated labels both occur (this small corpus has no
  // clique; CertificateFacts.LabelPrecedence* covers that rule).
  std::set<std::string> methods;
  for (const auto& label : serial.labels) methods.insert(label.method);
  EXPECT_TRUE(methods.contains("shared-prime"));
  EXPECT_GT(methods.size(), 1u);
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
