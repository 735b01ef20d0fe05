// Integration tests: the full pipeline on a small, freshly simulated corpus,
// plus the cache layer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/transitions.hpp"
#include "core/scan_store.hpp"
#include "core/study.hpp"
#include "crypto/sha256.hpp"
#include "fingerprint/openssl_fingerprint.hpp"
#include "netsim/catalog.hpp"
#include "util/binary_io.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::core {
namespace {

/// One shared small study for all pipeline assertions (building it is the
/// expensive part; the assertions are read-only).
class StudyIntegration : public ::testing::Test {
 protected:
  static StudyConfig config() {
    StudyConfig config;
    config.sim.seed = 424242;
    config.sim.scale = 0.03;
    config.sim.miller_rabin_rounds = 4;
    config.batch_gcd_subsets = 3;
    config.threads = 2;
    config.cache_path = "";  // always fresh
    return config;
  }
  static void SetUpTestSuite() {
    study_ = new Study(config());
    study_->run();
  }
  static void TearDownTestSuite() {
    delete study_;
    study_ = nullptr;
  }

  static Study* study_;
};

Study* StudyIntegration::study_ = nullptr;

TEST_F(StudyIntegration, CorpusHasExpectedShape) {
  const auto& stats = study_->factor_stats();
  EXPECT_GT(stats.distinct_moduli, 500u);
  EXPECT_GT(study_->dataset().total_host_records(), 10000u);
  // Some keys factored, but far from all.
  EXPECT_GT(study_->vulnerable().size(), 20u);
  EXPECT_LT(study_->vulnerable().size(), stats.distinct_moduli / 2);
}

TEST_F(StudyIntegration, FactoredKeysActuallyFactor) {
  for (const auto& f : study_->factored()) {
    EXPECT_EQ(f.p * f.q, f.n);
    EXPECT_GT(f.p, bn::BigInt(1));
    EXPECT_GT(f.q, bn::BigInt(1));
  }
}

TEST_F(StudyIntegration, GroundTruthAgreesWithFactoring) {
  // Every factored HTTPS modulus must belong to a device the simulation
  // marked flawed (or to the IBM pool family) — no false positives. The
  // simulation is deterministic, so simulating the study's SimConfig again
  // yields the devices behind its corpus.
  const netsim::SimConfig sim = config().sim;
  netsim::Internet net(netsim::standard_models(sim.scale), sim);
  util::ThreadPool pool(2);
  const netsim::ScanDataset corpus =
      net.run(netsim::standard_campaigns(), &pool);
  ASSERT_EQ(corpus.total_host_records(),
            study_->raw_dataset().total_host_records());
  std::set<std::string> flawed_moduli;
  std::set<std::string> all_moduli;
  for (const auto& device : net.devices()) {
    if (device.https_cert) {
      const std::string hex = device.https_cert->key.n.to_hex();
      all_moduli.insert(hex);
      if (device.flawed || device.model->uses_ibm_nine_primes) {
        flawed_moduli.insert(hex);
      }
    }
    if (device.ssh_cert) {
      const std::string hex = device.ssh_cert->key.n.to_hex();
      all_moduli.insert(hex);
      if (device.flawed) flawed_moduli.insert(hex);
    }
  }
  for (const auto& f : study_->factored()) {
    const std::string hex = f.n.to_hex();
    // Factored moduli not present in the device ground truth would indicate
    // the pipeline factored something corrupted or synthetic.
    if (all_moduli.contains(hex)) {
      EXPECT_TRUE(flawed_moduli.contains(hex))
          << "healthy device key factored: " << hex;
    }
  }
}

TEST_F(StudyIntegration, IbmCliqueDetected) {
  ASSERT_FALSE(study_->cliques().empty());
  const auto& top = study_->cliques().front();
  EXPECT_EQ(top.primes.size(), 9u);
  EXPECT_GE(top.density, 0.5);
  EXPECT_LE(top.moduli.size(), 36u);
}

TEST_F(StudyIntegration, LabelerUsesCliqueBeforeSubject) {
  // Every record carrying a clique modulus is labeled IBM, including
  // Siemens-subject certificates (the paper's Section 3.3.2 behaviour).
  const auto& facts = study_->facts();
  const auto& top = study_->cliques().front();
  std::set<std::string> clique_hex;
  for (const auto& n : top.moduli) clique_hex.insert(n.to_hex());

  std::size_t clique_records = 0;
  const auto& snapshots = study_->dataset().snapshots;
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    for (std::size_t r = 0; r < snapshots[s].records.size(); ++r) {
      if (!clique_hex.contains(snapshots[s].records[r].cert().key.n.to_hex())) {
        continue;
      }
      ++clique_records;
      const std::uint32_t label = facts.label_id(facts.cert(s, r));
      ASSERT_NE(label, analysis::CertificateFacts::kUnlabeled);
      EXPECT_EQ(facts.labels[label].vendor, "IBM");
      EXPECT_TRUE(facts.is_vulnerable(facts.cert(s, r)));
    }
  }
  EXPECT_GT(clique_records, 0u);
}

TEST_F(StudyIntegration, SeriesBuilderProducesJuniperSeries) {
  const auto builder = study_->series_builder();
  const auto series = builder.vendor_series("Juniper");
  ASSERT_FALSE(series.points.empty());
  EXPECT_GT(series.peak_total(), 0u);
}

TEST_F(StudyIntegration, VulnerableExcludesBitErrors) {
  // Bit-error divisors must not be counted as vulnerable keys.
  for (const auto& f : study_->factored()) {
    EXPECT_NE(f.divisor_class, fingerprint::DivisorClass::kSmoothBitError);
  }
}

// The reproduction's numbers at this seed and scale, pinned exactly: a
// rewrite of the factoring path (scheduler, arithmetic, journal) that moves
// any of them has changed the science, not just the bytes.
constexpr std::size_t kPinnedHostRecords = 81056;
constexpr std::size_t kPinnedDistinctModuli = 2858;
constexpr std::size_t kPinnedVulnerable = 270;
constexpr const char* kPinnedVulnerableSha256 =
    "9f507b71fbf5a2b4a7e62d700f36a3acf33b85eb489efdf2224fb9004aeb0bbe";
constexpr std::size_t kPinnedCliqueModuli = 28;

TEST_F(StudyIntegration, PinnedScienceIsReproducedExactly) {
  EXPECT_EQ(study_->raw_dataset().total_host_records(), kPinnedHostRecords);
  EXPECT_EQ(study_->factor_stats().distinct_moduli, kPinnedDistinctModuli);
  EXPECT_EQ(study_->vulnerable().size(), kPinnedVulnerable);

  std::vector<std::string> hex(study_->vulnerable().hex().begin(),
                               study_->vulnerable().hex().end());
  std::sort(hex.begin(), hex.end());
  crypto::Sha256 sha;
  for (const auto& h : hex) sha.update(h + "\n");
  EXPECT_EQ(crypto::digest_hex(sha.finish()), kPinnedVulnerableSha256);

  // The IBM nine-prime generator: 9 primes, at most C(9,2) = 36 moduli.
  ASSERT_FALSE(study_->cliques().empty());
  const auto& ibm = study_->cliques().front();
  EXPECT_EQ(ibm.primes.size(), 9u);
  EXPECT_EQ(ibm.moduli.size(), kPinnedCliqueModuli);
}

// Per-vendor figures at the same seed and scale: each labelled vendor's peak
// vulnerable-host count in one HTTPS scan, and the date of the first scan
// that saw a vulnerable host of that vendor ("never" when none did). The
// Huawei row is the paper's late onset (first vulnerable in April 2015; the
// monthly scans at this scale first catch one in May).
struct VendorPin {
  std::string vendor;
  std::size_t peak_vulnerable = 0;
  std::string onset;
  bool operator==(const VendorPin&) const = default;
};

void PrintTo(const VendorPin& pin, std::ostream* os) {
  *os << "{\"" << pin.vendor << "\", " << pin.peak_vulnerable << ", \""
      << pin.onset << "\"}";
}

const std::vector<VendorPin> kPinnedVendors = {
    {"ADTRAN", 2, "2015-07-15"},       {"Cisco", 38, "2010-07-15"},
    {"D-Link", 12, "2014-05-15"},      {"Dell", 7, "2010-07-15"},
    {"Fortinet", 6, "2010-07-15"},     {"Fritz!Box", 15, "2010-07-15"},
    {"Hewlett-Packard", 4, "2010-07-15"}, {"Huawei", 16, "2015-05-15"},
    {"IBM", 35, "2010-07-15"},         {"Innominate", 5, "2010-07-15"},
    {"Juniper", 17, "2010-07-15"},     {"Kronos", 2, "2010-07-15"},
    {"Linksys", 8, "2010-07-15"},      {"McAfee", 0, "never"},
    {"Sangfor", 1, "2015-01-15"},      {"Schmid Telecom", 2, "2013-03-15"},
    {"Siemens", 0, "never"},           {"TP-LINK", 32, "2010-07-15"},
    {"Thomson", 8, "2010-07-15"},      {"Xerox", 11, "2010-07-15"},
    {"ZyXEL", 8, "2010-07-15"},
};

TEST_F(StudyIntegration, PinnedVendorPeaksAndOnsetsAreReproducedExactly) {
  const auto builder = study_->series_builder();
  std::vector<VendorPin> actual;
  for (const auto& vendor : builder.vendors()) {
    const auto series = builder.vendor_series(vendor);
    const auto onset = std::find_if(
        series.points.begin(), series.points.end(),
        [](const analysis::SeriesPoint& p) { return p.vulnerable_hosts > 0; });
    actual.push_back({vendor, series.peak_vulnerable(),
                      onset == series.points.end() ? "never"
                                                   : onset->date.to_string()});
  }
  std::sort(actual.begin(), actual.end(),
            [](const VendorPin& a, const VendorPin& b) {
              return a.vendor < b.vendor;
            });
  EXPECT_EQ(actual, kPinnedVendors);
}

// Table 5 at the same seed and scale: each labelled vendor's OpenSSL
// fingerprint class over the primes recovered from its factored keys, with
// the factors tested and the factors satisfying the property, exactly as
// table5_openssl_fingerprint prints them (vendors with no factored key,
// McAfee and Siemens here, have no row). A change to the fingerprint rule,
// the labeler or the factoring that moves a vendor across the satisfy /
// do-not-satisfy split fails here.
struct Table5Pin {
  std::string vendor;
  std::string classification;
  std::size_t factors_tested = 0;
  std::size_t factors_satisfying = 0;
  bool operator==(const Table5Pin&) const = default;
};

void PrintTo(const Table5Pin& pin, std::ostream* os) {
  *os << "{\"" << pin.vendor << "\", \"" << pin.classification << "\", "
      << pin.factors_tested << ", " << pin.factors_satisfying << "}";
}

const std::vector<Table5Pin> kPinnedTable5 = {
    {"ADTRAN", "satisfies OpenSSL fingerprint", 4, 4},
    {"Cisco", "satisfies OpenSSL fingerprint", 94, 94},
    {"D-Link", "satisfies OpenSSL fingerprint", 26, 26},
    {"Dell", "satisfies OpenSSL fingerprint", 16, 16},
    {"Fortinet", "does not satisfy", 14, 1},
    {"Fritz!Box", "satisfies OpenSSL fingerprint", 40, 40},
    {"Hewlett-Packard", "satisfies OpenSSL fingerprint", 8, 8},
    {"Huawei", "does not satisfy", 32, 1},
    {"IBM", "satisfies OpenSSL fingerprint", 56, 56},
    {"Innominate", "satisfies OpenSSL fingerprint", 14, 14},
    {"Juniper", "does not satisfy", 40, 4},
    {"Kronos", "does not satisfy", 4, 0},
    {"Linksys", "satisfies OpenSSL fingerprint", 16, 16},
    {"Sangfor", "satisfies OpenSSL fingerprint", 4, 4},
    {"Schmid Telecom", "satisfies OpenSSL fingerprint", 4, 4},
    {"TP-LINK", "satisfies OpenSSL fingerprint", 100, 100},
    {"Thomson", "satisfies OpenSSL fingerprint", 16, 16},
    {"Xerox", "does not satisfy", 28, 12},
    {"ZyXEL", "does not satisfy", 16, 0},
};

TEST_F(StudyIntegration, PinnedTable5SplitIsReproducedExactly) {
  std::vector<Table5Pin> actual;
  for (const auto& [vendor, primes] : study_->recovered_primes_by_vendor()) {
    if (vendor.rfind('_', 0) == 0) continue;  // background populations
    const auto verdict = fingerprint::classify_openssl(primes);
    actual.push_back({vendor, fingerprint::to_string(verdict.cls),
                      verdict.factors_tested, verdict.factors_satisfying});
  }
  std::sort(actual.begin(), actual.end(),
            [](const Table5Pin& a, const Table5Pin& b) {
              return a.vendor < b.vendor;
            });
  EXPECT_EQ(actual, kPinnedTable5);
}

TEST_F(StudyIntegration, RunIsIdempotent) {
  const std::size_t before = study_->factored().size();
  study_->run();
  EXPECT_EQ(study_->factored().size(), before);
}

TEST(StudyCache, SecondRunLoadsIdenticalResults) {
  const std::string cache = "study_cache_test.tmp";
  std::remove(cache.c_str());
  std::remove((cache + ".factors").c_str());

  StudyConfig config;
  config.sim.seed = 777;
  config.sim.scale = 0.01;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 2;
  config.cache_path = cache;

  Study first(config);
  first.run();
  const auto first_stats = first.factor_stats();
  const auto first_records = first.dataset().total_host_records();

  // Second study: must reload both caches and agree exactly.
  Study second(config);
  second.run();
  EXPECT_EQ(second.dataset().total_host_records(), first_records);
  EXPECT_EQ(second.factor_stats().distinct_moduli, first_stats.distinct_moduli);
  EXPECT_EQ(second.factored().size(), first.factored().size());
  EXPECT_EQ(second.vulnerable().size(), first.vulnerable().size());
  for (std::size_t i = 0; i < first.factored().size(); ++i) {
    EXPECT_EQ(second.factored()[i].n, first.factored()[i].n);
    EXPECT_EQ(second.factored()[i].p, first.factored()[i].p);
  }

  std::remove(cache.c_str());
  std::remove((cache + ".factors").c_str());
}

TEST(StudyCache, RebuildReasonIsLoggedAndExposed) {
  const std::string cache = "study_rebuild_reason_test.tmp";
  std::remove(cache.c_str());
  std::remove((cache + ".factors").c_str());

  StudyConfig config;
  config.sim.seed = 778;
  config.sim.scale = 0.005;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 2;
  config.cache_path = cache;

  {
    Study first(config);
    first.run();
    EXPECT_EQ(first.dataset_cache_status(), DatasetLoadStatus::kMissing);
  }

  // Corrupt the corpus cache: the CRC footer no longer verifies, and the
  // rebuild must say so instead of silently resimulating.
  {
    std::FILE* f = std::fopen(cache.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a scan store", f);
    std::fclose(f);
  }

  std::vector<std::string> lines;
  config.log = [&lines](const std::string& line) { lines.push_back(line); };
  Study second(config);
  second.run();
  EXPECT_EQ(second.dataset_cache_status(), DatasetLoadStatus::kBadChecksum);
  bool attributed = false;
  for (const auto& line : lines) {
    if (line.find("corpus cache unusable (checksum mismatch)") !=
        std::string::npos) {
      attributed = true;
    }
  }
  EXPECT_TRUE(attributed);

  std::remove(cache.c_str());
  std::remove((cache + ".factors").c_str());
}

// ---------------------------------------------------------- scan store ----

class ScanStoreTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(copy_.c_str());
  }
  // Unique per test: parallel ctest runs sibling tests as separate
  // processes in the same directory, so a shared name would collide.
  const std::string path_ =
      std::string("test_scan_store_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".tmp";
  const std::string copy_ = path_ + ".copy.tmp";
};

TEST_F(ScanStoreTest, RoundTripsDataset) {
  netsim::SimConfig sim;
  sim.seed = 5;
  sim.miller_rabin_rounds = 4;
  netsim::Internet net(netsim::standard_models(0.005), sim);
  const netsim::ScanDataset original = net.run(netsim::standard_campaigns());

  const StoreKey key{5, 5000, 4, 1};
  save_dataset(original, key, path_);
  const auto loaded = load_dataset(key, path_);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->snapshots.size(), original.snapshots.size());
  EXPECT_EQ(loaded->total_host_records(), original.total_host_records());
  EXPECT_EQ(netsim::index_certificates(*loaded).size(),
            netsim::index_certificates(original).size());
  for (std::size_t s = 0; s < original.snapshots.size(); ++s) {
    const auto& a = original.snapshots[s];
    const auto& b = loaded->snapshots[s];
    EXPECT_EQ(a.date, b.date);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.protocol, b.protocol);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      EXPECT_EQ(a.records[i].ip, b.records[i].ip);
      EXPECT_EQ(a.records[i].cert(), b.records[i].cert());
    }
  }
}

TEST_F(ScanStoreTest, LoadThenSaveReproducesTheFile) {
  netsim::SimConfig sim;
  sim.seed = 8;
  sim.miller_rabin_rounds = 4;
  netsim::Internet net(netsim::standard_models(0.003), sim);
  const StoreKey key{8, 3000, 4, 1};
  save_dataset(net.run(netsim::standard_campaigns()), key, path_);
  const auto loaded = load_dataset(key, path_);
  ASSERT_TRUE(loaded.has_value());
  save_dataset(*loaded, key, copy_);
  const auto written = util::read_file_bytes(path_);
  const auto rewritten = util::read_file_bytes(copy_);
  ASSERT_TRUE(written && rewritten);
  EXPECT_EQ(*written, *rewritten);
}

TEST_F(ScanStoreTest, RecordDatedOtherThanItsSnapshotIsAParseError) {
  // The format keeps a date field per record; it must repeat the
  // snapshot's, which is the only date a loaded record has.
  const auto cert = std::make_shared<cert::Certificate>();
  cert->key.n = bn::BigInt(35);
  cert->key.e = bn::BigInt(65537);
  netsim::ScanDataset ds;
  ds.snapshots.resize(1);
  ds.snapshots[0].date = util::Date(2014, 1, 15);
  ds.snapshots[0].records.push_back({netsim::Ipv4(1), cert, ""});
  const StoreKey key{9, 1000, 4, 1};
  save_dataset(ds, key, path_);
  DatasetLoadStatus status = DatasetLoadStatus::kMissing;
  ASSERT_TRUE(load_dataset(key, path_, &status).has_value());

  // The file ends with the record (date, ip, certificate slot, empty
  // banner) and the checksum footer; move the date one day on.
  auto bytes = *util::read_file_bytes(path_);
  bytes.resize(bytes.size() - util::kChecksumFooterSize);
  std::uint8_t* date = bytes.data() + bytes.size() - (8 + 4 + 4 + 4);
  std::int64_t day = 0;
  std::memcpy(&day, date, sizeof day);
  ASSERT_EQ(day, ds.snapshots[0].date.days_since_epoch());
  ++day;
  std::memcpy(date, &day, sizeof day);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  util::append_checksum_footer(path_);
  EXPECT_FALSE(load_dataset(key, path_, &status).has_value());
  EXPECT_EQ(status, DatasetLoadStatus::kParseError);
}

TEST_F(ScanStoreTest, KeyMismatchForcesRebuild) {
  netsim::SimConfig sim;
  sim.seed = 6;
  sim.miller_rabin_rounds = 4;
  netsim::Internet net(netsim::standard_models(0.003), sim);
  const netsim::ScanDataset original = net.run(netsim::standard_campaigns());
  save_dataset(original, StoreKey{6, 3000, 4, 1}, path_);

  EXPECT_FALSE(load_dataset(StoreKey{7, 3000, 4, 1}, path_).has_value());
  EXPECT_FALSE(load_dataset(StoreKey{6, 9999, 4, 1}, path_).has_value());
  EXPECT_FALSE(load_dataset(StoreKey{6, 3000, 4, 2}, path_).has_value());
  EXPECT_TRUE(load_dataset(StoreKey{6, 3000, 4, 1}, path_).has_value());
}

TEST_F(ScanStoreTest, MissingAndCorruptFilesReturnNullopt) {
  EXPECT_FALSE(load_dataset(StoreKey{}, "no_such_file.tmp").has_value());
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
  }
  EXPECT_FALSE(load_dataset(StoreKey{}, path_).has_value());
}

std::optional<std::string> getenv_value(const char* name) {
  const char* value = std::getenv(name);
  return value ? std::optional<std::string>(value) : std::nullopt;
}

/// Sets (or, with nullopt, unsets) one environment variable for a scope
/// and restores what was there before.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, std::optional<std::string> value)
      : name_(std::move(name)), before_(getenv_value(name_.c_str())) {
    if (value) {
      ::setenv(name_.c_str(), value->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ~ScopedEnv() {
    if (before_) {
      ::setenv(name_.c_str(), before_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> before_;
};

/// Every variable StudyConfig::from_env reads.
constexpr const char* kStudyEnvVars[] = {
    "WEAKKEYS_SCALE",          "WEAKKEYS_SEED",
    "WEAKKEYS_CACHE",          "WEAKKEYS_WORKERS",
    "WEAKKEYS_WORKER_BIN",     "WEAKKEYS_WORKER_PORT",
    "WEAKKEYS_REMOTE_WORKERS", "WEAKKEYS_TELEMETRY_INTERVAL_MS",
    "WEAKKEYS_FLEET_TRACE",    "WEAKKEYS_TRACE",
    "WEAKKEYS_PROFILE_HZ",     "WEAKKEYS_PROFILE_OUT",
    "WEAKKEYS_SPILL_DIR",
    "WEAKKEYS_SPILL_THRESHOLD_MB", "WEAKKEYS_SPILL_RAM_FALLBACK_MB",
};

/// Unsets every from_env variable for a scope, so the developer's shell
/// cannot leak into a test.
class CleanStudyEnv {
 public:
  CleanStudyEnv() {
    for (const char* name : kStudyEnvVars) {
      saved_.push_back(std::make_unique<ScopedEnv>(name, std::nullopt));
    }
  }

 private:
  std::vector<std::unique_ptr<ScopedEnv>> saved_;
};

TEST(StudyConfigEnv, NumericVariablesParseOrAreRejected) {
  CleanStudyEnv clean;
  struct Row {
    const char* name;
    const char* good;
    double parsed;  // the field's value after `good`
    const char* garbage;
    const char* out_of_range;
    std::function<double(const StudyConfig&)> field;
  };
  const std::vector<Row> rows = {
      {"WEAKKEYS_SCALE", "0.25", 0.25, "quarter", "-1",
       [](const StudyConfig& c) { return c.sim.scale; }},
      {"WEAKKEYS_SEED", "7", 7, "seven", "-1",
       [](const StudyConfig& c) { return static_cast<double>(c.sim.seed); }},
      {"WEAKKEYS_WORKERS", "4", 4, "four", "-1",
       [](const StudyConfig& c) { return c.worker_processes * 1.0; }},
      {"WEAKKEYS_WORKER_PORT", "7000", 7000, "port", "70000",
       [](const StudyConfig& c) { return c.worker_port * 1.0; }},
      {"WEAKKEYS_REMOTE_WORKERS", "2", 2, "two", "-2",
       [](const StudyConfig& c) { return c.remote_workers * 1.0; }},
      {"WEAKKEYS_TELEMETRY_INTERVAL_MS", "50", 50, "fast", "-5",
       [](const StudyConfig& c) { return c.telemetry_interval_ms * 1.0; }},
      {"WEAKKEYS_PROFILE_HZ", "43.5", 43.5, "not-a-number", "1e999",
       [](const StudyConfig& c) { return c.profile_hz; }},
      {"WEAKKEYS_SPILL_THRESHOLD_MB", "0", 0, "none", "-1",
       [](const StudyConfig& c) { return c.spill_threshold_mb * 1.0; }},
      {"WEAKKEYS_SPILL_RAM_FALLBACK_MB", "64", 64, "lots", "-1",
       [](const StudyConfig& c) { return c.spill_ram_fallback_mb * 1.0; }},
  };
  const StudyConfig defaults;
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    {
      ScopedEnv set(row.name, row.good);
      EXPECT_EQ(row.field(StudyConfig::from_env()), row.parsed);
    }
    {
      // Empty counts as unset: the base value stands.
      ScopedEnv set(row.name, "");
      EXPECT_EQ(row.field(StudyConfig::from_env()), row.field(defaults));
    }
    for (const char* bad : {row.garbage, row.out_of_range}) {
      SCOPED_TRACE(bad);
      ScopedEnv set(row.name, bad);
      try {
        (void)StudyConfig::from_env();
        ADD_FAILURE() << "accepted " << row.name << "=" << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(row.name), std::string::npos)
            << e.what();
      }
    }
  }
  // The unset environment leaves every default in place.
  for (const Row& row : rows) {
    EXPECT_EQ(row.field(StudyConfig::from_env()), row.field(defaults))
        << row.name;
  }
}

TEST(StudyConfigEnv, EnvironmentOverlaysTheBase) {
  CleanStudyEnv clean;
  StudyConfig base;
  base.sim.scale = 0.2;
  base.cache_path = "bench.cache";
  base.profile_out = "base.folded";
  EXPECT_EQ(StudyConfig::from_env(base).sim.scale, 0.2);
  EXPECT_EQ(StudyConfig::from_env(base).profile_out, "base.folded");

  ScopedEnv scale("WEAKKEYS_SCALE", "0.01");
  ScopedEnv out("WEAKKEYS_PROFILE_OUT", "/tmp/p.folded");
  ScopedEnv cache("WEAKKEYS_CACHE", "");  // a set empty path turns it off
  const StudyConfig resolved = StudyConfig::from_env(base);
  EXPECT_EQ(resolved.sim.scale, 0.01);
  EXPECT_EQ(resolved.profile_out, "/tmp/p.folded");
  EXPECT_EQ(resolved.cache_path, "");
}

StudyConfig tiny_config(std::uint64_t seed) {
  StudyConfig config;
  config.sim.seed = seed;
  config.sim.scale = 0.02;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 2;
  config.threads = 2;
  config.cache_path = "";
  return config;
}

TEST(StudyConfigEnv, StudyIgnoresTheEnvironment) {
  CleanStudyEnv clean;
  const std::string trace = ::testing::TempDir() + "study_ignores_env_" +
                            std::to_string(::getpid()) + ".json";
  std::filesystem::remove(trace);
  ScopedEnv workers("WEAKKEYS_WORKERS", "2");
  ScopedEnv trace_env("WEAKKEYS_TRACE", trace);
  {
    Study study(tiny_config(991));
    study.run();
    EXPECT_EQ(study.cluster_stats().tasks_executed, 0u);
    EXPECT_GT(study.distributed_stats().tasks, 0u);
  }
  EXPECT_FALSE(std::filesystem::exists(trace));
  EXPECT_FALSE(std::filesystem::exists(trace + ".metrics.json"));
}

#if defined(WEAKKEYS_GCD_WORKER_BIN)
TEST_F(StudyIntegration, ClusterPathMatchesInProcessPipeline) {
  // Same corpus, factoring routed through real worker processes over TCP:
  // the study must find exactly the same vulnerable keys.
  StudyConfig config;
  config.sim.seed = 424242;
  config.sim.scale = 0.03;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 3;
  config.cache_path = "";
  config.worker_processes = 2;
  config.worker_binary = WEAKKEYS_GCD_WORKER_BIN;
  Study clustered(config);
  clustered.run();

  EXPECT_GT(clustered.cluster_stats().workers_spawned, 0u);
  EXPECT_GT(clustered.cluster_stats().tasks_executed, 0u);
  const std::set<std::string> expected(study_->vulnerable().hex().begin(),
                                       study_->vulnerable().hex().end());
  const std::set<std::string> actual(clustered.vulnerable().hex().begin(),
                                     clustered.vulnerable().hex().end());
  EXPECT_EQ(actual, expected);
}

TEST_F(StudyIntegration, ClusterSpillGoesToWorkersAsFlagsNotEnvironment) {
  // The spill and profiler settings reach the workers on their
  // command line: the environment is the same after the run, the workers'
  // spill stores created spill_dir (in cluster mode only they build trees),
  // every worker wrote its own collapsed-stack file, and the vulnerable set
  // matches the in-RAM, in-process run.
  std::vector<std::pair<const char*, std::optional<std::string>>> env_before;
  for (const char* name : kStudyEnvVars) {
    env_before.emplace_back(name, getenv_value(name));
  }
  const std::string spill_dir = ::testing::TempDir() + "study_cluster_spill_" +
                                std::to_string(::getpid()) + ".d";
  const std::string profile_dir = spill_dir + ".profile";
  std::filesystem::remove_all(spill_dir);
  std::filesystem::remove_all(profile_dir);
  std::filesystem::create_directories(profile_dir);

  StudyConfig config;
  config.sim.seed = 424242;
  config.sim.scale = 0.03;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 3;
  config.cache_path = "";
  config.worker_processes = 2;
  config.worker_binary = WEAKKEYS_GCD_WORKER_BIN;
  config.spill_dir = spill_dir;
  config.spill_threshold_mb = 0;
  config.profile_hz = 97;
  config.profile_out = profile_dir + "/p.folded";
  Study clustered(config);
  clustered.run();

  for (const auto& [name, before] : env_before) {
    EXPECT_EQ(getenv_value(name), before) << name;
  }
  EXPECT_TRUE(std::filesystem::is_directory(spill_dir));
  for (std::size_t worker = 0; worker < config.worker_processes; ++worker) {
    const std::string folded =
        config.profile_out + ".worker" + std::to_string(worker);
    EXPECT_TRUE(std::filesystem::exists(folded) &&
                std::filesystem::file_size(folded) > 0)
        << folded;
  }
  const std::set<std::string> expected(study_->vulnerable().hex().begin(),
                                       study_->vulnerable().hex().end());
  const std::set<std::string> actual(clustered.vulnerable().hex().begin(),
                                     clustered.vulnerable().hex().end());
  EXPECT_EQ(actual, expected);
  std::filesystem::remove_all(spill_dir);
  std::filesystem::remove_all(profile_dir);
}
#endif

}  // namespace
}  // namespace weakkeys::core
