// Failure-injection and randomized property tests across module boundaries.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/distributed.hpp"
#include "cert/certificate.hpp"
#include "core/scan_store.hpp"
#include "core/study.hpp"
#include "netsim/catalog.hpp"
#include "netsim/internet.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/binary_io.hpp"
#include "util/prng.hpp"

namespace weakkeys {
namespace {

// ------------------------------------------------- scan store truncation ----

class StoreTruncation : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Unique per param: parallel ctest runs each instance as its own process
  // in the same directory, so a shared name would collide.
  const std::string path_ =
      "truncation_test_" + std::to_string(GetParam()) + ".tmp";
};

TEST_P(StoreTruncation, TruncatedFilesNeverCrash) {
  // Build one small dataset, save it, then chop the file at a fraction of
  // its length. Loading must return nullopt (or, only for the full file, the
  // dataset) — never throw, never crash.
  netsim::SimConfig sim;
  sim.seed = 11;
  sim.miller_rabin_rounds = 4;
  netsim::Internet net(netsim::standard_models(0.002), sim);
  const auto dataset = net.run(netsim::standard_campaigns());
  const core::StoreKey key{11, 2000, 4, 1};
  core::save_dataset(dataset, key, path_);

  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  const int percent = GetParam();
  const std::size_t keep = bytes.size() * static_cast<std::size_t>(percent) / 100;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
  }

  const auto loaded = core::load_dataset(key, path_);
  if (percent == 100) {
    EXPECT_TRUE(loaded.has_value());
  } else {
    EXPECT_FALSE(loaded.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(CutPoints, StoreTruncation,
                         ::testing::Values(0, 1, 5, 25, 50, 75, 95, 99, 100));

// ---------------------------------------------- factor cache corruption ----

/// StoreTruncation's counterpart for the factor-result cache: a truncated
/// or bit-flipped `*.cache.factors` file must fail the length+CRC footer
/// and fall back to recomputation, never crash, and recompute identically.
class FactorCacheCorruption : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    std::remove(kCachePath.c_str());
    std::remove(kFactorsPath.c_str());
    core::Study study(study_config());
    study.run();
    baseline_factored_ = study.factored().size();
    ASSERT_GT(baseline_factored_, 0u);
    std::ifstream in(kFactorsPath, std::ios::binary);
    pristine_.assign((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_FALSE(pristine_.empty());
  }
  static void TearDownTestSuite() {
    std::remove(kCachePath.c_str());
    std::remove(kFactorsPath.c_str());
  }

  static core::StudyConfig study_config() {
    core::StudyConfig config;
    config.sim.seed = 313;
    config.sim.scale = 0.01;
    config.sim.miller_rabin_rounds = 4;
    config.batch_gcd_subsets = 2;
    config.cache_path = kCachePath;
    return config;
  }

  void write_factors(const std::string& bytes) {
    std::ofstream out(kFactorsPath, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Unique per process: ctest runs each param instance as its own process
  // in a shared working directory, and every process rebuilds this cache in
  // SetUpTestSuite — a shared name lets them corrupt each other mid-run.
  static const std::string kCachePath;
  static const std::string kFactorsPath;
  static std::string pristine_;
  static std::size_t baseline_factored_;
};

const std::string FactorCacheCorruption::kCachePath =
    "factor_corruption_test_" + std::to_string(::getpid()) + ".tmp";
const std::string FactorCacheCorruption::kFactorsPath =
    FactorCacheCorruption::kCachePath + ".factors";
std::string FactorCacheCorruption::pristine_;
std::size_t FactorCacheCorruption::baseline_factored_ = 0;

// Params <= 100 truncate the file to that percentage; 101 flips a bit a
// third of the way in; 102 flips a bit inside the CRC footer.
TEST_P(FactorCacheCorruption, CorruptedCachesRecomputeIdentically) {
  const int param = GetParam();
  if (param <= 100) {
    const std::size_t keep =
        pristine_.size() * static_cast<std::size_t>(param) / 100;
    write_factors(pristine_.substr(0, keep));
  } else {
    const std::size_t offset =
        param == 101 ? pristine_.size() / 3 : pristine_.size() - 2;
    std::string flipped = pristine_;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x04);
    write_factors(flipped);
  }

  core::Study study(study_config());
  study.run();  // corpus cache hit; factor cache rejected unless intact
  EXPECT_EQ(study.factored().size(), baseline_factored_);
  for (const auto& f : study.factored()) {
    EXPECT_EQ(f.p * f.q, f.n);
  }
}

INSTANTIATE_TEST_SUITE_P(CorruptionModes, FactorCacheCorruption,
                         ::testing::Values(0, 30, 75, 99, 100, 101, 102));

TEST(ChecksumFooter, RoundTripAndTamperDetection) {
  const std::string path = "footer_test.tmp";
  {
    util::BinaryWriter w(path);
    w.str("payload bytes");
    w.u64(12345);
  }
  EXPECT_FALSE(util::verify_checksum_footer(path));  // no footer yet
  util::append_checksum_footer(path);
  EXPECT_TRUE(util::verify_checksum_footer(path));

  // Any flipped bit — payload or footer — must invalidate the file.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string tampered = bytes;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x10);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(tampered.data(), static_cast<std::streamsize>(tampered.size()));
    }
    EXPECT_FALSE(util::verify_checksum_footer(path)) << "byte " << i;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- certificate fuzzing ----

TEST(CertificateFuzz, CorruptedEncodingsThrowOrParse) {
  rng::PrngRandomSource key_rng(7);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 256;
  opts.miller_rabin_rounds = 6;
  const auto key = rsa::generate_key(key_rng, opts);
  cert::DistinguishedName dn;
  dn.add("CN", "fuzz-target");
  dn.add("O", "Fuzz Org");
  const cert::Certificate original = cert::make_self_signed(
      dn, {"a.example"}, {util::Date(2012, 1, 1), util::Date(2020, 1, 1)},
      key, 42);
  const auto encoded = original.encode();

  util::Xoshiro256 rng(99);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    auto corrupted = encoded;
    // 1-4 random byte mutations.
    const int mutations = 1 + static_cast<int>(rng.below(4));
    for (int m = 0; m < mutations; ++m) {
      corrupted[rng.below(corrupted.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    }
    try {
      const auto decoded = cert::Certificate::decode(corrupted);
      ++parsed;  // structurally valid mutation (e.g. flipped key byte)
      (void)decoded.fingerprint_hex();
    } catch (const std::exception&) {
      ++rejected;  // malformed: must be a clean failure, not UB
    }
  }
  EXPECT_EQ(parsed + rejected, 400);
  EXPECT_GT(rejected, 0);  // some mutations must break framing
  EXPECT_GT(parsed, 0);    // and some must survive (payload-only flips)
}

TEST(CertificateFuzz, TruncatedEncodingsRejected) {
  rng::PrngRandomSource key_rng(8);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 256;
  opts.miller_rabin_rounds = 6;
  const auto key = rsa::generate_key(key_rng, opts);
  cert::DistinguishedName dn;
  dn.add("CN", "x");
  const cert::Certificate original = cert::make_self_signed(
      dn, {}, {util::Date(2012, 1, 1), util::Date(2020, 1, 1)}, key, 1);
  const auto encoded = original.encode();
  for (std::size_t keep = 0; keep < encoded.size(); keep += 7) {
    const std::vector<std::uint8_t> cut(encoded.begin(),
                                        encoded.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)cert::Certificate::decode(cut), cert::TlvError)
        << "kept " << keep;
  }
}

// --------------------------------------- randomized batch-GCD agreement ----

class BatchGcdRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchGcdRandomized, AllAlgorithmsAgreeOnRandomStructure) {
  util::Xoshiro256 structure(GetParam());
  rng::PrngRandomSource rng(GetParam() * 7 + 1);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.sieve_primes = 128;
  opts.miller_rabin_rounds = 5;

  // Random mixture: healthy keys, shared-prime clusters of random width,
  // occasional duplicates.
  std::vector<bn::BigInt> moduli;
  while (moduli.size() < 70) {
    const double roll = structure.uniform();
    if (roll < 0.6) {
      moduli.push_back(rsa::generate_key(rng, opts).pub.n);
    } else if (roll < 0.9) {
      const bn::BigInt shared = rsa::generate_prime(rng, 64, opts);
      const std::size_t width = 2 + structure.below(4);
      for (std::size_t i = 0; i < width; ++i) {
        moduli.push_back(shared * rsa::generate_prime(rng, 64, opts));
      }
    } else {
      const bn::BigInt dup = rsa::generate_key(rng, opts).pub.n;
      moduli.push_back(dup);
      moduli.push_back(dup);
    }
  }

  const auto reference = batchgcd::naive_pairwise_gcd(moduli);
  EXPECT_EQ(batchgcd::batch_gcd(moduli).divisors, reference.divisors);
  const std::size_t k = 1 + structure.below(9);
  EXPECT_EQ(batchgcd::batch_gcd_distributed(moduli, k, nullptr).divisors,
            reference.divisors)
      << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchGcdRandomized,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------------ modular edges ----

TEST(ModularEdges, ModPowDegenerateInputs) {
  using bn::BigInt;
  EXPECT_EQ(bn::mod_pow(BigInt(5), BigInt(3), BigInt(1)), BigInt(0));
  EXPECT_EQ(bn::mod_pow(BigInt(0), BigInt(0), BigInt(7)), BigInt(1));  // 0^0 = 1
  EXPECT_EQ(bn::mod_pow(BigInt(-3), BigInt(2), BigInt(7)), BigInt(2));
  // (-3 mod 7) = 4; 4^3 = 64 = 1 (mod 7).
  EXPECT_EQ(bn::mod_pow(BigInt(-3), BigInt(3), BigInt(7)), BigInt(1));
  EXPECT_THROW(bn::mod_pow(BigInt(2), BigInt(-1), BigInt(7)), std::domain_error);
  EXPECT_THROW(bn::mod_pow(BigInt(2), BigInt(3), BigInt(0)), std::domain_error);
  EXPECT_THROW(bn::mod_pow(BigInt(2), BigInt(3), BigInt(-5)), std::domain_error);
}

TEST(ModularEdges, DivModEqualOperands) {
  using bn::BigInt;
  const auto [q, r] = BigInt::divmod(BigInt(17), BigInt(17));
  EXPECT_EQ(q, BigInt(1));
  EXPECT_EQ(r, BigInt(0));
  const auto [q2, r2] = BigInt::divmod(BigInt(16), BigInt(17));
  EXPECT_EQ(q2, BigInt(0));
  EXPECT_EQ(r2, BigInt(16));
}

}  // namespace
}  // namespace weakkeys
