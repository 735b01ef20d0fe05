#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/distributed.hpp"
#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "batchgcd/task_set.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::batchgcd {
namespace {

using bn::BigInt;

/// Corpus with planted structure: healthy keys, shared-prime pairs, one
/// triple star, and one duplicated modulus.
struct Corpus {
  std::vector<BigInt> moduli;
  std::vector<BigInt> primes;  // planted primes
  std::size_t healthy = 0;
};

Corpus make_corpus(std::size_t healthy_keys, std::uint64_t seed) {
  Corpus corpus;
  corpus.healthy = healthy_keys;
  rng::PrngRandomSource rng(seed);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.miller_rabin_rounds = 8;
  for (std::size_t i = 0; i < healthy_keys; ++i) {
    corpus.moduli.push_back(rsa::generate_key(rng, opts).pub.n);
  }
  for (int i = 0; i < 12; ++i) {
    corpus.primes.push_back(rsa::generate_prime(rng, 64, opts));
  }
  const auto& p = corpus.primes;
  corpus.moduli.push_back(p[0] * p[1]);  // pair sharing p[0]
  corpus.moduli.push_back(p[0] * p[2]);
  corpus.moduli.push_back(p[3] * p[4]);  // star of three sharing p[3]
  corpus.moduli.push_back(p[3] * p[5]);
  corpus.moduli.push_back(p[3] * p[6]);
  corpus.moduli.push_back(p[7] * p[8]);  // duplicate pair
  corpus.moduli.push_back(p[7] * p[8]);
  return corpus;
}

// --------------------------------------------------------- ProductTree ----

TEST(ProductTree, RootIsProduct) {
  const std::vector<BigInt> inputs = {BigInt(3), BigInt(5), BigInt(7), BigInt(11)};
  const ProductTree tree(inputs);
  EXPECT_EQ(tree.root(), BigInt(3 * 5 * 7 * 11));
  EXPECT_EQ(tree.leaf_count(), 4u);
  EXPECT_EQ(tree.levels().size(), 3u);
}

TEST(ProductTree, OddCountCarriesTrailingNode) {
  const std::vector<BigInt> inputs = {BigInt(2), BigInt(3), BigInt(5)};
  const ProductTree tree(inputs);
  EXPECT_EQ(tree.root(), BigInt(30));
}

TEST(ProductTree, EmptyAndSingle) {
  const ProductTree empty(std::span<const BigInt>{});
  EXPECT_EQ(empty.root(), BigInt(1));
  EXPECT_EQ(empty.leaf_count(), 0u);

  const std::vector<BigInt> one = {BigInt(42)};
  const ProductTree single(one);
  EXPECT_EQ(single.root(), BigInt(42));
}

TEST(ProductTree, StorageMetrics) {
  std::vector<BigInt> inputs(16, BigInt(1) << 63);
  const ProductTree tree(inputs);
  EXPECT_GT(tree.total_limbs(), 16u);
  // The largest node is the root: 16 * 64 bits = 16 limbs.
  EXPECT_EQ(tree.max_node_limbs(), 16u);
}

// ------------------------------------------------------ RemainderTree ----

TEST(RemainderTree, ComputesXModSquares) {
  const std::vector<BigInt> inputs = {BigInt(3), BigInt(5), BigInt(7), BigInt(11)};
  const ProductTree tree(inputs);
  const BigInt x = BigInt(123456789);
  const auto rem = remainder_tree_squares(tree, x);
  ASSERT_EQ(rem.size(), 4u);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(rem[i], x % inputs[i].squared());
  }
  EXPECT_THROW(remainder_tree_squares(tree, BigInt(-5)),
               std::invalid_argument);
}

// ----------------------------------------------------------- BatchGcd ----

TEST(BatchGcd, FindsPlantedSharedPrimes) {
  Corpus corpus = make_corpus(50, 2);
  const auto result = batch_gcd(corpus.moduli);
  const auto& d = result.divisors;
  const std::size_t h = corpus.healthy;

  for (std::size_t i = 0; i < h; ++i) {
    EXPECT_EQ(d[i], BigInt(1)) << "healthy key " << i << " flagged";
  }
  EXPECT_EQ(d[h + 0], corpus.primes[0]);
  EXPECT_EQ(d[h + 1], corpus.primes[0]);
  EXPECT_EQ(d[h + 2], corpus.primes[3]);
  EXPECT_EQ(d[h + 3], corpus.primes[3]);
  EXPECT_EQ(d[h + 4], corpus.primes[3]);
  // Duplicates report the whole modulus.
  EXPECT_EQ(d[h + 5], corpus.moduli[h + 5]);
  EXPECT_EQ(d[h + 6], corpus.moduli[h + 6]);

  EXPECT_EQ(result.vulnerable_indices().size(), 7u);
}

TEST(BatchGcd, EmptyAndSingleInput) {
  EXPECT_TRUE(batch_gcd({}).divisors.empty());
  const std::vector<BigInt> one = {BigInt(77)};
  const auto result = batch_gcd(one);
  ASSERT_EQ(result.divisors.size(), 1u);
  EXPECT_EQ(result.divisors[0], BigInt(1));
}

TEST(BatchGcd, NaiveMatchesTree) {
  Corpus corpus = make_corpus(40, 3);
  const auto tree = batch_gcd(corpus.moduli);
  const auto naive = naive_pairwise_gcd(corpus.moduli);
  EXPECT_EQ(tree.divisors, naive.divisors);
}

class DistributedEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistributedEquivalence, MatchesSingleTree) {
  Corpus corpus = make_corpus(60, 4);
  const auto reference = batch_gcd(corpus.moduli);
  util::ThreadPool pool(3);
  DistributedStats stats;
  const auto distributed =
      batch_gcd_distributed(corpus.moduli, GetParam(), &pool, &stats);
  EXPECT_EQ(distributed.divisors, reference.divisors);
  EXPECT_EQ(stats.subsets, std::min(GetParam(), corpus.moduli.size()));
  EXPECT_EQ(stats.tasks, stats.subsets);  // one row per subset
}

INSTANTIATE_TEST_SUITE_P(SubsetCounts, DistributedEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 1000));

TEST(Distributed, SerialAndPooledAgree) {
  Corpus corpus = make_corpus(30, 5);
  const auto serial = batch_gcd_distributed(corpus.moduli, 4, nullptr);
  util::ThreadPool pool(4);
  const auto pooled = batch_gcd_distributed(corpus.moduli, 4, &pool);
  EXPECT_EQ(serial.divisors, pooled.divisors);
}

TEST(Distributed, MaxNodeShrinksWithK) {
  Corpus corpus = make_corpus(64, 6);
  DistributedStats k1, k8;
  (void)batch_gcd_distributed(corpus.moduli, 1, nullptr, &k1);
  (void)batch_gcd_distributed(corpus.moduli, 8, nullptr, &k8);
  // The whole point of the paper's Figure 2: the biggest node shrinks ~k-fold.
  EXPECT_LT(k8.max_node_limbs * 4, k1.max_node_limbs);
}

TEST(Distributed, CrossSubsetSharingDetected) {
  // Two moduli sharing a prime, forced into different subsets (k = n).
  rng::PrngRandomSource rng(7);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  const BigInt p = rsa::generate_prime(rng, 64, opts);
  const BigInt q1 = rsa::generate_prime(rng, 64, opts);
  const BigInt q2 = rsa::generate_prime(rng, 64, opts);
  std::vector<BigInt> moduli = {p * q1, rsa::generate_key(rng, opts).pub.n,
                                p * q2};
  const auto result = batch_gcd_distributed(moduli, moduli.size(), nullptr);
  EXPECT_EQ(result.divisors[0], p);
  EXPECT_EQ(result.divisors[2], p);
  EXPECT_EQ(result.divisors[1], BigInt(1));
}

// ------------------------------------------------------ ScaledDescent ----
//
// Differential tests of the division-free remainder walk: every leaf
// against plain division, and every batch-GCD engine against the naive
// pairwise baseline, over the shapes most likely to break fixed-point
// bookkeeping.

/// A random odd value of exactly `bits` bits.
BigInt odd_value(bn::RandomSource& rng, std::size_t bits) {
  BigInt v = bn::random_bits(rng, bits - 1) + (BigInt(1) << (bits - 1));
  return v.is_even() ? v + BigInt(1) : v;
}

/// Seeded adversarial modulus sets, by name.
std::vector<BigInt> shape(const std::string& name, std::uint64_t seed) {
  rng::PrngRandomSource rng(seed * 7919 + name.size());
  rsa::KeygenOptions opts;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.miller_rabin_rounds = 8;
  const auto prime = [&](std::size_t bits) {
    return rsa::generate_prime(rng, bits, opts);
  };
  std::vector<BigInt> out;
  if (name == "one_limb") {
    // 1-limb moduli, two pairs sharing a prime, and a 1-limb duplicate.
    for (int i = 0; i < 13; ++i) out.push_back(prime(32) * prime(32));
    const BigInt p = prime(32);
    out.push_back(p * prime(32));
    out.push_back(p * prime(32));
    out.push_back(out.front());
  } else if (name == "equal") {
    const BigInt n = prime(128) * prime(128);
    for (int i = 0; i < 6; ++i) out.push_back(n);
    out.push_back(prime(128) * prime(128));
  } else if (name == "all_share_both") {
    // Every modulus is a product of two primes of a 5-prime clique.
    std::vector<BigInt> primes;
    for (int i = 0; i < 5; ++i) primes.push_back(prime(96));
    for (std::size_t i = 0; i < primes.size(); ++i) {
      for (std::size_t j = i + 1; j < primes.size(); ++j) {
        out.push_back(primes[i] * primes[j]);
      }
    }
  } else if (name == "odd_count") {
    // 37 leaves: carried nodes on several levels.
    const BigInt p = prime(64);
    for (int i = 0; i < 35; ++i) out.push_back(prime(64) * prime(64));
    out.push_back(p * prime(64));
    out.push_back(p * prime(64));
  } else if (name == "mixed_bits") {
    // 64- to 4096-bit odd values, plus a shared prime across two sizes.
    for (std::size_t bits = 64; bits <= 4096; bits *= 2) {
      out.push_back(odd_value(rng, bits));
    }
    const BigInt p = prime(128);
    out.push_back(p * prime(128));
    out.push_back(p * odd_value(rng, 1900));
    out.push_back(odd_value(rng, 3000));
  }
  return out;
}

const std::vector<std::string>& shape_names() {
  static const std::vector<std::string> names = {
      "one_limb", "equal", "all_share_both", "odd_count", "mixed_bits"};
  return names;
}

/// Spill storage in a per-test directory, removed on destruction.
class ScratchSpill {
 public:
  ScratchSpill() {
    // A parameterized test's name holds a '/', which would nest the spill
    // directory inside one that remove_all() never reaches.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    storage_.spill_dir = "scaled_descent_" + name + "_" +
                         std::to_string(::getpid()) + ".d";
    storage_.spill_threshold_bytes = 0;  // always spill
  }
  ~ScratchSpill() { std::filesystem::remove_all(storage_.spill_dir); }
  ScratchSpill(const ScratchSpill&) = delete;
  ScratchSpill& operator=(const ScratchSpill&) = delete;

  [[nodiscard]] const TreeStorage& storage() const { return storage_; }

 private:
  TreeStorage storage_;
};

class ScaledDescent : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScaledDescent, EveryLeafMatchesDivision) {
  ScratchSpill spill;
  rng::PrngRandomSource rng(GetParam());
  const BigInt other = ProductTree(shape("mixed_bits", GetParam())).root();
  const BigInt multiplier = shape("odd_count", GetParam() + 1).front();
  for (const std::string& name : shape_names()) {
    const std::vector<BigInt> moduli = shape(name, GetParam());
    for (const bool spilled : {false, true}) {
      const ProductTree tree = spilled ? ProductTree(moduli, spill.storage())
                                       : ProductTree(moduli);
      ASSERT_EQ(tree.spilled(), spilled);
      const BigInt& root = tree.root();
      const std::size_t bits = root.bit_length();
      // The root itself, another product, multiples of the root by
      // quotients above 64 bits and above the root, values below and far
      // above root^2, and the degenerate ones.
      const std::vector<BigInt> xs = {
          root,
          multiplier * root + BigInt(12345),
          root * bn::random_bits(rng, 100),
          root * bn::random_bits(rng, bits + 64),
          bn::random_bits(rng, 2 * bits - 1),
          bn::random_bits(rng, 3 * bits + 100),
          root * root - BigInt(1),
          root + BigInt(1),
          BigInt(0),
          BigInt(1)};
      for (std::size_t xi = 0; xi < xs.size(); ++xi) {
        const BigInt& x = xs[xi];
        const auto rem = remainder_tree_squares(tree, x);
        ASSERT_EQ(rem.size(), moduli.size());
        for (std::size_t i = 0; i < moduli.size(); ++i) {
          ASSERT_EQ(rem[i], x % (moduli[i] * moduli[i]))
              << name << " spilled=" << spilled << " x#" << xi << " leaf "
              << i;
        }
      }
      // Rows: alone (X' = 1), and with one and two other products.
      const BigInt* others[] = {&other, &multiplier};
      for (std::size_t count = 0; count <= 2; ++count) {
        const auto row = std::span<const BigInt* const>(others, count);
        BigInt product(1);
        for (const BigInt* o : row) product = product * *o;
        const auto u = remainder_row_residues(tree, row);
        ASSERT_EQ(u.size(), moduli.size());
        for (std::size_t i = 0; i < moduli.size(); ++i) {
          ASSERT_EQ(u[i], (root / moduli[i] * product) % moduli[i])
              << name << " others=" << count << " leaf " << i;
        }
      }
    }
  }
  // A one-leaf tree over N1 and x = N1 * N2: the root divides x with a
  // quotient far above 64 bits.
  const BigInt n1 = shape("odd_count", GetParam()).front();
  const BigInt n2 = bn::random_bits(rng, 512);
  const ProductTree single(std::vector<BigInt>{n1});
  const auto rem = remainder_tree_squares(single, n1 * n2);
  ASSERT_EQ(rem.size(), 1U);
  EXPECT_EQ(rem[0], (n1 * n2) % (n1 * n1));
}

TEST_P(ScaledDescent, EveryEngineMatchesNaivePairwise) {
  ScratchSpill spill;
  util::ThreadPool pool(3);
  std::vector<BigInt> all;
  for (const std::string& name : shape_names()) {
    const std::vector<BigInt> moduli = shape(name, GetParam());
    all.insert(all.end(), moduli.begin(), moduli.end());
    EXPECT_EQ(batch_gcd(moduli).divisors,
              naive_pairwise_gcd(moduli).divisors)
        << name;
  }
  all.push_back(BigInt(3 * 5 * 7));
  const auto naive = naive_pairwise_gcd(all);
  EXPECT_EQ(batch_gcd(all).divisors, naive.divisors);
  EXPECT_EQ(batch_gcd(all, nullptr, &spill.storage()).divisors,
            naive.divisors);
  // k = 16 does not divide the corpus size; k = 3 leaves uneven subsets.
  ASSERT_NE(all.size() % 16, 0u);
  for (const std::size_t k : {1u, 2u, 3u, 16u}) {
    for (const bool spilled : {false, true}) {
      DistributedOptions options;
      if (spilled) options.storage = &spill.storage();
      EXPECT_EQ(
          batch_gcd_distributed(all, k, &pool, nullptr, options).divisors,
          naive.divisors)
          << "k=" << k << " spilled=" << spilled;
    }
  }
}

TEST(ScaledDescent, ConcurrentWalksShareOneLazyReciprocal) {
  // The root reciprocal is built on first use under a once-flag; pool
  // tasks racing to that first use must all see the same value.
  const std::vector<BigInt> moduli = shape("odd_count", 9);
  const ProductTree tree(moduli);
  const BigInt& root = tree.root();
  util::ThreadPool pool(4);
  std::vector<std::vector<BigInt>> u(8);
  const BigInt* self[] = {&root};  // X' = root mod root = 0
  pool.parallel_for(u.size(), [&](std::size_t i) {
    u[i] = remainder_row_residues(
        tree, std::span<const BigInt* const>(self, i % 2));
  });
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    EXPECT_EQ(u[0][i], (root / moduli[i]) % moduli[i]);
    EXPECT_EQ(u[1][i], BigInt(0));
  }
  for (std::size_t i = 2; i < u.size(); ++i) EXPECT_EQ(u[i], u[i % 2]);
  EXPECT_EQ(tree.root_reciprocal(),
            (BigInt(1) << (2 * root.bit_length() + kFractionGuardBits)) /
                root);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaledDescent, ::testing::Values(0, 1, 2));

// ------------------------------------------------------ recover_factors ----

TEST(RecoverFactors, SplitsOnProperDivisor) {
  const BigInt n = BigInt(35), d = BigInt(5);
  const auto f = recover_factors(n, d);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->p, BigInt(5));
  EXPECT_EQ(f->q, BigInt(7));
}

TEST(RecoverFactors, RejectsTrivialAndTotal) {
  EXPECT_FALSE(recover_factors(BigInt(35), BigInt(1)).has_value());
  EXPECT_FALSE(recover_factors(BigInt(35), BigInt(35)).has_value());
  EXPECT_FALSE(recover_factors(BigInt(35), BigInt(4)).has_value());  // not a divisor
}

}  // namespace
}  // namespace weakkeys::batchgcd
