// Figure 2 + Section 3.2: the distributed batch-GCD computation.
//
// Reproduces the three quantitative claims:
//   1. batch GCD is quasilinear while naive pairwise GCD is quadratic — the
//      crossover makes corpus-scale factoring feasible at all;
//   2. splitting into k subsets raises total work (each of the k rows
//      reduces the k - 1 other subset products at root size) but shrinks
//      the largest tree node ~k-fold (the central bottleneck the paper's
//      cluster parallelization removes);
//   3. the k-subset result is bit-identical to the single-tree result.
#include <chrono>
#include <cstdio>
#include <vector>

#include "analysis/report.hpp"
#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/distributed.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<weakkeys::bn::BigInt> make_corpus(std::size_t count,
                                              std::uint64_t seed) {
  using namespace weakkeys;
  rng::PrngRandomSource rng(seed);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 256;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.sieve_primes = 256;  // cheap synthetic corpus
  opts.miller_rabin_rounds = 4;
  std::vector<bn::BigInt> moduli;
  moduli.reserve(count);
  // 1% planted shared primes so the outputs are nontrivial.
  bn::BigInt shared = rsa::generate_prime(rng, 128, opts);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 100 == 99) {
      moduli.push_back(shared * rsa::generate_prime(rng, 128, opts));
    } else {
      moduli.push_back(rsa::generate_key(rng, opts).pub.n);
    }
  }
  return moduli;
}

}  // namespace

int main() {
  using namespace weakkeys;

  // --- Part 1: naive-vs-batch crossover -------------------------------
  std::printf("== Figure 2 / Section 3.2: batch GCD computation ==\n");
  std::printf("\n-- naive O(n^2) pairwise GCD vs quasilinear batch GCD --\n");
  analysis::TextTable crossover({"moduli", "naive (s)", "batch (s)", "speedup"});
  for (const std::size_t n : {128u, 256u, 512u, 1024u, 2048u}) {
    const auto corpus = make_corpus(n, 7000 + n);
    auto start = Clock::now();
    const auto naive = batchgcd::naive_pairwise_gcd(corpus);
    const double naive_s = seconds_since(start);
    start = Clock::now();
    const auto batch = batchgcd::batch_gcd(corpus);
    const double batch_s = seconds_since(start);
    if (naive.divisors != batch.divisors) {
      std::printf("MISMATCH at n=%zu\n", n);
      return 1;
    }
    char naive_buf[32], batch_buf[32], speed_buf[32];
    std::snprintf(naive_buf, sizeof naive_buf, "%.3f", naive_s);
    std::snprintf(batch_buf, sizeof batch_buf, "%.3f", batch_s);
    std::snprintf(speed_buf, sizeof speed_buf, "%.1fx", naive_s / batch_s);
    crossover.add_row({std::to_string(n), naive_buf, batch_buf, speed_buf});
  }
  std::printf("%s", crossover.render().c_str());

  // --- Part 2: k-subset sweep -------------------------------------------
  std::printf("\n-- k-subset distributed variant (fixed corpus of 4096) --\n");
  const auto corpus = make_corpus(4096, 99);
  const auto reference = batchgcd::batch_gcd(corpus);
  util::ThreadPool pool(0);
  analysis::TextTable sweep({"k", "root reductions", "max node (limbs)",
                             "total tree (limbs)", "wall (s)", "identical"});
  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u}) {
    batchgcd::DistributedStats stats;
    const auto start = Clock::now();
    const auto result = batchgcd::batch_gcd_distributed(corpus, k, &pool, &stats);
    const double wall = seconds_since(start);
    char wall_buf[32];
    std::snprintf(wall_buf, sizeof wall_buf, "%.3f", wall);
    sweep.add_row({std::to_string(k),
                   std::to_string(stats.subsets * (stats.subsets - 1)),
                   std::to_string(stats.max_node_limbs),
                   std::to_string(stats.total_tree_limbs), wall_buf,
                   result.divisors == reference.divisors ? "yes" : "NO"});
  }
  std::printf("%s", sweep.render().c_str());
  std::printf(
      "shape check (paper): total work rises with k (k(k-1) root-size "
      "reductions) while the largest\nnode shrinks ~k-fold, which is what "
      "let the full 81M-key run finish in 86 min on a cluster\n(vs 500 min "
      "single-node).\n");
  return 0;
}
