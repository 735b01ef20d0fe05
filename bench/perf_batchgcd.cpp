// Microbenchmarks for the batch-GCD machinery: the trees, the RAM-resident
// vs spilled remainder-tree ablation (the paper's key optimization over the
// original disk-spilling implementation), the k-subset in-process path with
// its journal and cancellation costs, and the observability overhead
// ablations on that path.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/distributed.hpp"
#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "bench_json.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace weakkeys;
using bn::BigInt;

const std::vector<BigInt>& corpus(std::size_t count) {
  static std::map<std::size_t, std::vector<BigInt>> cache;
  auto& moduli = cache[count];
  if (moduli.empty()) {
    rng::PrngRandomSource rng(1234);
    rsa::KeygenOptions opts;
    opts.modulus_bits = 256;
    opts.style = rsa::PrimeStyle::kPlain;
    opts.sieve_primes = 256;  // cheap synthetic corpus
    opts.miller_rabin_rounds = 4;
    moduli.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      moduli.push_back(rsa::generate_key(rng, opts).pub.n);
    }
  }
  return moduli;
}

/// Suite-wide telemetry: the enabled arms of the overhead ablations record
/// into it, and its metrics snapshot is embedded in BENCH_perf_batchgcd.json.
obs::Telemetry& bench_telemetry() {
  static obs::Telemetry telemetry(/*tracing_enabled=*/true);
  return telemetry;
}

void BM_ProductTree(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  std::uint64_t resident_peak = 0;
  {
    // Census build: per-level byte/node gauges into the suite metrics
    // snapshot (batchgcd.product_tree.level<k>.* + bytes_peak). An in-RAM
    // tree keeps every level, so its resident peak is Σ level bytes.
    batchgcd::ProductTree census(moduli);
    census.publish_level_stats(bench_telemetry().metrics());
    resident_peak = census.store().peak_resident_bytes();
  }
  for (auto _ : state) {
    batchgcd::ProductTree tree(moduli);
    benchmark::DoNotOptimize(tree.root());
  }
  state.counters["resident_peak_bytes"] = static_cast<double>(resident_peak);
}
BENCHMARK(BM_ProductTree)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BatchGcd(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(batchgcd::batch_gcd(moduli));
  }
}
BENCHMARK(BM_BatchGcd)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

void BM_NaivePairwise(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(batchgcd::naive_pairwise_gcd(moduli));
  }
}
BENCHMARK(BM_NaivePairwise)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// Ablation: remainder tree reading RAM-resident levels (this arm) vs
// streaming them back from a spilled tree (BM_RemainderTreeStreamed).
void BM_RemainderTreeRam(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  const batchgcd::ProductTree tree(moduli);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        batchgcd::remainder_tree_squares(tree, tree.root()));
  }
}
BENCHMARK(BM_RemainderTreeRam)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

/// Storage policy for the out-of-core arms: spill every level (threshold 0)
/// into a scratch dir next to the binary, two-level resident window.
batchgcd::TreeStorage bench_storage(const char* base) {
  batchgcd::TreeStorage storage;
  storage.spill_dir = "bench_spill.d";
  storage.spill_threshold_bytes = 0;
  storage.base = base;
  storage.registry = &bench_telemetry().metrics();
  return storage;
}

/// Out-of-core ablation of BM_ProductTree: the same build spilling every
/// level to a CRC-framed file with a two-level resident window. The
/// resident_peak_bytes counter is the bounded-memory proof — the store's
/// largest resident window, about one level's bytes, while tree_bytes is
/// every level; BM_ProductTree's resident peak is the whole tree. Time
/// deltas against the in-RAM arm price the spill I/O.
void BM_ProductTreeOutOfCore(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  const batchgcd::TreeStorage storage = bench_storage("bm_build");
  std::uint64_t tree_bytes = 0;
  std::uint64_t resident_peak = 0;
  for (auto _ : state) {
    batchgcd::ProductTree tree(moduli, storage);
    benchmark::DoNotOptimize(tree.root());
    tree_bytes = tree.retained_bytes();
    resident_peak = tree.store().peak_resident_bytes();
  }
  state.counters["resident_peak_bytes"] = static_cast<double>(resident_peak);
  state.counters["tree_bytes"] = static_cast<double>(tree_bytes);
}
BENCHMARK(BM_ProductTreeOutOfCore)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

/// Streamed remainder walk over a spilled tree: levels are re-read (and
/// CRC-verified) from disk as the walk descends, against
/// BM_RemainderTreeRam's resident levels: the paper's RAM-resident tree vs
/// a factorable.net-style disk tier.
void BM_RemainderTreeStreamed(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  const batchgcd::TreeStorage storage = bench_storage("bm_walk");
  const batchgcd::ProductTree tree(moduli, storage);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        batchgcd::remainder_tree_squares(tree, tree.root()));
  }
  state.counters["resident_peak_bytes"] =
      static_cast<double>(tree.store().peak_resident_bytes());
}
BENCHMARK(BM_RemainderTreeStreamed)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_DistributedK(benchmark::State& state) {
  const auto& moduli = corpus(2048);
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        batchgcd::batch_gcd_distributed(moduli, k, nullptr));
  }
}
BENCHMARK(BM_DistributedK)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

constexpr std::size_t kSubsets = 8;
constexpr std::size_t kThreads = 4;

/// The in-process k-subset path as Study runs it: k rows on a pool.
/// Pool construction is inside the loop, as in each Study factoring stage.
void BM_DistributedFastPath(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    util::ThreadPool pool(kThreads);
    benchmark::DoNotOptimize(
        batchgcd::batch_gcd_distributed(moduli, kSubsets, &pool));
  }
}
BENCHMARK(BM_DistributedFastPath)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/// Journaling cost: BM_DistributedFastPath/512 with every row appended to
/// a CRC-framed resume journal (one flushed record per row, deleted on
/// success), as a Study with a cache path runs it.
void BM_DistributedJournaled(benchmark::State& state) {
  const auto& moduli = corpus(static_cast<std::size_t>(state.range(0)));
  batchgcd::DistributedOptions options;
  options.journal_path = "perf_batchgcd_journal.tmp";
  for (auto _ : state) {
    util::ThreadPool pool(kThreads);
    benchmark::DoNotOptimize(batchgcd::batch_gcd_distributed(
        moduli, kSubsets, &pool, nullptr, options));
  }
  std::remove(options.journal_path.c_str());
}
BENCHMARK(BM_DistributedJournaled)->Arg(512)->Unit(benchmark::kMillisecond);

/// Time-to-quiescence after a cooperative cancel lands halfway: a canceller
/// thread watches the live `coordinator.tasks_executed` counter, trips the
/// token once half the k rows have committed, and manual time measures
/// trip -> batch_gcd_distributed unwinding with util::Cancelled (pool drain
/// + journal close). Bounded by the slowest in-flight row.
void BM_DistributedCancel(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  const auto& moduli = corpus(512);
  const double fraction = static_cast<double>(state.range(0)) / 100.0;
  util::ThreadPool pool(kThreads);
  for (auto _ : state) {
    obs::MetricsRegistry registry;
    auto& executed = registry.counter("coordinator.tasks_executed");
    util::CancellationToken token;
    batchgcd::DistributedOptions options;
    options.cancel = &token;
    options.registry = &registry;
    options.journal_path = "perf_batchgcd_cancel.tmp";
    const auto trip =
        static_cast<std::uint64_t>(fraction * kSubsets);
    std::atomic<std::int64_t> tripped_at_ns{0};
    std::atomic<bool> finished{false};
    std::thread canceller([&] {
      while (executed.value() < trip && !finished.load()) {
        std::this_thread::yield();
      }
      tripped_at_ns.store(clock::now().time_since_epoch().count());
      token.cancel("bench cancel");
    });
    try {
      batchgcd::batch_gcd_distributed(moduli, kSubsets, &pool, nullptr,
                                      options);
    } catch (const util::Cancelled&) {
    }
    finished.store(true);
    canceller.join();
    double elapsed_s = static_cast<double>(
                           clock::now().time_since_epoch().count() -
                           tripped_at_ns.load()) /
                       1e9;
    if (elapsed_s <= 0.0) elapsed_s = 1e-9;  // lost the race: already done
    state.SetIterationTime(elapsed_s);
    std::remove(options.journal_path.c_str());
  }
}
BENCHMARK(BM_DistributedCancel)
    ->Arg(50)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Telemetry overhead ablation: the in-process path publishing its
/// `coordinator.*` progress counters, tree census and thread-pool
/// instruments vs the identical run with no registry and an uninstrumented
/// pool. Arg: 0 = disabled, 1 = enabled. The acceptance bar is <= 5%
/// overhead for the enabled arm.
void BM_CoordinatedTelemetry(benchmark::State& state) {
  const auto& moduli = corpus(512);
  const bool enabled = state.range(0) != 0;
  util::ThreadPool pool(kThreads, enabled ? &bench_telemetry() : nullptr);
  batchgcd::DistributedOptions options;
  options.registry = enabled ? &bench_telemetry().metrics() : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(batchgcd::batch_gcd_distributed(
        moduli, kSubsets, &pool, nullptr, options));
  }
}
BENCHMARK(BM_CoordinatedTelemetry)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Sampling-profiler overhead ablation: the same instrumented run with the
/// wall-clock sampler attached at the conventional 97 Hz vs without it.
/// Arg: 0 = profiler off, 1 = on. The acceptance bar is <= 5% overhead for
/// the profiled arm (and ~0% for the off arm, which pays one relaxed load
/// per span): sampling cost scales with thread count and cadence, not with
/// span rate.
void BM_CoordinatedProfile(benchmark::State& state) {
  const auto& moduli = corpus(512);
  const bool profiled = state.range(0) != 0;
  util::ThreadPool pool(kThreads, &bench_telemetry());
  batchgcd::DistributedOptions options;
  options.registry = &bench_telemetry().metrics();
  std::unique_ptr<obs::Profiler> profiler;
  if (profiled) {
    obs::ProfilerConfig prof_config;
    prof_config.hz = 97.0;
    prof_config.registry = &bench_telemetry().metrics();
    profiler = std::make_unique<obs::Profiler>(std::move(prof_config));
    profiler->start();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(batchgcd::batch_gcd_distributed(
        moduli, kSubsets, &pool, nullptr, options));
  }
  if (profiler) {
    profiler->stop();
    state.counters["profile_samples"] =
        static_cast<double>(profiler->samples());
  }
}
BENCHMARK(BM_CoordinatedProfile)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return weakkeys::bench::run_benchmarks_with_json("perf_batchgcd", argc, argv,
                                                   &bench_telemetry());
}
