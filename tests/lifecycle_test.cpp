// Run lifecycle layer: cooperative cancellation semantics (token, thread
// pool, the journaled in-process batch GCD), crash-safe atomic file
// publication, and resuming a study from its per-stage caches.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <sys/stat.h>
#define WEAKKEYS_TEST_POSIX 1
#endif

#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/distributed.hpp"
#include "core/study.hpp"
#include "obs/telemetry.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/atomic_file.hpp"
#include "util/cancellation.hpp"
#include "util/fault_injector.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys {
namespace {

using bn::BigInt;

// ------------------------------------------------- CancellationToken ------

TEST(CancellationToken, CancelTripsOnceWithFirstReason) {
  util::CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), "");
  token.cancel("operator request");
  token.cancel("second caller loses");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "operator request");
  EXPECT_THROW(token.throw_if_cancelled(), util::Cancelled);
}

TEST(CancellationToken, CallbacksRunExactlyOnceAndLateRegistrantsImmediately) {
  util::CancellationToken token;
  std::atomic<int> runs{0};
  token.add_callback([&] { ++runs; });
  token.cancel("x");
  token.cancel("again");
  EXPECT_EQ(runs.load(), 1);
  token.add_callback([&] { ++runs; });  // already drained: runs now
  EXPECT_EQ(runs.load(), 2);
}

TEST(CancellationToken, RemovedCallbackDoesNotRun) {
  util::CancellationToken token;
  std::atomic<int> runs{0};
  const auto id = token.add_callback([&] { ++runs; });
  token.remove_callback(id);
  token.cancel("x");
  EXPECT_EQ(runs.load(), 0);
}

// ---------------------------------------------------- atomic file I/O -----

TEST(AtomicFile, WritePublishesAtomicallyAndLeavesNoTmp) {
  const std::string path = "lifecycle_atomic_write.bin";
  util::atomic_write_file(path, std::string("first"));
  util::atomic_write_file(path, std::string("second"));
  std::ifstream in(path, std::ios::binary);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(body, "second");
  std::ifstream tmp(util::atomic_tmp_path(path));
  EXPECT_FALSE(tmp.good()) << "orphan tmp file left behind";
  std::remove(path.c_str());
}

TEST(AtomicFile, PublishRenamesStreamedTmp) {
  const std::string path = "lifecycle_atomic_publish.bin";
  const std::string tmp = util::atomic_tmp_path(path);
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "streamed";
  }
  util::atomic_publish_file(tmp, path);
  std::ifstream in(path, std::ios::binary);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(body, "streamed");
  std::ifstream leftover(tmp);
  EXPECT_FALSE(leftover.good());
  std::remove(path.c_str());
}

#if defined(WEAKKEYS_TEST_POSIX)
TEST(AtomicFile, ParentDirFsyncAfterPublish) {
  // Regression: rename() alone leaves the new directory entry only in
  // memory; both publishers must follow it with fsync_parent_dir so a
  // power cut after "publication" cannot lose the entry. Exercise the
  // helper's contract directly: bare names and subdirectory paths sync
  // their parent, a missing parent reports false instead of throwing.
  EXPECT_TRUE(util::fsync_parent_dir("lifecycle_bare_name.bin"));

  const std::string dir = "lifecycle_fsync_dir.d";
  ::mkdir(dir.c_str(), 0777);
  const std::string nested = dir + "/entry.bin";
  util::atomic_write_file(nested, std::string("payload"));
  EXPECT_TRUE(util::fsync_parent_dir(nested));
  std::ifstream in(nested, std::ios::binary);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  EXPECT_EQ(body, "payload");

  EXPECT_FALSE(util::fsync_parent_dir("no_such_dir.d/entry.bin"));

  std::remove(nested.c_str());
  ::rmdir(dir.c_str());
}
#endif

// ------------------------------------------------ ThreadPool + cancel -----

TEST(ThreadPoolCancel, PreTrippedTokenThrowsWithoutRunningTasks) {
  util::ThreadPool pool(2);
  util::CancellationToken token;
  token.cancel("before submit");
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      pool.parallel_for(64, [&](std::size_t) { ++ran; }, &token),
      util::Cancelled);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ThreadPoolCancel, MidRunTripStopsWorkAndThrowsExactlyOnce) {
  util::ThreadPool pool(2);
  util::CancellationToken token;
  std::atomic<std::size_t> ran{0};
  const std::size_t n = 10000;
  std::size_t throws = 0;
  try {
    // Tasks poll the token like every real batch task does. Task 16 trips
    // it; with only two workers in flight, thousands of queued tasks run
    // after the trip and must throw (collapsed into one Cancelled report)
    // rather than do their work.
    pool.parallel_for(
        n,
        [&](std::size_t i) {
          if (i == 16) token.cancel("mid-run");
          token.throw_if_cancelled();
          ++ran;
        },
        &token);
  } catch (const util::Cancelled&) {
    ++throws;
  }
  EXPECT_EQ(throws, 1u);
  // Far fewer than n tasks did work, but everything already submitted
  // drained (no lost workers, no dangling futures).
  EXPECT_LT(ran.load(), n);
  // The pool is still usable afterwards.
  std::atomic<std::size_t> again{0};
  pool.parallel_for(8, [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 8u);
}

TEST(ThreadPoolCancel, TaskExceptionTakesPrecedenceOverCancellation) {
  util::ThreadPool pool(2);
  util::CancellationToken token;
  EXPECT_THROW(
      pool.parallel_for(
          32,
          [&](std::size_t i) {
            if (i == 0) {
              token.cancel("also tripped");
              throw std::runtime_error("real failure");
            }
          },
          &token),
      std::runtime_error);
}

// ------------------------------------------------- coordinator cancel -----

std::vector<BigInt> lifecycle_moduli(std::uint64_t seed, std::size_t healthy) {
  std::vector<BigInt> moduli;
  rng::PrngRandomSource rng(seed);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.miller_rabin_rounds = 6;
  for (std::size_t i = 0; i < healthy; ++i) {
    moduli.push_back(rsa::generate_key(rng, opts).pub.n);
  }
  std::vector<BigInt> primes;
  for (int i = 0; i < 4; ++i) {
    primes.push_back(rsa::generate_prime(rng, 64, opts));
  }
  moduli.push_back(primes[0] * primes[1]);
  moduli.push_back(primes[0] * primes[2]);
  moduli.push_back(primes[1] * primes[3]);
  return moduli;
}

TEST(CoordinatorCancel, PreTrippedTokenThrowsBeforeAnyWork) {
  const auto moduli = lifecycle_moduli(7, 12);
  util::CancellationToken token;
  token.cancel("pre-tripped");
  util::ThreadPool pool(2);
  obs::MetricsRegistry registry;
  batchgcd::DistributedOptions options;
  options.cancel = &token;
  options.registry = &registry;
  EXPECT_THROW(batchgcd::batch_gcd_distributed(moduli, 3, &pool, nullptr,
                                               options),
               util::Cancelled);
  EXPECT_EQ(registry.counter("coordinator.tasks_executed").value(), 0u);
}

TEST(CoordinatorCancel, MidRunCancelRetainsJournalAndResumes) {
  const auto moduli = lifecycle_moduli(11, 16);
  const std::string ckpt = "lifecycle_cancel.gcdckpt";
  const std::string spill_dir = "lifecycle_cancel_spill.d";
  std::remove(ckpt.c_str());
  const auto reference = batchgcd::batch_gcd(moduli);

  // Spill every tree level with each storage operation stalled 5 ms. The
  // cancel comes from the committing thread once two rows have committed,
  // so it lands mid-flight however the threads are scheduled.
  util::FaultConfig faults;
  faults.seed = 3;
  faults.storage_slow_probability = 1.0;
  faults.storage_slow_ms = 5;
  const util::FaultInjector injector(faults);
  batchgcd::TreeStorage storage;
  storage.spill_dir = spill_dir;
  storage.spill_threshold_bytes = 0;
  storage.injector = &injector;

  obs::MetricsRegistry registry;
  util::CancellationToken token;
  util::ThreadPool pool(2);
  batchgcd::DistributedOptions options;
  options.cancel = &token;
  options.registry = &registry;
  options.storage = &storage;
  options.journal_path = ckpt;
  auto& executed = registry.counter("coordinator.tasks_executed");
  options.on_commit = [&] {
    if (executed.value() >= 2) token.cancel("mid-run cancel");
  };
  EXPECT_THROW(batchgcd::batch_gcd_distributed(moduli, 8, &pool, nullptr,
                                               options),
               util::Cancelled);
  EXPECT_GT(executed.value(), 0u);
  EXPECT_LT(executed.value(), 8u);
  {
    std::ifstream journal(ckpt, std::ios::binary);
    EXPECT_TRUE(journal.good()) << "cancel must retain the journal";
  }

  // Resume without the token (or the slow disk): only unfinished tasks
  // execute, output is element-for-element the reference.
  batchgcd::DistributedOptions resume;
  resume.journal_path = ckpt;
  batchgcd::DistributedStats resumed;
  const auto result =
      batchgcd::batch_gcd_distributed(moduli, 8, &pool, &resumed, resume);
  EXPECT_EQ(resumed.tasks_resumed, executed.value());
  ASSERT_EQ(result.divisors.size(), reference.divisors.size());
  for (std::size_t i = 0; i < reference.divisors.size(); ++i) {
    EXPECT_EQ(result.divisors[i], reference.divisors[i]) << "index " << i;
  }
  std::remove(ckpt.c_str());
  std::filesystem::remove_all(spill_dir);
}

// --------------------------------------------- study-level lifecycle ------

core::StudyConfig tiny_study_config(std::uint64_t seed) {
  core::StudyConfig config;
  config.sim.seed = seed;
  config.sim.scale = 0.02;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 2;
  config.threads = 2;
  config.cache_path = "";
  return config;
}

TEST(StudyLifecycle, ExplicitCancelFromAnotherThreadUnwinds) {
  auto config = tiny_study_config(778);
  core::Study study(config);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    study.cancel("test cancel");
  });
  std::string what;
  try {
    study.run();
  } catch (const util::Cancelled& e) {
    what = e.what();
  }
  canceller.join();
  EXPECT_EQ(what, "cancelled: test cancel");
}

TEST(StudyLifecycle, CheckpointAdvancesThroughStagesAndSupportsResume) {
  // The per-stage caches are the run's checkpoint: a second run with the
  // same cache path, and no other setting, skips every finished stage.
  const std::string cache = "lifecycle_stages.cache";
  for (const char* suffix : {"", ".factors", ".gcdckpt"}) {
    std::remove((cache + suffix).c_str());
  }
  auto config = tiny_study_config(779);
  config.cache_path = cache;
  {
    core::Study study(config);
    EXPECT_NO_THROW(study.run());
    auto& m = study.telemetry().metrics();
    EXPECT_EQ(m.counter("cache.corpus.miss").value(), 1u);
    EXPECT_EQ(m.counter("cache.factors.miss").value(), 1u);
    EXPECT_GT(m.counter("coordinator.tasks_executed").value(), 0u);
  }
  core::Study study(config);
  EXPECT_NO_THROW(study.run());
  auto& m = study.telemetry().metrics();
  EXPECT_EQ(m.counter("cache.corpus.hit").value(), 1u);
  EXPECT_EQ(m.counter("cache.factors.hit").value(), 1u);
  EXPECT_EQ(m.counter("coordinator.tasks_executed").value(), 0u);
  for (const char* suffix : {"", ".factors", ".gcdckpt"}) {
    std::remove((cache + suffix).c_str());
  }
}

TEST(StudyLifecycle, CancelMidFactorRetainsJournalAndResumes) {
  // A Study with a cache path journals its factoring stage: cancelled once
  // two remainder-tree tasks have committed, it keeps "<cache>.gcdckpt",
  // and the resumed run re-executes only the unfinished tasks.
  const std::string cache = "lifecycle_factor_cancel.cache";
  const auto remove_family = [&cache] {
    for (const char* suffix : {"", ".factors", ".gcdckpt"}) {
      std::remove((cache + suffix).c_str());
    }
  };
  remove_family();
  auto config = tiny_study_config(782);
  config.batch_gcd_subsets = 8;
  config.cache_path = cache;
  {
    core::Study study(config);
    auto& executed =
        study.telemetry().metrics().counter("coordinator.tasks_executed");
    std::thread canceller([&] {
      while (executed.value() < 2) std::this_thread::yield();
      study.cancel("mid-factor cancel");
    });
    EXPECT_THROW(study.run(), util::Cancelled);
    canceller.join();
    EXPECT_LT(executed.value(), 8u) << "the cancel landed after factoring";
    std::ifstream journal(cache + ".gcdckpt", std::ios::binary);
    EXPECT_TRUE(journal.good()) << "cancel must retain the journal";
  }
  core::Study study(config);
  study.run();
  const auto& stats = study.distributed_stats();
  const auto executed =
      study.telemetry().metrics().counter("coordinator.tasks_executed").value();
  EXPECT_GE(stats.tasks_resumed, 2u);
  EXPECT_EQ(stats.tasks_resumed + executed, stats.tasks);
  remove_family();
}

TEST(StudyLifecycle, FlushTelemetryIsIdempotent) {
  // run() writes the metrics file exactly once: a second run() of a
  // finished study (a no-op) and its teardown leave it untouched.
  auto config = tiny_study_config(780);
  config.trace_path = "lifecycle_flush.trace.json";
  const std::string metrics_path = config.trace_path + ".metrics.json";
  const auto read_metrics = [&metrics_path] {
    std::ifstream in(metrics_path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  {
    core::Study study(config);
    study.run();
    const std::string written = read_metrics();
    ASSERT_FALSE(written.empty());
    // Remove the file: a second flush would recreate it.
    ASSERT_EQ(std::remove(metrics_path.c_str()), 0);
    study.run();
    EXPECT_FALSE(std::filesystem::exists(metrics_path))
        << "a second run() rewrote the metrics file";
  }
  EXPECT_FALSE(std::filesystem::exists(metrics_path))
      << "teardown wrote the metrics file again";
  std::remove(config.trace_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace weakkeys
