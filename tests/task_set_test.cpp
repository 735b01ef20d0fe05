// The k-subset row set and the journaled in-process path built on it:
// partition and claim rule, verification of replayed claims, output
// equivalence with batch_gcd() fresh and resumed, the resume journal under
// truncation, bit flips, torn writes, corpus mismatch and the retired
// k^2-task format, cancellation, and Study integration.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/distributed.hpp"
#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "batchgcd/task_set.hpp"
#include "core/study.hpp"
#include "obs/metrics.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/binary_io.hpp"
#include "util/fault_injector.hpp"
#include "util/spill_file.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::batchgcd {
namespace {

using bn::BigInt;

/// Small corpus with planted shared-prime structure (and a duplicate), so
/// every subset has real divisors for verification to bite on.
std::vector<BigInt> make_moduli(std::uint64_t seed, std::size_t healthy) {
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
  for (int i = 0; i < 8; ++i) {
    primes.push_back(rsa::generate_prime(rng, 64, opts));
  }
  moduli.push_back(primes[0] * primes[1]);  // pair sharing primes[0]
  moduli.push_back(primes[0] * primes[2]);
  moduli.push_back(primes[3] * primes[4]);  // star of three sharing primes[3]
  moduli.push_back(primes[3] * primes[5]);
  moduli.push_back(primes[3] * primes[6]);
  moduli.push_back(primes[1] * primes[7]);
  moduli.push_back(primes[1] * primes[7]);  // duplicate
  return moduli;
}

std::string test_name() {
  return ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes,
                 std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(size));
}

/// A journaled run's outcome: its stats plus the live executed counter.
struct Outcome {
  BatchGcdResult result;
  DistributedStats stats;
  std::uint64_t executed = 0;
};

Outcome journaled_run(std::span<const BigInt> moduli, std::size_t k,
                     const std::string& journal) {
  Outcome run;
  obs::MetricsRegistry registry;
  util::ThreadPool pool(2);
  DistributedOptions options;
  options.registry = &registry;
  options.journal_path = journal;
  run.result = batch_gcd_distributed(moduli, k, &pool, &run.stats, options);
  run.executed = registry.counter("coordinator.tasks_executed").value();
  return run;
}

/// The in-process stand-in for a killed run: a journaled run cancelled on
/// the committing thread as its `coordinator.tasks_executed` counter
/// reaches `after`, so rows not yet started see the token and the cancel
/// lands mid-run however the threads are scheduled (the other pool thread
/// may still commit the row it is in). Every spill operation stalls 5 ms
/// (spill threshold 0, slow storage tier). Returns the number of tasks
/// that committed — and so reached the journal — before the run unwound.
std::uint64_t cancelled_run(std::span<const BigInt> moduli, std::size_t k,
                            const std::string& journal, std::uint64_t after,
                            const util::FaultConfig& extra_faults = {}) {
  const std::string dir = journal + ".spill.d";
  util::FaultConfig faults = extra_faults;
  faults.storage_slow_probability = 1.0;
  faults.storage_slow_ms = 5;
  const util::FaultInjector injector(faults);
  TreeStorage storage;
  storage.spill_dir = dir;
  storage.spill_threshold_bytes = 0;
  storage.injector = &injector;

  obs::MetricsRegistry registry;
  auto& executed = registry.counter("coordinator.tasks_executed");
  util::CancellationToken token;
  util::ThreadPool pool(2);
  DistributedOptions options;
  options.cancel = &token;
  options.registry = &registry;
  options.storage = &storage;
  options.journal_path = journal;
  options.on_commit = [&] {
    if (executed.value() >= after) token.cancel("simulated kill");
  };
  EXPECT_THROW(batch_gcd_distributed(moduli, k, &pool, nullptr, options),
               util::Cancelled);
  std::filesystem::remove_all(dir);
  EXPECT_GE(executed.value(), after);
  EXPECT_LT(executed.value(), k) << "the cancel landed after the run";
  return executed.value();
}

// ---------------------------------------------------------- the task set ----

TEST(TaskSet, PartitionsContiguouslyAndMapsTasks) {
  const auto moduli = make_moduli(1, 10);  // 17 moduli
  const TaskSet tasks(moduli, 4);
  EXPECT_EQ(tasks.k(), 4u);
  EXPECT_EQ(tasks.size(), 4u);  // one row per subset
  std::size_t covered = 0;
  for (std::size_t a = 0; a < tasks.k(); ++a) {
    const auto subset = tasks.subset(a);
    EXPECT_EQ(subset.size(), a == 0 ? 5u : 4u);  // the remainder goes first
    EXPECT_EQ(subset.data(), moduli.data() + covered);
    covered += subset.size();
  }
  EXPECT_EQ(covered, moduli.size());
  // k clamps to [1, moduli.size()].
  EXPECT_EQ(TaskSet(moduli, 0).k(), 1u);
  EXPECT_EQ(TaskSet(moduli, 100).k(), moduli.size());
}

TEST(TaskSet, CommittingEveryTaskReproducesBatchGcd) {
  const auto moduli = make_moduli(2, 14);
  TaskSet tasks(moduli, 3);
  std::vector<std::unique_ptr<ProductTree>> trees;
  for (std::size_t a = 0; a < tasks.k(); ++a) {
    trees.push_back(std::make_unique<ProductTree>(tasks.subset(a)));
  }
  // Reverse order: rows commit independently.
  for (std::size_t a = tasks.size(); a-- > 0;) {
    std::vector<const BigInt*> others;
    for (std::size_t b = 0; b < tasks.k(); ++b) {
      if (b != a) others.push_back(&trees[b]->root());
    }
    const auto claims = leaf_claims(
        tasks.subset(a), remainder_row_residues(*trees[a], others));
    EXPECT_TRUE(tasks.verify(a, claims));
    EXPECT_TRUE(tasks.commit(a, claims));
    EXPECT_FALSE(tasks.commit(a, claims)) << "a row commits exactly once";
  }
  EXPECT_TRUE(tasks.complete());
  EXPECT_EQ(tasks.combine().divisors, batch_gcd(moduli).divisors);
}

// ------------------------------------------------------ fault-free path ----

TEST(Coordinator, FaultFreeMatchesBatchGcd) {
  const auto moduli = make_moduli(101, 25);
  const auto reference = batch_gcd(moduli);
  const std::string journal = "task_set_" + test_name() + ".gcdckpt";
  for (const std::size_t k : {1u, 3u, 5u}) {
    const Outcome run = journaled_run(moduli, k, journal);
    EXPECT_EQ(run.result.divisors, reference.divisors) << "k=" << k;
    EXPECT_EQ(run.stats.tasks, k);
    EXPECT_EQ(run.stats.tasks_resumed, 0u);
    EXPECT_EQ(run.executed, k);
    EXPECT_FALSE(std::ifstream(journal).good()) << "success removes it";
  }
}

TEST(Coordinator, EmptyAndSingleInputs) {
  const std::string journal = "task_set_" + test_name() + ".gcdckpt";
  EXPECT_TRUE(journaled_run({}, 4, journal).result.divisors.empty());

  const std::vector<BigInt> one = {BigInt(77)};
  const Outcome single = journaled_run(one, 4, journal);
  ASSERT_EQ(single.result.divisors.size(), 1u);
  EXPECT_EQ(single.result.divisors[0], BigInt(1));
  EXPECT_EQ(single.stats.tasks, 1u);
}

TEST(Coordinator, CorruptedResultsAreCaughtNotAccepted) {
  // Claims that come from outside the process are verified: a journal
  // record carrying a divisor that does not divide its modulus is dropped
  // on replay and its task re-executed, so it never reaches the output.
  const auto moduli = make_moduli(55, 18);
  const auto reference = batch_gcd(moduli);
  const std::string journal = "task_set_" + test_name() + ".gcdckpt";
  std::remove(journal.c_str());
  {
    TaskSet tasks(moduli, 3);
    // Row 1's true claims, computed as any engine would.
    std::vector<std::unique_ptr<ProductTree>> trees;
    for (std::size_t a = 0; a < tasks.k(); ++a) {
      trees.push_back(std::make_unique<ProductTree>(tasks.subset(a)));
    }
    const BigInt* others[] = {&trees[0]->root(), &trees[2]->root()};
    const auto row1 = leaf_claims(tasks.subset(1),
                                  remainder_row_residues(*trees[1], others));
    const BigInt& n = tasks.subset(0)[2];
    const std::vector<TaskClaim> bogus = {{2, n - BigInt(1)}};
    EXPECT_FALSE(tasks.verify(0, bogus));
    EXPECT_FALSE(tasks.verify(0, {{2, BigInt(1)}}));       // trivial
    EXPECT_FALSE(tasks.verify(0, {{2, n * BigInt(3)}}));   // above n
    EXPECT_FALSE(tasks.verify(0, {{99, BigInt(3)}}));      // no such leaf
    EXPECT_FALSE(tasks.verify(tasks.size(), {}));          // no such task
    EXPECT_TRUE(tasks.verify(0, {{2, n}}));
    tasks.open_journal(journal);
    tasks.commit(0, bogus);  // commit() trusts its caller; replay does not
    tasks.commit(1, row1);
  }  // the journal closes with the TaskSet
  const Outcome run = journaled_run(moduli, 3, journal);
  EXPECT_EQ(run.result.divisors, reference.divisors);
  EXPECT_EQ(run.stats.tasks_resumed, 1u);  // row 1 only
  EXPECT_EQ(run.executed, 2u);
}

TEST(Coordinator, ExhaustedRetriesThrow) {
  // Spill writes that keep failing exhaust the storage ladder (retry after
  // a window shrink, then RAM pinning within the budget): the run throws
  // util::StorageError and, like a cancelled run, keeps its journal.
  const auto moduli = make_moduli(77, 6);
  const std::string journal = "task_set_" + test_name() + ".gcdckpt";
  const std::string dir = journal + ".spill.d";
  std::remove(journal.c_str());
  util::FaultConfig faults;
  faults.seed = 5;
  faults.storage_enospc_probability = 1.0;
  const util::FaultInjector injector(faults);
  TreeStorage storage;
  storage.spill_dir = dir;
  storage.spill_threshold_bytes = 0;
  storage.injector = &injector;
  storage.ram_fallback_budget_bytes = 1;  // nothing fits: the ladder ends
  DistributedOptions options;
  options.storage = &storage;
  options.journal_path = journal;
  EXPECT_THROW(batch_gcd_distributed(moduli, 2, nullptr, nullptr, options),
               util::StorageError);
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(std::ifstream(journal).good());
  std::remove(journal.c_str());
}

// -------------------------------------------------- equivalence w/ faults ----

class CoordinatorFaults : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoordinatorFaults, HeavyFaultsStillMatchBatchGcd) {
  // Every subset tree spilled under heavy storage faults (torn writes,
  // failed fsyncs, silent bit flips on published levels) while the journal
  // records every task: the output is still batch_gcd()'s exactly, and
  // every corrupt level read was healed or rebuilt.
  const auto moduli = make_moduli(GetParam(), 20);
  const auto reference = batch_gcd(moduli);
  const std::string journal =
      "task_set_faults_" + std::to_string(GetParam()) + ".gcdckpt";
  const std::string dir = journal + ".spill.d";

  util::FaultConfig faults;
  faults.seed = GetParam() * 31 + 7;
  faults.storage_short_write_probability = 0.10;
  faults.storage_fsync_fail_probability = 0.08;
  faults.storage_bit_flip_probability = 0.10;
  const util::FaultInjector injector(faults);
  obs::MetricsRegistry registry;
  TreeStorage storage;
  storage.spill_dir = dir;
  storage.spill_threshold_bytes = 0;
  storage.injector = &injector;
  storage.registry = &registry;

  util::ThreadPool pool(3);
  DistributedOptions options;
  options.registry = &registry;
  options.storage = &storage;
  options.journal_path = journal;
  DistributedStats stats;
  const auto result = batch_gcd_distributed(moduli, 4, &pool, &stats, options);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(result.divisors, reference.divisors);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("coordinator.tasks_executed"), stats.tasks);
  EXPECT_GT(snap.counter("spill.verify_failures"), 0u);  // the faults bit
  EXPECT_EQ(snap.counter("spill.verify_failures"),
            snap.counter("spill.heals") + snap.counter("spill.rebuilds"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoordinatorFaults,
                         ::testing::Values(11, 12, 13, 14));

// -------------------------------------------------- checkpoint / resume ----

class CoordinatorCheckpoint : public ::testing::Test {
 protected:
  void SetUp() override { std::remove(path_.c_str()); }
  void TearDown() override { std::remove(path_.c_str()); }
  // Unique per test: ctest runs each gtest case as its own process in a
  // shared working directory, so a shared journal name lets concurrent
  // tests delete each other's checkpoints mid-resume.
  const std::string path_ = "task_set_ckpt_" + test_name() + ".tmp";
};

TEST_F(CoordinatorCheckpoint, KilledRunResumesExecutingOnlyUnfinishedTasks) {
  const auto moduli = make_moduli(301, 20);
  const auto reference = batch_gcd(moduli);
  const std::size_t k = 8;

  const std::uint64_t first = cancelled_run(moduli, k, path_, 3);

  const Outcome second = journaled_run(moduli, k, path_);
  EXPECT_EQ(second.result.divisors, reference.divisors);
  // The resumed run loads exactly what the killed run committed and
  // re-executes only the remainder.
  EXPECT_EQ(second.stats.tasks_resumed, first);
  EXPECT_EQ(second.executed, k - first);
  // Success removes the journal; a third run starts from scratch.
  EXPECT_EQ(journaled_run(moduli, k, path_).stats.tasks_resumed, 0u);
}

TEST_F(CoordinatorCheckpoint, ResumeSurvivesInjectedFaults) {
  // The killed run spilled its trees through torn writes and bit flips;
  // the journal it left still resumes to the exact reference output.
  const auto moduli = make_moduli(302, 18);
  const auto reference = batch_gcd(moduli);
  util::FaultConfig faults;
  faults.seed = 7;
  faults.storage_short_write_probability = 0.15;
  faults.storage_bit_flip_probability = 0.15;
  const std::uint64_t first = cancelled_run(moduli, 10, path_, 4, faults);

  const Outcome second = journaled_run(moduli, 10, path_);
  EXPECT_EQ(second.result.divisors, reference.divisors);
  EXPECT_EQ(second.stats.tasks_resumed, first);
}

TEST_F(CoordinatorCheckpoint, TruncatedOrFlippedJournalIsDiscardedSafely) {
  const auto moduli = make_moduli(303, 16);
  const auto reference = batch_gcd(moduli);
  cancelled_run(moduli, 8, path_, 3);
  const std::string bytes = slurp(path_);
  ASSERT_FALSE(bytes.empty());

  for (const double keep_fraction : {0.3, 0.65, 0.95}) {
    write_bytes(path_, bytes,
                static_cast<std::size_t>(bytes.size() * keep_fraction));
    const Outcome run = journaled_run(moduli, 8, path_);
    EXPECT_EQ(run.result.divisors, reference.divisors)
        << "keep=" << keep_fraction;
    EXPECT_EQ(run.stats.tasks_resumed + run.executed, run.stats.tasks);
  }

  // Bit flip in the record region: the CRC rejects the tail, the run
  // still completes correctly.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  write_bytes(path_, flipped, flipped.size());
  EXPECT_EQ(journaled_run(moduli, 8, path_).result.divisors,
            reference.divisors);
}

TEST_F(CoordinatorCheckpoint, TornWriteAtEveryBoundaryResumesExactPrefix) {
  // Systematic torn-tail sweep: cut the journal at *every* record boundary
  // and mid-record, and assert the resumed run replays exactly the intact
  // prefix and re-executes exactly the rest. This pins down the recovery
  // contract the fractional-truncation test above only samples.
  const auto moduli = make_moduli(306, 16);
  const auto reference = batch_gcd(moduli);
  const std::size_t k = 10;
  const std::uint64_t first = cancelled_run(moduli, k, path_, 5);
  const std::string bytes = slurp(path_);

  // Walk the record framing: a 20-byte header (magic, version, fingerprint,
  // total), then records of u32 payload-length | payload | u32 crc.
  const auto u32_at = [&bytes](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
      v = (v << 8) | static_cast<std::uint8_t>(bytes[at + i]);
    return v;
  };
  std::vector<std::size_t> boundaries{20};
  while (boundaries.back() + 4 <= bytes.size()) {
    const std::size_t next =
        boundaries.back() + 4 + u32_at(boundaries.back()) + 4;
    if (next > bytes.size()) break;
    boundaries.push_back(next);
  }
  ASSERT_EQ(boundaries.back(), bytes.size());  // the cancel left no torn tail
  const std::size_t records = boundaries.size() - 1;
  ASSERT_EQ(records, first);

  for (std::size_t i = 0; i < boundaries.size(); ++i) {
    // Cut exactly at a boundary: the first i records are intact.
    write_bytes(path_, bytes, boundaries[i]);
    const Outcome run = journaled_run(moduli, k, path_);
    EXPECT_EQ(run.result.divisors, reference.divisors) << "boundary " << i;
    EXPECT_EQ(run.stats.tasks_resumed, i) << "boundary " << i;
    EXPECT_EQ(run.executed, k - i) << "boundary " << i;
  }
  for (std::size_t i = 1; i < boundaries.size(); ++i) {
    // Cut mid-record: record i is torn and must be dropped, records
    // before it must all survive.
    write_bytes(path_, bytes,
                boundaries[i - 1] + (boundaries[i] - boundaries[i - 1]) / 2);
    const Outcome run = journaled_run(moduli, k, path_);
    EXPECT_EQ(run.result.divisors, reference.divisors) << "mid-record " << i;
    EXPECT_EQ(run.stats.tasks_resumed, i - 1) << "mid-record " << i;
    EXPECT_EQ(run.executed, k - (i - 1)) << "mid-record " << i;
  }

  // Duplicate-replay sweep: append a byte-exact copy of each record in
  // turn. A session-layer replay that slips a duplicate past the network
  // dedup lands here, and the journal must commit the task exactly once —
  // resumed count unchanged, folded product unchanged.
  for (std::size_t i = 1; i < boundaries.size(); ++i) {
    write_bytes(path_,
                bytes + bytes.substr(boundaries[i - 1],
                                     boundaries[i] - boundaries[i - 1]),
                bytes.size() + boundaries[i] - boundaries[i - 1]);
    const Outcome run = journaled_run(moduli, k, path_);
    EXPECT_EQ(run.result.divisors, reference.divisors) << "duplicate of " << i;
    EXPECT_EQ(run.stats.tasks_resumed, records) << "duplicate of " << i;
    EXPECT_EQ(run.executed, k - records) << "duplicate of " << i;
  }
}

TEST_F(CoordinatorCheckpoint, MismatchedCorpusInvalidatesJournal) {
  const auto moduli = make_moduli(304, 16);
  cancelled_run(moduli, 8, path_, 3);

  // Different corpus, same journal path: nothing may be resumed.
  const auto other = make_moduli(305, 16);
  const Outcome run = journaled_run(other, 8, path_);
  EXPECT_EQ(run.stats.tasks_resumed, 0u);
  EXPECT_EQ(run.result.divisors, batch_gcd(other).divisors);
}

TEST_F(CoordinatorCheckpoint, SquaredTaskJournalIsDiscarded) {
  // A journal from the k^2-task engine: same moduli and k, total k^2,
  // version 1, and records for tasks that were (product, subset) pairs. A
  // second one carries the current version with the old total. Neither may
  // resume a row; both runs recompute everything and match batch_gcd().
  const auto moduli = make_moduli(307, 16);
  const auto reference = batch_gcd(moduli);
  const std::size_t k = 3;
  const std::uint64_t fingerprint = corpus_fingerprint(moduli, k);
  for (const std::uint32_t version : {1u, 2u}) {
    util::BufferWriter w;
    w.u32(0x574b4350);  // "WKCP"
    w.u32(version);
    w.u64(fingerprint);
    w.u32(static_cast<std::uint32_t>(k * k));
    for (std::uint32_t task = 0; task < k * k; ++task) {
      util::BufferWriter record;
      record.u32(task);
      record.u32(0);  // no claims: wrong for every row with a divisor
      w.bytes(record.data());
      w.u32(util::crc32(record.data()));
    }
    write_bytes(path_,
                std::string(w.data().begin(), w.data().end()),
                w.data().size());
    const Outcome run = journaled_run(moduli, k, path_);
    EXPECT_EQ(run.result.divisors, reference.divisors) << "v" << version;
    EXPECT_EQ(run.stats.tasks, k);
    EXPECT_EQ(run.stats.tasks_resumed, 0u) << "v" << version;
    EXPECT_EQ(run.executed, k) << "v" << version;
    EXPECT_FALSE(std::ifstream(path_).good()) << "success removes it";
  }
}

// ------------------------------------------------------ Study integration ----

TEST(StudyCoordinator, JournaledStudyMatchesUnjournaledRun) {
  core::StudyConfig config;
  config.sim.seed = 9090;
  config.sim.scale = 0.01;
  config.sim.miller_rabin_rounds = 4;
  config.batch_gcd_subsets = 3;
  config.threads = 2;
  config.cache_path = "";  // no caches, so no journal
  core::Study plain(config);
  plain.run();

  // A cache path makes the factoring stage journal to "<cache>.gcdckpt".
  const std::string cache = "task_set_study_" + test_name() + ".cache";
  config.cache_path = cache;
  core::Study journaled(config);
  journaled.run();

  ASSERT_EQ(journaled.factored().size(), plain.factored().size());
  for (std::size_t i = 0; i < plain.factored().size(); ++i) {
    EXPECT_EQ(journaled.factored()[i].n, plain.factored()[i].n);
    EXPECT_EQ(journaled.factored()[i].p, plain.factored()[i].p);
    EXPECT_EQ(journaled.factored()[i].q, plain.factored()[i].q);
  }
  EXPECT_EQ(journaled.vulnerable().size(), plain.vulnerable().size());
  const auto& stats = journaled.distributed_stats();
  EXPECT_EQ(stats.tasks, 3u);  // one row per subset
  EXPECT_EQ(stats.tasks_resumed, 0u);
  const auto snap = journaled.telemetry().metrics().snapshot();
  EXPECT_EQ(snap.counter("coordinator.tasks"), 3u);
  EXPECT_EQ(snap.counter("coordinator.tasks_executed"), 3u);
  // The factor cache supersedes the journal once factoring finishes.
  EXPECT_FALSE(std::ifstream(cache + ".gcdckpt").good());
  for (const char* suffix : {"", ".factors"}) {
    std::remove((cache + suffix).c_str());
  }
}

}  // namespace
}  // namespace weakkeys::batchgcd
