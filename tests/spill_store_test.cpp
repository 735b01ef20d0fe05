// Out-of-core spill store: format corruption table, heal/rebuild, the
// degradation ladder, resume from published levels, and RAM/spill
// equivalence of every batch-GCD result.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/distributed.hpp"
#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "batchgcd/spill_store.hpp"
#include "obs/metrics.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/spill_file.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::batchgcd {
namespace {

using bn::BigInt;
using util::SpillFileStatus;
using util::StorageError;
using util::StorageErrorKind;

std::vector<BigInt> make_moduli(std::size_t healthy, std::uint64_t seed) {
  std::vector<BigInt> moduli;
  rng::PrngRandomSource rng(seed);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.miller_rabin_rounds = 8;
  for (std::size_t i = 0; i < healthy; ++i) {
    moduli.push_back(rsa::generate_key(rng, opts).pub.n);
  }
  std::vector<BigInt> p;
  for (int i = 0; i < 6; ++i) p.push_back(rsa::generate_prime(rng, 64, opts));
  moduli.push_back(p[0] * p[1]);  // pair sharing p[0]
  moduli.push_back(p[0] * p[2]);
  moduli.push_back(p[3] * p[4]);  // second pair
  moduli.push_back(p[3] * p[5]);
  return moduli;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> bytes;
  if (!f) return bytes;
  std::uint8_t buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!b.empty()) {
    ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  }
  std::fclose(f);
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f) std::fclose(f);
  return f != nullptr;
}

/// Per-test scratch dir; removes every spill artifact it could have left.
class SpillDir {
 public:
  explicit SpillDir(const std::string& base)
      : dir_("spill_test_" + base + ".d") {}
  ~SpillDir() {
    for (std::size_t k = 0; k < 64; ++k) {
      for (const char* b : {"tree", "study"}) {
        for (int s = -1; s < 8; ++s) {
          std::string base = b;
          if (s >= 0) base += ".s" + std::to_string(s);
          const std::string p =
              dir_ + "/" + base + ".L" + std::to_string(k) + ".wkl";
          std::remove(p.c_str());
          std::remove((p + ".tmp").c_str());
        }
      }
    }
    ::rmdir(dir_.c_str());
  }
  [[nodiscard]] const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

std::string test_name() {
  return ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

// ----------------------------------------------------------- spill file ----

TEST(SpillFile, RoundTripsRecords) {
  SpillDir dir(test_name());
  ::mkdir(dir.path().c_str(), 0777);
  const std::string path = dir.path() + "/tree.L0.wkl";
  const std::vector<std::vector<std::uint8_t>> records = {
      {1, 2, 3}, {}, {0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88}};
  {
    util::SpillFileWriter w(path, 77, 3);
    for (const auto& r : records) w.add_record(r.data(), r.size());
    const std::uint64_t total = w.finish();
    EXPECT_EQ(total, util::kSpillHeaderSize + (4 + 3) + (4 + 0) + (4 + 8) +
                         util::kSpillFooterSize);
  }
  util::SpillFileHeader header;
  std::vector<std::vector<std::uint8_t>> got;
  EXPECT_EQ(util::read_spill_file(path, 77, &header, &got),
            SpillFileStatus::kOk);
  EXPECT_EQ(header.generation, 77u);
  EXPECT_EQ(header.level_index, 3u);
  EXPECT_EQ(header.record_count, records.size());
  EXPECT_EQ(got, records);
  EXPECT_EQ(util::probe_spill_file(path, 77, &header), SpillFileStatus::kOk);
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(SpillFile, CorruptionTableMapsToDistinctStatuses) {
  SpillDir dir(test_name());
  ::mkdir(dir.path().c_str(), 0777);
  const std::string path = dir.path() + "/tree.L0.wkl";
  {
    util::SpillFileWriter w(path, 9, 0);
    const std::uint8_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const std::uint8_t b[8] = {9, 10, 11, 12, 13, 14, 15, 16};
    w.add_record(a, sizeof a);
    w.add_record(b, sizeof b);
    w.finish();
  }
  const std::vector<std::uint8_t> valid = read_file(path);
  ASSERT_EQ(valid.size(),
            util::kSpillHeaderSize + 2 * (4 + 8) + util::kSpillFooterSize);

  struct Case {
    const char* name;
    std::uint64_t expect_generation;
    /// Mutates a copy of the valid bytes; empty result = delete the file.
    std::function<std::vector<std::uint8_t>(std::vector<std::uint8_t>)> mutate;
    SpillFileStatus want;
  };
  const std::vector<Case> table = {
      {"missing", 9, [](std::vector<std::uint8_t>) {
         return std::vector<std::uint8_t>{0xde};  // sentinel: delete instead
       },
       SpillFileStatus::kMissing},
      {"empty", 9,
       [](std::vector<std::uint8_t>) { return std::vector<std::uint8_t>{}; },
       SpillFileStatus::kEmpty},
      {"truncated-header", 9,
       [](std::vector<std::uint8_t> b) {
         b.resize(util::kSpillHeaderSize - 1);
         return b;
       },
       SpillFileStatus::kTruncatedHeader},
      {"bad-magic", 9,
       [](std::vector<std::uint8_t> b) {
         b[0] ^= 0xff;
         return b;
       },
       SpillFileStatus::kBadMagic},
      {"bad-version", 9,
       [](std::vector<std::uint8_t> b) {
         b[4] = 0x7f;  // version != kSpillVersion; header CRC checked later
         return b;
       },
       SpillFileStatus::kBadVersion},
      {"bad-header-crc", 9,
       [](std::vector<std::uint8_t> b) {
         b[8] ^= 0x01;  // generation byte: header CRC no longer matches
         return b;
       },
       SpillFileStatus::kBadHeaderCrc},
      {"stale-generation", 10,
       [](std::vector<std::uint8_t> b) { return b; },
       SpillFileStatus::kStaleGeneration},
      {"truncated-payload", 9,
       [](std::vector<std::uint8_t> b) {
         b.resize(b.size() - 8);
         return b;
       },
       SpillFileStatus::kTruncatedPayload},
      {"bad-record-length", 9,
       [](std::vector<std::uint8_t> b) {
         // First record's u32 length points past the payload.
         b[util::kSpillHeaderSize + 3] = 0x7f;
         return b;
       },
       SpillFileStatus::kBadRecord},
      {"bad-payload-crc", 9,
       [](std::vector<std::uint8_t> b) {
         b[b.size() - util::kSpillFooterSize - 1] ^= 0x01;  // last data byte
         return b;
       },
       SpillFileStatus::kBadPayloadCrc},
  };

  for (const auto& c : table) {
    SCOPED_TRACE(c.name);
    if (std::string(c.name) == "missing") {
      std::remove(path.c_str());
    } else {
      write_file(path, c.mutate(valid));
    }
    util::SpillFileHeader header;
    std::vector<std::vector<std::uint8_t>> records;
    EXPECT_EQ(util::read_spill_file(path, c.expect_generation, &header,
                                    &records),
              c.want);
  }

  // The probe validates headers only: payload corruption passes the probe
  // (resume trusts the header; the later full read heals), while header
  // corruption and stale generations do not.
  util::SpillFileHeader header;
  std::vector<std::uint8_t> flipped = valid;
  flipped[flipped.size() - util::kSpillFooterSize - 1] ^= 0x01;
  write_file(path, flipped);
  EXPECT_EQ(util::probe_spill_file(path, 9, &header), SpillFileStatus::kOk);
  EXPECT_EQ(util::probe_spill_file(path, 10, &header),
            SpillFileStatus::kStaleGeneration);
  std::vector<std::uint8_t> bad_header = valid;
  bad_header[8] ^= 0x01;
  write_file(path, bad_header);
  EXPECT_EQ(util::probe_spill_file(path, 9, &header),
            SpillFileStatus::kBadHeaderCrc);
  std::remove(path.c_str());
}

// ---------------------------------------------------------- spill store ----

TreeStorage make_storage(const SpillDir& dir, obs::MetricsRegistry* registry) {
  TreeStorage storage;
  storage.spill_dir = dir.path();
  storage.spill_threshold_bytes = 0;  // always spill
  storage.registry = registry;
  return storage;
}

TEST(SpillStore, SpilledTreeMatchesRamTree) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(40, 1);

  const ProductTree ram(moduli);
  obs::MetricsRegistry registry;
  const ProductTree spilled(moduli, make_storage(dir, &registry));
  EXPECT_FALSE(ram.spilled());
  EXPECT_TRUE(spilled.spilled());
  EXPECT_EQ(ram.root(), spilled.root());
  EXPECT_EQ(ram.leaf_count(), spilled.leaf_count());
  EXPECT_EQ(ram.level_count(), spilled.level_count());
  for (std::size_t k = 0; k < ram.level_count(); ++k) {
    EXPECT_EQ(ram.level_stats()[k].nodes, spilled.level_stats()[k].nodes);
    EXPECT_EQ(ram.level_stats()[k].bytes, spilled.level_stats()[k].bytes);
  }

  // The remainder walk over the spilled tree is value-identical.
  const auto rem_ram = remainder_tree_squares(ram, ram.root());
  const auto rem_spill = remainder_tree_squares(spilled, spilled.root());
  EXPECT_EQ(rem_ram, rem_spill);

  // A spilled tree never exposes levels() — that is the RAM backend's API.
  EXPECT_THROW((void)spilled.levels(), std::logic_error);

  const auto snap = registry.snapshot();
  EXPECT_GT(snap.counter("spill.bytes_written"), 0u);
  EXPECT_GT(snap.counter("spill.bytes_read"), 0u);
  EXPECT_EQ(snap.counter("spill.levels_spilled"), spilled.level_count());
  EXPECT_EQ(snap.counter("spill.verify_failures"), 0u);
}

TEST(SpillStore, BatchGcdOutOfCoreIsByteIdentical) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(40, 2);
  const BatchGcdResult ram = batch_gcd(moduli);
  obs::MetricsRegistry registry;
  const TreeStorage storage = make_storage(dir, &registry);
  const BatchGcdResult spilled = batch_gcd(moduli, nullptr, &storage);
  EXPECT_EQ(ram.divisors, spilled.divisors);
  EXPECT_EQ(ram.vulnerable_indices(), spilled.vulnerable_indices());
  // Graceful completion removes the level files: nothing left to leak.
  EXPECT_FALSE(file_exists(dir.path() + "/tree.L0.wkl"));
}

TEST(SpillStore, DistributedWithStorageIsByteIdentical) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(30, 3);
  const BatchGcdResult ram = batch_gcd_distributed(moduli, 3);
  obs::MetricsRegistry registry;
  const TreeStorage storage = make_storage(dir, &registry);
  util::ThreadPool pool(4);
  DistributedOptions options;
  options.storage = &storage;
  const BatchGcdResult spilled =
      batch_gcd_distributed(moduli, 3, &pool, nullptr, options);
  EXPECT_EQ(ram.divisors, spilled.divisors);
  // Each subset tree spilled under its own base.
  EXPECT_GE(registry.snapshot().counter("spill.levels_spilled"), 3u);
}

TEST(SpillStore, ResidentWindowStaysBounded) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(60, 4);
  obs::MetricsRegistry registry;
  const ProductTree tree(moduli, make_storage(dir, &registry));
  (void)remainder_tree_squares(tree, tree.root());
  const auto snap = registry.snapshot();
  const auto peak = snap.gauges.find("spill.resident_bytes_peak");
  ASSERT_NE(peak, snap.gauges.end());
  std::uint64_t total_bytes = 0;
  for (const auto& s : tree.level_stats()) total_bytes += s.bytes;
  // Bounded residency: the peak window is well under the whole tree (the
  // whole point of spilling). Two levels resident -> less than half.
  EXPECT_GT(peak->second, 0);
  EXPECT_LT(static_cast<std::uint64_t>(peak->second), total_bytes / 2);
  // The walk released every level it loaded: nothing stays resident.
  EXPECT_EQ(tree.store().resident_bytes(), 0u);
}

TEST(SpillStore, PeakCountsLevelsHeldByCallers) {
  // The build reads level k-1 through its handle while it appends level k,
  // so both are in memory even though only level k is in the window; the
  // peak and its gauge must count the level the caller still holds.
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(60, 4);
  obs::MetricsRegistry registry;
  const ProductTree tree(moduli, make_storage(dir, &registry));
  const auto& levels = tree.level_stats();
  ASSERT_GE(levels.size(), 2u);
  const std::uint64_t two_levels = levels[0].bytes + levels[1].bytes;
  EXPECT_GE(tree.store().peak_resident_bytes(), two_levels);
  EXPECT_EQ(registry.snapshot().gauges.at("spill.resident_bytes_peak"),
            static_cast<std::int64_t>(tree.store().peak_resident_bytes()));
}

TEST(SpillStore, HealsCorruptMidLevelFromChildren) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(40, 5);
  obs::MetricsRegistry registry;
  ProductTree tree(moduli, make_storage(dir, &registry));
  const ProductTree ram(moduli);
  ASSERT_GT(tree.level_count(), 3u);

  // Flip one payload byte of level 2 on disk, then force a fresh read.
  const std::string level2 = dir.path() + "/tree.L2.wkl";
  std::vector<std::uint8_t> bytes = read_file(level2);
  bytes[bytes.size() - util::kSpillFooterSize - 1] ^= 0x01;
  write_file(level2, bytes);

  LevelStore& store = tree.store();
  store.release_level(2);  // make sure it is not resident
  const LevelHandle healed = store.load_level(2);
  EXPECT_EQ(*healed, ram.levels()[2]);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("spill.verify_failures"), 1u);
  EXPECT_EQ(snap.counter("spill.heals"), 1u);
  EXPECT_EQ(snap.counter("spill.rebuilds"), 0u);

  // The heal rewrote the level: the next read is clean.
  util::SpillFileHeader header;
  std::vector<std::vector<std::uint8_t>> records;
  EXPECT_EQ(util::read_spill_file(level2, fingerprint_moduli(moduli), &header,
                                  &records),
            SpillFileStatus::kOk);
}

TEST(SpillStore, RebuildsCorruptLeafLevelFromModuli) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(40, 6);
  obs::MetricsRegistry registry;
  ProductTree tree(moduli, make_storage(dir, &registry));

  const std::string level0 = dir.path() + "/tree.L0.wkl";
  std::vector<std::uint8_t> bytes = read_file(level0);
  bytes[util::kSpillHeaderSize + 4] ^= 0xff;
  write_file(level0, bytes);

  LevelStore& store = tree.store();
  store.release_level(0);
  const LevelHandle rebuilt = store.load_level(0);
  ASSERT_EQ(rebuilt->size(), moduli.size());
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    EXPECT_EQ((*rebuilt)[i], moduli[i]);
  }
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("spill.verify_failures"), 1u);
  EXPECT_EQ(snap.counter("spill.heals"), 0u);
  EXPECT_EQ(snap.counter("spill.rebuilds"), 1u);
}

TEST(SpillStore, EveryLevelBitFlippedStillHealsToIdenticalResult) {
  // Post-publish bit flip on *every* spill write: every load verify-fails
  // and the store must heal recursively down to a leaf rebuild. The
  // invariant and the output both survive.
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(30, 7);
  const BatchGcdResult ram = batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 42;
  faults.storage_bit_flip_probability = 1.0;
  util::FaultInjector injector(faults);
  obs::MetricsRegistry registry;
  TreeStorage storage = make_storage(dir, &registry);
  storage.injector = &injector;

  const BatchGcdResult spilled = batch_gcd(moduli, nullptr, &storage);
  EXPECT_EQ(ram.divisors, spilled.divisors);
  const auto snap = registry.snapshot();
  EXPECT_GT(snap.counter("spill.verify_failures"), 0u);
  EXPECT_EQ(snap.counter("spill.verify_failures"),
            snap.counter("spill.heals") + snap.counter("spill.rebuilds"));
}

TEST(SpillStore, ShortWritesWalkTheLadderAndResultsMatch) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(30, 8);
  const BatchGcdResult ram = batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 7;
  faults.storage_short_write_probability = 0.5;
  faults.storage_fsync_fail_probability = 0.2;
  util::FaultInjector injector(faults);
  obs::MetricsRegistry registry;
  TreeStorage storage = make_storage(dir, &registry);
  storage.injector = &injector;

  const BatchGcdResult spilled = batch_gcd(moduli, nullptr, &storage);
  EXPECT_EQ(ram.divisors, spilled.divisors);
  const auto snap = registry.snapshot();
  // The schedule is dense enough that the ladder engaged somewhere.
  EXPECT_GT(snap.counter("spill.write_retries") +
                snap.counter("spill.degraded_levels"),
            0u);
  EXPECT_EQ(snap.counter("spill.verify_failures"),
            snap.counter("spill.heals") + snap.counter("spill.rebuilds"));
}

TEST(SpillStore, EnospcDegradesToRamFallbackWithIdenticalResult) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(30, 9);
  const BatchGcdResult ram = batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 1;
  faults.storage_enospc_probability = 1.0;  // every write fails: disk full
  util::FaultInjector injector(faults);
  obs::MetricsRegistry registry;
  TreeStorage storage = make_storage(dir, &registry);
  storage.injector = &injector;

  const BatchGcdResult spilled = batch_gcd(moduli, nullptr, &storage);
  EXPECT_EQ(ram.divisors, spilled.divisors);
  const auto snap = registry.snapshot();
  EXPECT_GT(snap.counter("spill.enospc"), 0u);
  EXPECT_GT(snap.counter("spill.window_shrinks"), 0u);
  EXPECT_GT(snap.counter("spill.degraded_levels"), 0u);
}

TEST(SpillStore, ExhaustedFallbackBudgetCancelsCleanly) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(30, 10);

  util::FaultConfig faults;
  faults.seed = 1;
  faults.storage_enospc_probability = 1.0;
  util::FaultInjector injector(faults);
  obs::MetricsRegistry registry;
  TreeStorage storage = make_storage(dir, &registry);
  storage.injector = &injector;
  storage.ram_fallback_budget_bytes = 1;  // nothing fits: the ladder ends

  try {
    (void)batch_gcd(moduli, nullptr, &storage);
    FAIL() << "expected StorageError";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind(), StorageErrorKind::kExhausted);
  }
}

TEST(SpillStore, ResumesFromPublishedLevels) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(40, 11);
  const ProductTree ram(moduli);

  obs::MetricsRegistry first_registry;
  TreeStorage storage = make_storage(dir, &first_registry);
  storage.remove_on_destroy = false;  // simulate SIGKILL: files survive
  std::size_t levels = 0;
  {
    const ProductTree first(moduli, storage);
    levels = first.level_count();
    ASSERT_GT(levels, 0u);
  }
  ASSERT_TRUE(file_exists(dir.path() + "/tree.L0.wkl"));

  // Second run over the same dir/corpus resumes instead of rebuilding.
  obs::MetricsRegistry second_registry;
  TreeStorage resumed_storage = make_storage(dir, &second_registry);
  const ProductTree resumed(moduli, resumed_storage);
  EXPECT_EQ(resumed.root(), ram.root());
  const auto snap = second_registry.snapshot();
  EXPECT_EQ(snap.counter("spill.levels_resumed"), levels);
  EXPECT_EQ(snap.counter("spill.levels_spilled"), 0u);
  EXPECT_EQ(remainder_tree_squares(resumed, resumed.root()),
            remainder_tree_squares(ram, ram.root()));
}

TEST(SpillStore, StaleGenerationLevelsAreNotResumed) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(20, 12);
  const std::vector<BigInt> other = make_moduli(20, 13);

  obs::MetricsRegistry registry;
  TreeStorage storage = make_storage(dir, &registry);
  storage.remove_on_destroy = false;
  { const ProductTree first(other, storage); }

  // Same dir, different corpus: the stale files must not be trusted.
  obs::MetricsRegistry second_registry;
  TreeStorage fresh = make_storage(dir, &second_registry);
  const ProductTree tree(moduli, fresh);
  EXPECT_EQ(tree.root(), ProductTree(moduli).root());
  EXPECT_EQ(second_registry.snapshot().counter("spill.levels_resumed"), 0u);
}

TEST(SpillStore, SweepsOrphanedTmpFilesOnConstruction) {
  SpillDir dir(test_name());
  ::mkdir(dir.path().c_str(), 0777);
  const std::string orphan = dir.path() + "/tree.L1.wkl.tmp";
  write_file(orphan, {0xde, 0xad});
  ASSERT_TRUE(file_exists(orphan));

  const std::vector<BigInt> moduli = make_moduli(20, 14);
  obs::MetricsRegistry registry;
  const ProductTree tree(moduli, make_storage(dir, &registry));
  EXPECT_FALSE(file_exists(orphan));
}

TEST(SpillStore, LeafCorruptionWithoutRebuilderIsExhausted) {
  SpillDir dir(test_name());
  Level leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back(BigInt(101 + 2 * i));

  TreeStorage storage;
  storage.spill_dir = dir.path();
  storage.generation = 99;
  SpillLevelStore store(storage, nullptr);  // no rebuild source
  store.append_level(Level(leaves));

  const std::string level0 = store.level_path(0);
  std::vector<std::uint8_t> bytes = read_file(level0);
  bytes[bytes.size() - util::kSpillFooterSize - 1] ^= 0x01;
  write_file(level0, bytes);
  store.release_level(0);
  try {
    (void)store.load_level(0);
    FAIL() << "expected StorageError";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.kind(), StorageErrorKind::kExhausted);
  }
}

TEST(SpillStore, ThresholdKeepsSmallTreesInRam) {
  SpillDir dir(test_name());
  const std::vector<BigInt> moduli = make_moduli(10, 15);
  obs::MetricsRegistry registry;
  TreeStorage storage = make_storage(dir, &registry);
  storage.spill_threshold_bytes = 1ull << 40;  // far above this corpus
  const ProductTree tree(moduli, storage);
  EXPECT_FALSE(tree.spilled());
  EXPECT_EQ(registry.snapshot().counter("spill.levels_spilled"), 0u);
  EXPECT_EQ(tree.root(), ProductTree(moduli).root());
}

}  // namespace
}  // namespace weakkeys::batchgcd
