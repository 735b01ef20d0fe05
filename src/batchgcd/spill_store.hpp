// Disk-backed LevelStore: the out-of-core half of the product tree.
//
// Each appended level is serialized (one record per node, raw little-endian
// limbs) into a generation-stamped spill file (util/spill_file.hpp) and
// published atomically; a bounded LRU window of recently used levels stays
// resident, so a build holds at most two levels in RAM (prev + next) and
// the remainder walk holds one product level plus its remainder rows.
//
// Robustness contract, mirroring the network tier's:
//   * every load fully CRC-verifies the level; a corrupt level is healed
//     by recomputing it from its children (level 0 rebuilds from the
//     moduli via the `rebuild_leaves` callback) and rewritten in place —
//     `spill.verify_failures == spill.heals + spill.rebuilds` always;
//   * a failed write walks the degradation ladder: retry after shrinking
//     the resident window to one level, then fall back to pinning levels
//     in RAM while they fit `ram_fallback_budget_bytes`, then cancel
//     cleanly with util::StorageError(kExhausted);
//   * a SIGKILL at any boundary leaves only complete published levels
//     (atomic publish) — a new store over the same dir/generation resumes
//     from them (`spill.levels_resumed`) instead of rebuilding;
//   * every operation can be perturbed by the FaultInjector storage tier,
//     so all of the above is exercised deterministically in tests and the
//     disk-chaos CI job.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <utility>

#include "batchgcd/level_store.hpp"
#include "util/spill_file.hpp"

namespace weakkeys::obs {
class Counter;
class Gauge;
}  // namespace weakkeys::obs

namespace weakkeys::batchgcd {

class SpillLevelStore final : public LevelStore {
 public:
  /// `storage` must have a non-empty spill_dir and a nonzero generation.
  /// `rebuild_leaves` recomputes level 0 for the heal path (typically a
  /// copy of the input moduli); without it a corrupt level 0 is
  /// unrecoverable and loads throw util::StorageError(kExhausted).
  SpillLevelStore(const TreeStorage& storage,
                  std::function<Level()> rebuild_leaves);
  ~SpillLevelStore() override;
  SpillLevelStore(const SpillLevelStore&) = delete;
  SpillLevelStore& operator=(const SpillLevelStore&) = delete;

  void append_level(Level&& nodes) override;
  [[nodiscard]] std::size_t level_count() const override;
  [[nodiscard]] LevelHandle load_level(std::size_t k) override;
  void release_level(std::size_t k) override;
  [[nodiscard]] const std::vector<LevelStats>& level_stats() const override;
  [[nodiscard]] std::uint64_t resident_bytes() const override;
  [[nodiscard]] std::uint64_t peak_resident_bytes() const override;
  [[nodiscard]] bool spilled() const override { return true; }

  /// Levels found already published (valid header, matching generation)
  /// when the store was constructed — the SIGKILL-resume path.
  [[nodiscard]] std::size_t resumed_levels() const { return resumed_; }

  /// True once a write has fallen off the disk rungs of the ladder and
  /// levels are being pinned in RAM instead.
  [[nodiscard]] bool degraded() const;

  [[nodiscard]] std::string level_path(std::size_t k) const;

 private:
  struct Metrics {
    obs::Counter* bytes_written = nullptr;
    obs::Counter* bytes_read = nullptr;
    obs::Counter* levels_spilled = nullptr;
    obs::Counter* levels_resumed = nullptr;
    obs::Counter* verify_failures = nullptr;
    obs::Counter* heals = nullptr;
    obs::Counter* rebuilds = nullptr;
    obs::Counter* write_retries = nullptr;
    obs::Counter* window_shrinks = nullptr;
    obs::Counter* enospc = nullptr;
    obs::Counter* degraded_levels = nullptr;
    obs::Gauge* resident_levels = nullptr;
    obs::Gauge* resident_bytes_gauge = nullptr;
    obs::Gauge* resident_bytes_peak = nullptr;
  };

  [[nodiscard]] util::SpillIoHooks hooks() const;
  void probe_resume_locked();
  void write_level_locked(std::size_t k, const Level& nodes);
  [[nodiscard]] LevelHandle load_locked(std::size_t k);
  [[nodiscard]] Level read_or_heal_locked(std::size_t k);
  void insert_resident_locked(std::size_t k, LevelHandle handle);
  void evict_excess_locked(std::size_t keep);
  void drop_resident_locked(std::size_t k);
  void update_gauges_locked();

  TreeStorage config_;
  std::function<Level()> rebuild_leaves_;
  Metrics metrics_;

  mutable std::mutex mu_;
  std::vector<LevelStats> stats_;
  /// Disk-backed resident window, LRU-evicted beyond the window size.
  std::map<std::size_t, LevelHandle> resident_;
  std::list<std::size_t> lru_;  ///< front = least recently used
  /// Degradation-ladder RAM fallback: levels that could not be spilled,
  /// pinned for the store's lifetime (never evicted).
  std::map<std::size_t, LevelHandle> pinned_;
  std::uint64_t pinned_bytes_ = 0;
  std::uint64_t resident_bytes_ = 0;  ///< window + pinned
  /// Levels dropped from the window, each counted in the peak while a
  /// caller's handle still keeps it alive.
  std::vector<std::pair<std::size_t, std::weak_ptr<const Level>>> released_;
  std::uint64_t resident_peak_ = 0;  ///< window + pinned + released_ alive
  std::size_t window_ = 2;
  std::size_t resumed_ = 0;
  bool degraded_ = false;
  mutable std::uint64_t op_seq_ = 0;  ///< storage-fault operation counter
};

}  // namespace weakkeys::batchgcd
