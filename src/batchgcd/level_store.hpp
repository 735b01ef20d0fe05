// Level storage behind the product / remainder trees.
//
// A product tree is a stack of levels (level 0 = the leaves, back = {root})
// that the remainder tree walks top-down. Everything the two trees need
// from storage is this narrow interface: append the next level, load one
// level for reading, release it when the walk moves on. Two backends
// implement it — RamLevelStore keeps every level resident (the paper's
// configuration, fastest at small corpora) and SpillLevelStore
// (spill_store.hpp) keeps levels on disk with a bounded resident window,
// which is what makes 10^6+-moduli trees fit in a fixed memory budget.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bn/bigint.hpp"
#include "util/fault_injector.hpp"

namespace weakkeys::obs {
class MetricsRegistry;
}

namespace weakkeys::batchgcd {

/// One tree level: node i of level k is the product of nodes 2i and 2i+1
/// of level k-1 (an odd trailing node is carried up unchanged).
using Level = std::vector<bn::BigInt>;

/// A loaded level. Holding the handle keeps the level alive even after the
/// store evicts it from its resident window, so readers never see a level
/// disappear mid-walk.
using LevelHandle = std::shared_ptr<const Level>;

/// Retained storage for one level: node count and exact payload bytes
/// (limb_count * 8 summed over the level's nodes).
struct LevelStats {
  std::size_t nodes = 0;
  std::uint64_t bytes = 0;
};

[[nodiscard]] LevelStats census_level(const Level& level);

/// Level k+1 from level k: adjacent pairs multiplied, odd trailing node
/// carried up. The product-tree build loop and the spill store's heal path
/// share this so a healed level is byte-identical to a built one.
[[nodiscard]] Level pair_level(const Level& prev);

/// Order-sensitive 64-bit fingerprint of a modulus set — the generation
/// stamp that binds spill files to the corpus they were built from.
[[nodiscard]] std::uint64_t fingerprint_moduli(
    std::span<const bn::BigInt> moduli);

class LevelStore {
 public:
  virtual ~LevelStore() = default;

  /// Appends the next level (index == level_count()); the store takes
  /// ownership. A spilling backend may throw util::StorageError when its
  /// whole degradation ladder fails.
  virtual void append_level(Level&& nodes) = 0;

  [[nodiscard]] virtual std::size_t level_count() const = 0;

  /// Loads level k for reading. A spilling backend verifies the level's
  /// CRC and heals/rebuilds it when corrupt before returning.
  [[nodiscard]] virtual LevelHandle load_level(std::size_t k) = 0;

  /// Hints that the caller is done reading level k; a spilling backend
  /// drops it from the resident window (outstanding handles stay valid).
  virtual void release_level(std::size_t k) = 0;

  /// Per-level census, index-aligned with levels; for a spilled store the
  /// resumed levels' stats come from the level-file headers.
  [[nodiscard]] virtual const std::vector<LevelStats>& level_stats()
      const = 0;

  /// Bytes currently held in memory (every level for the RAM backend, the
  /// resident window for the spill backend).
  [[nodiscard]] virtual std::uint64_t resident_bytes() const = 0;

  /// High-water mark of the bytes the store's levels hold in memory: the
  /// whole tree for the RAM backend; for the spill backend the resident
  /// window plus pinned levels plus levels released from the window whose
  /// handles a caller still holds — the bounded-memory proof.
  [[nodiscard]] virtual std::uint64_t peak_resident_bytes() const = 0;

  [[nodiscard]] virtual bool spilled() const { return false; }
};

/// The in-RAM backend: every level stays resident, exactly the pre-spill
/// ProductTree behavior. Nothing is ever released, so the peak is the
/// total.
class RamLevelStore final : public LevelStore {
 public:
  void append_level(Level&& nodes) override;
  [[nodiscard]] std::size_t level_count() const override {
    return levels_.size();
  }
  [[nodiscard]] LevelHandle load_level(std::size_t k) override;
  void release_level(std::size_t /*k*/) override {}
  [[nodiscard]] const std::vector<LevelStats>& level_stats() const override {
    return stats_;
  }
  [[nodiscard]] std::uint64_t resident_bytes() const override {
    return total_bytes_;
  }
  [[nodiscard]] std::uint64_t peak_resident_bytes() const override {
    return total_bytes_;
  }

  [[nodiscard]] const std::vector<Level>& levels() const { return levels_; }

 private:
  std::vector<Level> levels_;
  std::vector<LevelStats> stats_;
  std::uint64_t total_bytes_ = 0;
};

/// Storage policy for a tree build: where (and whether) to spill. An empty
/// `spill_dir` disables spilling outright; otherwise a tree spills when
/// its estimated retained bytes reach `spill_threshold_bytes` (0 = always
/// spill). Carried by value — one policy can parameterize many subset
/// trees (each caller overrides `base`/`fault_stream` per tree).
struct TreeStorage {
  std::string spill_dir;
  std::uint64_t spill_threshold_bytes = 0;
  /// Level-file name prefix within spill_dir ("<base>.L<k>.wkl").
  std::string base = "tree";
  /// Corpus generation stamp; 0 = fingerprint the inputs at build time.
  std::uint64_t generation = 0;
  /// Resident-window size; 2 covers the build (prev + next) and the
  /// remainder walk (one product level + the handle the walker holds).
  std::size_t max_resident_levels = 2;
  /// Storage-tier fault injection (deterministic chaos runs).
  const util::FaultInjector* injector = nullptr;
  std::uint64_t fault_stream = 0;
  /// spill.* counters/gauges land here when set.
  obs::MetricsRegistry* registry = nullptr;
  /// Degradation ladder's last rung: when a spill write keeps failing the
  /// store falls back to holding levels in RAM, but only while the pinned
  /// bytes stay under this budget (0 = unlimited); past it the build
  /// cancels with util::StorageError(kExhausted).
  std::uint64_t ram_fallback_budget_bytes = 0;
  /// Remove the level files when the store is destroyed (graceful
  /// completion). A SIGKILL skips destructors, which is exactly what lets
  /// a resumed run find and reuse the published levels.
  bool remove_on_destroy = true;

  [[nodiscard]] bool enabled() const { return !spill_dir.empty(); }
  [[nodiscard]] bool should_spill(std::uint64_t estimated_bytes) const {
    return enabled() && estimated_bytes >= spill_threshold_bytes;
  }
};

}  // namespace weakkeys::batchgcd
