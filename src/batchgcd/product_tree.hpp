// Product tree (Bernstein): computes the product of n inputs as a binary
// tree, keeping every level. The remainder tree walks the levels back down.
//
// Levels live behind the LevelStore abstraction (level_store.hpp). The
// default backend holds the whole tree in RAM — the paper's key
// optimization over the original factorable.net code, which spilled levels
// to disk (Section 3.2). At corpus scale (10^6+ moduli) the tree stops
// fitting and the TreeStorage-configured build spills each level to a
// CRC-framed, generation-stamped file instead, streaming with a bounded
// resident window — factorable.net's disk tier, rebuilt on this codebase's
// crash- and corruption-safety conventions (see spill_store.hpp). The
// per-level byte census (level_stats(), publish_level_stats()) is recorded
// identically by both backends.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "batchgcd/level_store.hpp"
#include "bn/bigint.hpp"

namespace weakkeys::obs {
class MetricsRegistry;
}

namespace weakkeys::batchgcd {

class ProductTree {
 public:
  using LevelStats = batchgcd::LevelStats;

  /// Builds the tree over `inputs` (level 0 = the inputs themselves),
  /// entirely in RAM. An empty input set yields a tree whose root is 1.
  explicit ProductTree(std::span<const bn::BigInt> inputs);

  /// Builds through `storage`: when the policy says spill (spill_dir set
  /// and the estimated tree size reaches the threshold), levels go to disk
  /// and only storage.max_resident_levels stay in memory — and a build
  /// interrupted by SIGKILL resumes from the published levels on the next
  /// run. Otherwise identical to the in-RAM constructor. The store's
  /// peak_resident_bytes() is the bounded-peak-memory proof. Throws
  /// util::StorageError when storage fails beyond the degradation ladder.
  ProductTree(std::span<const bn::BigInt> inputs, const TreeStorage& storage);

  ~ProductTree() = default;
  ProductTree(const ProductTree&) = delete;
  ProductTree& operator=(const ProductTree&) = delete;
  ProductTree(ProductTree&&) noexcept = default;
  ProductTree& operator=(ProductTree&&) noexcept = default;

  [[nodiscard]] std::size_t leaf_count() const {
    const auto& stats = store_->level_stats();
    return stats.empty() ? 0 : stats.front().nodes;
  }

  /// The product of all inputs (1 for an empty tree). The root level is
  /// held from build time on (for the in-RAM backend the level itself, not
  /// a copy), so it is available without touching storage.
  [[nodiscard]] const bn::BigInt& root() const;

  /// floor(2^(2 * bits(root) + kFractionGuardBits) / root): the root
  /// reciprocal every scaled remainder walk over this tree starts from
  /// (remainder_tree.hpp). Computed on the first call, under a once-flag,
  /// and kept with the tree, so concurrent walks share one. It is not a
  /// level: the census, total_limbs() and max_node_limbs() ignore it.
  const bn::BigInt& root_reciprocal() const;

  /// Number of levels (0 for an empty tree).
  [[nodiscard]] std::size_t level_count() const {
    return store_->level_stats().size();
  }

  /// The level storage. The remainder tree streams levels through this
  /// (load, walk, release) so it works identically over both backends.
  [[nodiscard]] LevelStore& store() const { return *store_; }

  /// True when this tree's levels live on disk.
  [[nodiscard]] bool spilled() const { return store_->spilled(); }

  /// levels()[0] are the leaves; levels().back() is {root}. Only valid for
  /// the in-RAM backend (throws std::logic_error on a spilled tree) — the
  /// streaming callers use store() instead.
  [[nodiscard]] const std::vector<Level>& levels() const;

  /// Per-level byte/node census, index-aligned with the levels.
  [[nodiscard]] const std::vector<LevelStats>& level_stats() const {
    return store_->level_stats();
  }

  /// Sum of level_stats() bytes — the tree's exact payload (on disk plus
  /// in RAM for a spilled tree).
  [[nodiscard]] std::uint64_t retained_bytes() const;

  /// Mirrors the census into `registry`:
  /// `batchgcd.product_tree.level<k>.bytes` / `.nodes` gauges per level
  /// plus `batchgcd.product_tree.bytes_peak` (= retained_bytes(), which is
  /// store().peak_resident_bytes() for an in-RAM tree).
  void publish_level_stats(obs::MetricsRegistry& registry) const;

  /// Total storage across all levels, in limbs (the paper reports 70-100 GB
  /// per cluster node at full scale; this is the equivalent metric here).
  [[nodiscard]] std::size_t total_limbs() const {
    return retained_bytes() / 8;
  }

  /// Size of the largest node, in limbs — the central-bottleneck metric the
  /// distributed variant exists to shrink. The root is always the largest
  /// node (it is the product of every other one).
  [[nodiscard]] std::size_t max_node_limbs() const {
    return root().limb_count() * (level_count() > 0 ? 1 : 0);
  }

 private:
  void build(std::span<const bn::BigInt> inputs);

  struct Reciprocal {
    std::once_flag once;
    bn::BigInt value;
  };

  std::unique_ptr<LevelStore> store_;
  LevelHandle top_;  ///< the root level; null for an empty tree
  std::unique_ptr<Reciprocal> reciprocal_ = std::make_unique<Reciprocal>();
};

/// Guard bits of the remainder tree's fixed-point fractions: a node of B
/// bits carries 2 * B + kFractionGuardBits fraction bits.
inline constexpr std::size_t kFractionGuardBits = 64;

/// Estimated retained bytes of a product tree over `inputs`: input bytes
/// times the level count. The spill policy compares this against
/// TreeStorage::spill_threshold_bytes before the build starts.
[[nodiscard]] std::uint64_t estimate_tree_bytes(
    std::span<const bn::BigInt> inputs);

}  // namespace weakkeys::batchgcd
