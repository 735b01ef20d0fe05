#include "batchgcd/product_tree.hpp"

#include <stdexcept>
#include <string>

#include "batchgcd/spill_store.hpp"
#include "obs/metrics.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::batchgcd {

namespace {

/// Interned profiler frame for level `k`. The table is keyed by the
/// level-index string, so every tree build in the process shares one slot
/// per level index (level counts are logarithmic in corpus size — a
/// 4096-leaf tree has 13).
const char* level_frame(std::size_t k) {
  return obs::prof::intern("batchgcd.product_tree.level" + std::to_string(k));
}

}  // namespace

std::uint64_t estimate_tree_bytes(std::span<const bn::BigInt> inputs) {
  std::uint64_t leaf_bytes = 0;
  for (const bn::BigInt& n : inputs) {
    leaf_bytes += static_cast<std::uint64_t>(n.limb_count()) * 8;
  }
  std::uint64_t levels = 1;
  for (std::size_t n = inputs.size(); n > 1; n = (n + 1) / 2) ++levels;
  // Every level's payload is roughly the leaf payload (products conserve
  // bit length up to carries), so the whole tree is ~leaf_bytes * depth.
  return leaf_bytes * levels;
}

ProductTree::ProductTree(std::span<const bn::BigInt> inputs)
    : store_(std::make_unique<RamLevelStore>()) {
  build(inputs);
}

ProductTree::ProductTree(std::span<const bn::BigInt> inputs,
                         const TreeStorage& storage) {
  if (storage.should_spill(estimate_tree_bytes(inputs)) && !inputs.empty()) {
    TreeStorage resolved = storage;
    if (resolved.generation == 0) {
      resolved.generation = fingerprint_moduli(inputs);
    }
    // Heal source for level 0: a copy of the inputs. The copy is the price
    // of self-healing — without it a corrupt leaf file would be fatal.
    std::vector<bn::BigInt> leaves(inputs.begin(), inputs.end());
    store_ = std::make_unique<SpillLevelStore>(
        resolved, [leaves = std::move(leaves)]() {
          return Level(leaves.begin(), leaves.end());
        });
  } else {
    store_ = std::make_unique<RamLevelStore>();
  }
  build(inputs);
}

void ProductTree::build(std::span<const bn::BigInt> inputs) {
  if (inputs.empty()) return;
  obs::prof::Frame build_frame("batchgcd.product_tree.build");
  std::size_t have = store_->level_stats().size();  // resumed levels
  if (have == 0) {
    obs::prof::Frame frame(level_frame(0));
    store_->append_level(Level(inputs.begin(), inputs.end()));
    have = 1;
  }
  while (store_->level_stats().back().nodes > 1) {
    obs::prof::Frame frame(level_frame(have));
    const LevelHandle prev = store_->load_level(have - 1);
    Level next = pair_level(*prev);
    store_->release_level(have - 1);
    store_->append_level(std::move(next));
    ++have;
  }
  const std::size_t top = store_->level_stats().size() - 1;
  top_ = store_->load_level(top);
  store_->release_level(top);
}

const bn::BigInt& ProductTree::root() const {
  static const bn::BigInt kEmptyProduct(1);
  return top_ ? top_->front() : kEmptyProduct;
}

const bn::BigInt& ProductTree::root_reciprocal() const {
  std::call_once(reciprocal_->once, [this] {
    obs::prof::Frame frame("batchgcd.remainder_tree.reciprocal");
    reciprocal_->value =
        bn::reciprocal(root(), 2 * root().bit_length() + kFractionGuardBits);
  });
  return reciprocal_->value;
}

const std::vector<Level>& ProductTree::levels() const {
  const auto* ram = dynamic_cast<const RamLevelStore*>(store_.get());
  if (ram == nullptr) {
    throw std::logic_error(
        "ProductTree::levels() is only available on the in-RAM backend; "
        "stream spilled trees through store()");
  }
  return ram->levels();
}

std::uint64_t ProductTree::retained_bytes() const {
  std::uint64_t total = 0;
  for (const LevelStats& stats : store_->level_stats()) total += stats.bytes;
  return total;
}

void ProductTree::publish_level_stats(obs::MetricsRegistry& registry) const {
  const auto& level_stats = store_->level_stats();
  for (std::size_t k = 0; k < level_stats.size(); ++k) {
    const std::string prefix =
        "batchgcd.product_tree.level" + std::to_string(k);
    registry.gauge(prefix + ".bytes")
        .set(static_cast<std::int64_t>(level_stats[k].bytes));
    registry.gauge(prefix + ".nodes")
        .set(static_cast<std::int64_t>(level_stats[k].nodes));
  }
  registry.gauge("batchgcd.product_tree.bytes_peak")
      .set(static_cast<std::int64_t>(retained_bytes()));
}

}  // namespace weakkeys::batchgcd
