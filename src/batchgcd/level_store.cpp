#include "batchgcd/level_store.hpp"

namespace weakkeys::batchgcd {

LevelStats census_level(const Level& level) {
  LevelStats stats;
  stats.nodes = level.size();
  for (const bn::BigInt& node : level) {
    stats.bytes += static_cast<std::uint64_t>(node.limb_count()) * 8;
  }
  return stats;
}

Level pair_level(const Level& prev) {
  Level next;
  next.reserve((prev.size() + 1) / 2);
  for (std::size_t i = 0; i + 1 < prev.size(); i += 2) {
    next.push_back(prev[i] * prev[i + 1]);
  }
  if (prev.size() % 2 == 1) next.push_back(prev.back());
  return next;
}

std::uint64_t fingerprint_moduli(std::span<const bn::BigInt> moduli) {
  // SplitMix64-style fold over (index, limb) pairs: order-sensitive, so
  // the same set in a different order is a different generation (the spill
  // files' record order is the vulnerable set's index order).
  auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t h = 0x574b4c31u ^ (moduli.size() * 0x9e3779b97f4a7c15ULL);
  for (const bn::BigInt& n : moduli) {
    h = mix(h + 0x2545f4914f6cdd1dULL * (n.limb_count() + 1));
    for (const bn::Limb limb : n.limbs()) h = mix(h ^ limb);
  }
  return h == 0 ? 1 : h;  // 0 means "fingerprint at build time" to callers
}

void RamLevelStore::append_level(Level&& nodes) {
  stats_.push_back(census_level(nodes));
  total_bytes_ += stats_.back().bytes;
  levels_.push_back(std::move(nodes));
}

LevelHandle RamLevelStore::load_level(std::size_t k) {
  // Aliasing handle into the owned vector: no copy, no ownership transfer
  // (the store outlives every walk by construction).
  return LevelHandle(LevelHandle{}, &levels_[k]);
}

}  // namespace weakkeys::batchgcd
