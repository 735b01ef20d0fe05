#include "batchgcd/remainder_tree.hpp"

#include "obs/mem.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::batchgcd {

using bn::BigInt;

namespace {

/// x mod node^2, skipping the squaring when x is provably below it
/// (x < 2^(2B-2) <= node^2 for a B-bit node). The root of a batch-GCD
/// remainder tree always hits the cheap path: P mod P^2 == P.
BigInt reduce_mod_square(const BigInt& x, const BigInt& node) {
  const std::size_t node_bits = node.bit_length();
  if (node_bits >= 1 && x.bit_length() <= 2 * node_bits - 2) return x;
  return x % node.squared();
}

}  // namespace

std::vector<BigInt> remainder_tree_squares(const ProductTree& tree,
                                           const BigInt& x) {
  static const int mem_label =
      obs::mem::register_label("batchgcd.remainder_tree");
  obs::MemScope mem_scope(mem_label);
  obs::prof::Frame frame("batchgcd.remainder_tree");
  LevelStore& store = tree.store();
  const std::size_t level_count = store.level_stats().size();
  if (level_count == 0) return {};

  // rem[i] holds X mod node_i^2 for the current level. A level's odd
  // trailing node is carried up unchanged by the product tree, so rem[i/2]
  // is its own remainder already and the reduction below is a cheap no-op.
  //
  // Levels stream through the store one at a time (load, walk, release):
  // over the in-RAM backend the load is a free aliasing handle, over the
  // spill backend it is a verified read with at most the configured window
  // resident — only the current and next remainder rows plus one product
  // level are ever in memory.
  std::vector<BigInt> rem = {reduce_mod_square(x, tree.root())};
  for (std::size_t li = level_count - 1; li-- > 0;) {
    const LevelHandle level = store.load_level(li);
    std::vector<BigInt> next(level->size());
    for (std::size_t i = 0; i < level->size(); ++i) {
      next[i] = reduce_mod_square(rem[i / 2], (*level)[i]);
    }
    store.release_level(li);
    rem = std::move(next);
  }
  return rem;
}

}  // namespace weakkeys::batchgcd
