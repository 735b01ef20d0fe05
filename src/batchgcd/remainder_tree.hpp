// Remainder tree: given X and a product tree over {N_1..N_n}, computes
// z_i = X mod N_i^2 for every leaf by reducing X down the tree modulo the
// square of each node (Bernstein's batch-GCD formulation, which avoids a
// second product tree over the N_i^2).
#pragma once

#include <vector>

#include "batchgcd/product_tree.hpp"
#include "bn/bigint.hpp"

namespace weakkeys::batchgcd {

/// z_i = X mod N_i^2 for each leaf N_i of `tree`.
std::vector<bn::BigInt> remainder_tree_squares(const ProductTree& tree,
                                               const bn::BigInt& x);

}  // namespace weakkeys::batchgcd
