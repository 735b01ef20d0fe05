// Remainder tree: pushes X down a product tree over {N_1..N_n} without a
// division at any node (Bernstein, "Scaled remainder trees", 2004).
//
// Instead of the remainders X mod v^e, every node v carries a fixed-point
// fraction y_v ~ frac(X / v^e). For a child c with sibling s (v = c * s),
// X / c^e = (X / v^e) * s^e, so frac(X / c^e) = frac(y_v * s^e): one
// multiplication, truncated to e * bits(c) + 64 fraction bits. A task's
// root fraction comes from the tree's cached root reciprocal
// (ProductTree::root_reciprocal); any other X mod N^2 input starts from one
// exact division at the root. A leaf N reads its residue off
// round(y_N * N^e). Each truncation costs at most one unit in the last
// place and the multiplication by s^e scales the error exactly as the
// precision drops, so every leaf is exact (DESIGN.md §5m has the bound).
//
// e = 2 gives X mod N^2, the batch-GCD formulation that avoids a second
// product tree over the N_i^2; e = 1 gives X mod N at half the precision,
// which is all an off-diagonal k-subset task needs.
#pragma once

#include <vector>

#include "batchgcd/product_tree.hpp"
#include "bn/bigint.hpp"

namespace weakkeys::batchgcd {

/// z_i = X mod N_i^2 for each leaf N_i of `tree`. Throws
/// std::invalid_argument for X < 0.
std::vector<bn::BigInt> remainder_tree_squares(const ProductTree& tree,
                                               const bn::BigInt& x);

/// The remainder walk of one k-subset task (task_set.hpp): pushes the
/// product `x` through the subset's `tree` and returns, per leaf N_i,
///
///   diagonal (x is the tree's own root):  u_i = (x / N_i) mod N_i
///   otherwise:                            u_i = x mod N_i
///
/// leaf_claims() turns these into the task's claims. The diagonal walk
/// runs with e = 2 from the root reciprocal alone; the off-diagonal walk
/// runs with e = 1 from the reduction x mod root.
std::vector<bn::BigInt> remainder_task_residues(const ProductTree& tree,
                                                const bn::BigInt& x,
                                                bool diagonal);

}  // namespace weakkeys::batchgcd
