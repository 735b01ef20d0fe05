// Remainder tree: pushes X down a product tree over {N_1..N_n} without a
// division at any node (Bernstein, "Scaled remainder trees", 2004).
//
// Instead of the remainders X mod v^2, every node v carries a fixed-point
// fraction y_v ~ frac(X / v^2). For a child c with sibling s (v = c * s),
// X / c^2 = (X / v^2) * s^2, so frac(X / c^2) = frac(y_v * s^2): one
// multiplication, truncated to 2 * bits(c) + 64 fraction bits. A row's
// root fraction is exact and comes from the tree's cached root reciprocal
// (ProductTree::root_reciprocal); any other X mod N^2 input starts from one
// exact division at the root. A leaf N reads its residue off
// round(y_N * M) for M = N or N^2. Each truncation costs at most one unit
// in the last place and the multiplication by s^2 scales the error exactly
// as the precision drops, so every leaf is exact (DESIGN.md §5m has the
// bound).
#pragma once

#include <span>
#include <vector>

#include "batchgcd/product_tree.hpp"
#include "bn/bigint.hpp"

namespace weakkeys::batchgcd {

/// z_i = X mod N_i^2 for each leaf N_i of `tree`. Throws
/// std::invalid_argument for X < 0.
std::vector<bn::BigInt> remainder_tree_squares(const ProductTree& tree,
                                               const bn::BigInt& x);

/// The exact root fraction of a row, y = floor(x * 2^(2b+64) / P) for the
/// b-bit root P of `tree` and 0 <= x < P: x * J plus one Barrett step for
/// floor(x * (2^(2b+64) - J * P) / P). Throws std::invalid_argument for x
/// outside [0, P).
bn::BigInt row_fraction(const ProductTree& tree, const bn::BigInt& x);

/// The remainder walk of one row (task_set.hpp): the subset's `tree`, with
/// P_a its root and P = P_a * prod(others), returns per leaf N_i
///
///   u_i = (P / N_i) mod N_i,
///
/// the single-tree batch_gcd() residue: one walk from the root fraction
/// row_fraction(tree, X'_a), where X'_a = prod_b (P_b mod P_a) mod P_a
/// carries the other products into subset a at root size, every modular
/// product a Barrett step through the cached root reciprocal. With no
/// others that fraction is the root reciprocal itself.
std::vector<bn::BigInt> remainder_row_residues(
    const ProductTree& tree, std::span<const bn::BigInt* const> others);

}  // namespace weakkeys::batchgcd
