#include "batchgcd/batch_gcd.hpp"

#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"

namespace weakkeys::batchgcd {

using bn::BigInt;

std::vector<std::size_t> BatchGcdResult::vulnerable_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < divisors.size(); ++i) {
    if (divisors[i] > BigInt(1)) out.push_back(i);
  }
  return out;
}

BatchGcdResult batch_gcd(std::span<const BigInt> moduli,
                         const util::CancellationToken* cancel,
                         const TreeStorage* storage) {
  BatchGcdResult result;
  result.divisors.resize(moduli.size());
  if (moduli.empty()) return result;

  if (cancel) cancel->throw_if_cancelled();
  const ProductTree tree = storage != nullptr
                               ? ProductTree(moduli, *storage)
                               : ProductTree(moduli);
  if (cancel) cancel->throw_if_cancelled();
  // The k = 1 row: X' = 1, u_i = (P / N_i) mod N_i.
  const std::vector<BigInt> u = remainder_row_residues(tree, {});
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    if (cancel && (i % 64) == 0) cancel->throw_if_cancelled();
    result.divisors[i] = bn::gcd(moduli[i], u[i]);
  }
  return result;
}

BatchGcdResult naive_pairwise_gcd(std::span<const BigInt> moduli) {
  BatchGcdResult result;
  result.divisors.assign(moduli.size(), BigInt(1));
  const BigInt one(1);
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    for (std::size_t j = i + 1; j < moduli.size(); ++j) {
      const BigInt g = bn::gcd(moduli[i], moduli[j]);
      if (g == one) continue;
      // Accumulate shared factors exactly as the tree formulation does:
      // d_i = gcd(N_i, prod of everything shared).
      result.divisors[i] = bn::gcd(moduli[i], result.divisors[i] * g);
      result.divisors[j] = bn::gcd(moduli[j], result.divisors[j] * g);
    }
  }
  return result;
}

std::optional<Factorization> recover_factors(const BigInt& n,
                                             const BigInt& divisor) {
  if (divisor <= BigInt(1) || divisor >= n) return std::nullopt;
  const auto [q, r] = bn::BigInt::divmod(n, divisor);
  if (!r.is_zero()) return std::nullopt;  // not actually a divisor
  return Factorization{divisor, q};
}

}  // namespace weakkeys::batchgcd
