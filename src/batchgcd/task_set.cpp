#include "batchgcd/task_set.hpp"

#include <algorithm>

namespace weakkeys::batchgcd {

using bn::BigInt;

std::vector<TaskClaim> leaf_claims(std::span<const BigInt> leaves,
                                   std::span<const BigInt> u) {
  std::vector<TaskClaim> claims;
  const BigInt one(1);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    BigInt g = bn::gcd(leaves[i], u[i]);
    if (g > one) {
      claims.push_back({static_cast<std::uint32_t>(i), std::move(g)});
    }
  }
  return claims;
}

TaskSet::TaskSet(std::span<const BigInt> moduli, std::size_t k)
    : moduli_(moduli),
      k_(std::clamp<std::size_t>(k, 1,
                                 std::max<std::size_t>(moduli.size(), 1))),
      partial_(moduli.size(), BigInt(1)),
      done_(k_, 0),
      locks_(k_) {
  const std::size_t base = moduli.size() / k_;
  const std::size_t extra = moduli.size() % k_;
  offsets_.push_back(0);
  for (std::size_t a = 0; a < k_; ++a) {
    offsets_.push_back(offsets_.back() + base + (a < extra ? 1 : 0));
  }
}

bool TaskSet::verify(std::size_t task,
                     const std::vector<TaskClaim>& claims) const {
  if (task >= size()) return false;
  const auto leaves = subset(task);
  const BigInt one(1);
  for (const auto& claim : claims) {
    if (claim.leaf >= leaves.size()) return false;
    const BigInt& n = leaves[claim.leaf];
    if (!(claim.divisor > one) || claim.divisor > n) return false;
    if (!(n % claim.divisor == BigInt(0))) return false;
  }
  return true;
}

std::size_t TaskSet::open_journal(const std::string& path) {
  return journal_.open(
      path, fingerprint(), static_cast<std::uint32_t>(size()),
      [this](std::uint32_t task, std::vector<TaskClaim>&& claims) {
        if (!verify(task, claims)) return false;
        std::lock_guard guard(locks_[task]);
        if (done_[task]) return false;
        fold(task, claims);
        return true;
      });
}

bool TaskSet::commit(std::size_t task, const std::vector<TaskClaim>& claims) {
  std::lock_guard guard(locks_[task]);
  if (done_[task]) return false;
  {
    std::lock_guard journal_guard(journal_mu_);
    journal_.append(static_cast<std::uint32_t>(task), claims);
  }
  fold(task, claims);
  return true;
}

void TaskSet::fold(std::size_t task, const std::vector<TaskClaim>& claims) {
  const std::size_t offset = offsets_[task];
  for (const auto& claim : claims) {
    BigInt& acc = partial_[offset + claim.leaf];
    acc = acc * claim.divisor;
  }
  done_[task] = 1;
  committed_.fetch_add(1, std::memory_order_acq_rel);
}

bool TaskSet::done(std::size_t task) const {
  std::lock_guard guard(locks_[task]);
  return done_[task] != 0;
}

BatchGcdResult TaskSet::combine() const {
  BatchGcdResult result;
  result.divisors.reserve(moduli_.size());
  const BigInt one(1);
  for (std::size_t i = 0; i < moduli_.size(); ++i) {
    // An accumulator no claim folded into is 1, whose gcd with anything is 1.
    result.divisors.push_back(partial_[i] == one
                                  ? one
                                  : bn::gcd(moduli_[i], partial_[i]));
  }
  return result;
}

}  // namespace weakkeys::batchgcd
