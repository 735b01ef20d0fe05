// The k-subset row decomposition of the cluster-parallel batch GCD
// (Section 3.2, Figure 2), shared by every engine that runs it.
//
// The moduli are split into k contiguous subsets S_0..S_{k-1} with products
// P_0..P_{k-1}, P = P_0 * ... * P_{k-1}. Row a reduces every other product
// into S_a, X'_a = prod_{b != a} (P_b mod P_a) mod P_a, and walks S_a's
// remainder tree once from frac(X'_a / P_a); every leaf N_i of S_a then
// claims
//
//   gcd(N_i, (P / N_i) mod N_i),
//
// the single-tree batch_gcd() divisor itself. Every N_i divides P_a, so
// P_b mod N_i = (P_b mod P_a) mod N_i and no node ever holds more than one
// subset's product: the paper's argument against a central bottleneck
// holds. A row fuses the paper's k (product, subset) tasks over S_a into
// one walk, and it is the unit of work, retry and journaling: any engine
// can run the rows anywhere, in any order, retry them, and resume them
// from a journal.
//
// TaskSet owns everything about the decomposition except execution: the
// partition, claim verification, folding claims into per-modulus
// accumulators, the resume journal (replayed records are verified: they
// are input from disk), and the final per-modulus gcd. leaf_claims() is
// the claim rule itself, and remainder_row_residues() (remainder_tree.hpp)
// the row body that feeds it. The in-process path (batch_gcd_distributed),
// the process cluster (cluster::batch_gcd_cluster, whose gcd_worker runs
// the rows) and the single-tree batch_gcd() (the k = 1 row) all build on
// these, so a journal written by one engine resumes under the other.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/task_journal.hpp"
#include "bn/bigint.hpp"

namespace weakkeys::batchgcd {

/// The claim rule: the nontrivial divisors gcd(N_i, u_i) > 1 of one row,
/// given its residues u_i = (P / N_i) mod N_i (remainder_row_residues) over
/// the subset `leaves`.
std::vector<TaskClaim> leaf_claims(std::span<const bn::BigInt> leaves,
                                   std::span<const bn::BigInt> u);

class TaskSet {
 public:
  /// Partitions `moduli` into k contiguous subsets, k clamped to
  /// [1, max(moduli.size(), 1)]. The first moduli.size() % k subsets get one
  /// extra modulus. `moduli` must outlive the TaskSet.
  TaskSet(std::span<const bn::BigInt> moduli, std::size_t k);
  TaskSet(const TaskSet&) = delete;
  TaskSet& operator=(const TaskSet&) = delete;

  [[nodiscard]] std::size_t k() const { return k_; }
  /// k: one task per row, task a being subset a's row.
  [[nodiscard]] std::size_t size() const { return k_; }
  [[nodiscard]] std::span<const bn::BigInt> subset(std::size_t a) const {
    return moduli_.subspan(offsets_[a], offsets_[a + 1] - offsets_[a]);
  }
  /// The journal identity of (moduli, k); see corpus_fingerprint().
  [[nodiscard]] std::uint64_t fingerprint() const {
    return corpus_fingerprint(moduli_, k_);
  }

  /// True when every claim of `task` names a leaf of its subset and a
  /// divisor that is nontrivial, no larger than that leaf, and divides it.
  /// For claims from outside this process: the wire and the disk.
  [[nodiscard]] bool verify(std::size_t task,
                            const std::vector<TaskClaim>& claims) const;

  /// Opens the resume journal at `path`: replays every intact record whose
  /// claims verify and whose task is fresh, committing it, then keeps the
  /// file open so commit() appends one record per task. A journal for other
  /// moduli or another k is discarded. Returns the number of tasks resumed.
  /// Throws std::runtime_error when the journal cannot be written.
  std::size_t open_journal(const std::string& path);

  /// Folds a finished row's claims into its subset's accumulators and
  /// journals the row, under the row's lock; safe to call from many
  /// threads. Returns false, changing nothing, when the task has already
  /// committed. Claims are not verified here (see verify()).
  bool commit(std::size_t task, const std::vector<TaskClaim>& claims);

  [[nodiscard]] bool done(std::size_t task) const;
  [[nodiscard]] std::size_t committed() const {
    return committed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool complete() const { return committed() == size(); }

  /// Closes and deletes the journal: the finished run supersedes it.
  /// Otherwise it closes with the TaskSet and stays on disk as the resume
  /// point.
  void remove_journal() { journal_.remove(); }

  /// divisors[i] = gcd(N_i, accumulator_i). Meaningful once complete().
  [[nodiscard]] BatchGcdResult combine() const;

 private:
  /// Folds and marks done; caller holds locks_[task].
  void fold(std::size_t task, const std::vector<TaskClaim>& claims);

  std::span<const bn::BigInt> moduli_;
  std::size_t k_ = 1;
  std::vector<std::size_t> offsets_;  ///< subset a is [offsets_[a], [a+1])
  std::vector<bn::BigInt> partial_;   ///< per-modulus claim accumulator
  std::vector<char> done_;            ///< per row, under its lock
  std::atomic<std::size_t> committed_{0};
  mutable std::vector<std::mutex> locks_;  ///< per row
  std::mutex journal_mu_;
  TaskJournal journal_;
};

}  // namespace weakkeys::batchgcd
