// The paper's cluster-parallel batch GCD (Section 3.2, Figure 2), run in
// process.
//
// The moduli are split into k subsets with products P_1..P_k; every product
// reaches every subset. Row a reduces the k - 1 other products into subset
// a at root size and walks a's remainder tree once. Total work grows with k
// (k(k-1) root-size reductions) but no node ever computes with the full
// corpus product — the central bottleneck of the single-tree algorithm — so
// the k independent rows parallelize across a cluster. Here the "cluster"
// is a thread pool; the per-row cost statistics the benchmark reports are
// the machine-independent story. The decomposition itself lives in
// task_set.hpp, shared with the process cluster.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "batchgcd/batch_gcd.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::obs {
class MetricsRegistry;
}  // namespace weakkeys::obs

namespace weakkeys::batchgcd {

struct DistributedStats {
  std::size_t subsets = 0;
  std::size_t tasks = 0;              ///< k rows, one per subset
  std::size_t max_node_limbs = 0;     ///< largest tree node anywhere
  std::size_t total_tree_limbs = 0;   ///< sum of subset product-tree storage
  std::size_t tasks_resumed = 0;      ///< replayed from the journal, not run
};

struct DistributedOptions {
  /// A tripped token stops dispatching at task granularity (both the tree
  /// builds and the k rows poll it) and the call throws
  /// util::Cancelled after draining in-flight work.
  const util::CancellationToken* cancel = nullptr;
  /// Progress counters `coordinator.{tasks,subsets,tasks_executed,
  /// tasks_resumed}`, and the first subset tree's per-level byte/node
  /// census (`batchgcd.product_tree.level<k>.*` + `bytes_peak`): one
  /// representative tree, so the level gauges always sum to the peak.
  obs::MetricsRegistry* registry = nullptr;
  /// Spill policy: each subset tree applies it independently (file base
  /// "<base>.s<subset>", fault stream offset by subset index) so corpus-
  /// scale runs bound per-process memory. A spilled tree is walked once,
  /// by its own row; the other rows read only its cached root.
  const TreeStorage* storage = nullptr;
  /// Resume journal (TaskJournal format, shared with the process cluster);
  /// empty disables journaling. Every finished task is appended as one
  /// flushed record, so a killed or cancelled run leaves a journal that the
  /// next run with the same moduli and k resumes from, re-running only the
  /// unfinished rows. Replayed records are verified; fresh in-process
  /// claims are not. Success deletes the journal.
  std::string journal_path;
  /// Runs on the committing thread after each row this call computes; a
  /// caller that cancels from it stops the run at a row boundary.
  std::function<void()> on_commit;
};

/// k-subset batch GCD. Output is element-for-element identical to
/// batch_gcd(). `k` is clamped to [1, moduli.size()]. With a pool, the k
/// rows run concurrently; pass nullptr to run serially.
/// When every task was resumed no tree is built, and the tree fields of
/// `stats` stay zero.
BatchGcdResult batch_gcd_distributed(std::span<const bn::BigInt> moduli,
                                     std::size_t k,
                                     util::ThreadPool* pool = nullptr,
                                     DistributedStats* stats = nullptr,
                                     const DistributedOptions& options = {});

}  // namespace weakkeys::batchgcd
