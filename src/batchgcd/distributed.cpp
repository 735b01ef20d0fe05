#include "batchgcd/distributed.hpp"

#include <algorithm>
#include <memory>

#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "batchgcd/task_set.hpp"
#include "obs/metrics.hpp"

namespace weakkeys::batchgcd {

using bn::BigInt;

BatchGcdResult batch_gcd_distributed(std::span<const BigInt> moduli,
                                     std::size_t k, util::ThreadPool* pool,
                                     DistributedStats* stats,
                                     const DistributedOptions& options) {
  if (moduli.empty()) return {};
  TaskSet tasks(moduli, k);
  k = tasks.k();
  const util::CancellationToken* cancel = options.cancel;
  const std::size_t resumed = options.journal_path.empty()
                                  ? 0
                                  : tasks.open_journal(options.journal_path);
  obs::Counter* executed = nullptr;
  if (options.registry != nullptr) {
    obs::MetricsRegistry& metrics = *options.registry;
    metrics.counter("coordinator.tasks").set(tasks.size());
    metrics.counter("coordinator.subsets").set(k);
    metrics.counter("coordinator.tasks_resumed").set(resumed);
    executed = &metrics.counter("coordinator.tasks_executed");
  }
  if (stats) {
    *stats = {};
    stats->subsets = k;
    stats->tasks = tasks.size();
    stats->tasks_resumed = resumed;
  }

  std::vector<std::size_t> pending;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (!tasks.done(t)) pending.push_back(t);
  }
  if (!pending.empty()) {
    std::vector<std::unique_ptr<ProductTree>> trees(k);
    util::parallel_for(pool, k, [&](std::size_t a) {
      if (cancel) cancel->throw_if_cancelled();
      const TreeStorage* storage = options.storage;
      if (storage != nullptr && storage->enabled()) {
        // Per-subset spill identity: distinct file base and fault stream so
        // k trees in one dir never collide and chaos schedules stay pure.
        TreeStorage subset_storage = *storage;
        subset_storage.base = storage->base + ".s" + std::to_string(a);
        subset_storage.fault_stream = storage->fault_stream + a;
        trees[a] = std::make_unique<ProductTree>(tasks.subset(a),
                                                 subset_storage);
      } else {
        trees[a] = std::make_unique<ProductTree>(tasks.subset(a));
      }
    }, cancel);
    if (options.registry) trees[0]->publish_level_stats(*options.registry);

    util::parallel_for(pool, pending.size(), [&](std::size_t i) {
      if (cancel) cancel->throw_if_cancelled();
      const std::size_t a = pending[i];
      std::vector<const BigInt*> others;
      for (std::size_t b = 0; b < k; ++b) {
        if (b != a) others.push_back(&trees[b]->root());
      }
      const std::vector<BigInt> u = remainder_row_residues(*trees[a], others);
      tasks.commit(a, leaf_claims(tasks.subset(a), u));
      if (executed) executed->inc();
      if (options.on_commit) options.on_commit();
    }, cancel);

    if (stats) {
      for (const auto& tree : trees) {
        stats->max_node_limbs =
            std::max(stats->max_node_limbs, tree->max_node_limbs());
        stats->total_tree_limbs += tree->total_limbs();
      }
    }
  }

  tasks.remove_journal();
  return tasks.combine();
}

}  // namespace weakkeys::batchgcd
