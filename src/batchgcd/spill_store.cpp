#include "batchgcd/spill_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"

#if !defined(_WIN32)
#include <sys/stat.h>
#include <sys/types.h>
#endif

namespace weakkeys::batchgcd {

namespace {

using util::SpillFileStatus;
using util::StorageError;
using util::StorageErrorKind;

/// Best-effort mkdir -p: the spill dir is scratch space, and a failure
/// here surfaces as a StorageError from the first write, with a better
/// message than mkdir could give.
void make_dirs(const std::string& dir) {
#if !defined(_WIN32)
  std::string prefix;
  prefix.reserve(dir.size());
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i == dir.size() || dir[i] == '/') {
      if (!prefix.empty() && prefix != "/") {
        ::mkdir(prefix.c_str(), 0777);
      }
    }
    if (i < dir.size()) prefix.push_back(dir[i]);
  }
#else
  (void)dir;
#endif
}

void serialize_node(const bn::BigInt& node, std::vector<std::uint8_t>& out) {
  const auto limbs = node.limbs();
  out.resize(limbs.size() * sizeof(bn::Limb));
  if (!limbs.empty()) {
    std::memcpy(out.data(), limbs.data(), out.size());
  }
}

bool deserialize_node(const std::vector<std::uint8_t>& record,
                      bn::BigInt* out) {
  if (record.size() % sizeof(bn::Limb) != 0) return false;
  std::vector<bn::Limb> limbs(record.size() / sizeof(bn::Limb));
  if (!limbs.empty()) {
    std::memcpy(limbs.data(), record.data(), record.size());
  }
  *out = bn::BigInt::from_limbs(std::move(limbs));
  return true;
}

}  // namespace

SpillLevelStore::SpillLevelStore(const TreeStorage& storage,
                                 std::function<Level()> rebuild_leaves)
    : config_(storage),
      rebuild_leaves_(std::move(rebuild_leaves)),
      window_(storage.max_resident_levels > 0 ? storage.max_resident_levels
                                              : 1) {
  if (config_.spill_dir.empty()) {
    throw std::logic_error("SpillLevelStore requires a spill_dir");
  }
  if (config_.generation == 0) {
    throw std::logic_error("SpillLevelStore requires a nonzero generation");
  }
  make_dirs(config_.spill_dir);
  if (config_.registry != nullptr) {
    obs::MetricsRegistry& r = *config_.registry;
    metrics_.bytes_written = &r.counter("spill.bytes_written");
    metrics_.bytes_read = &r.counter("spill.bytes_read");
    metrics_.levels_spilled = &r.counter("spill.levels_spilled");
    metrics_.levels_resumed = &r.counter("spill.levels_resumed");
    metrics_.verify_failures = &r.counter("spill.verify_failures");
    metrics_.heals = &r.counter("spill.heals");
    metrics_.rebuilds = &r.counter("spill.rebuilds");
    metrics_.write_retries = &r.counter("spill.write_retries");
    metrics_.window_shrinks = &r.counter("spill.window_shrinks");
    metrics_.enospc = &r.counter("spill.enospc");
    metrics_.degraded_levels = &r.counter("spill.degraded_levels");
    metrics_.resident_levels = &r.gauge("spill.resident_levels");
    metrics_.resident_bytes_gauge = &r.gauge("spill.resident_bytes");
    metrics_.resident_bytes_peak = &r.gauge("spill.resident_bytes_peak");
  }
  std::lock_guard lock(mu_);
  probe_resume_locked();
}

SpillLevelStore::~SpillLevelStore() {
  std::lock_guard lock(mu_);
  if (config_.remove_on_destroy) {
    for (std::size_t k = 0; k < stats_.size(); ++k) {
      const std::string path = level_path(k);
      std::remove(path.c_str());
      std::remove((path + ".tmp").c_str());
    }
  }
}

std::string SpillLevelStore::level_path(std::size_t k) const {
  return config_.spill_dir + "/" + config_.base + ".L" + std::to_string(k) +
         ".wkl";
}

util::SpillIoHooks SpillLevelStore::hooks() const {
  return {config_.injector, config_.fault_stream, &op_seq_};
}

bool SpillLevelStore::degraded() const {
  std::lock_guard lock(mu_);
  return degraded_;
}

std::size_t SpillLevelStore::level_count() const {
  std::lock_guard lock(mu_);
  return stats_.size();
}

const std::vector<LevelStats>& SpillLevelStore::level_stats() const {
  return stats_;
}

std::uint64_t SpillLevelStore::resident_bytes() const {
  std::lock_guard lock(mu_);
  return resident_bytes_;
}

std::uint64_t SpillLevelStore::peak_resident_bytes() const {
  std::lock_guard lock(mu_);
  return resident_peak_;
}

void SpillLevelStore::probe_resume_locked() {
  // A SIGKILL mid-build leaves levels 0..m published (atomic rename keeps
  // half-written files invisible) and possibly one torn ".tmp" for level
  // m+1 — sweep the tmps, trust the published prefix whose headers and
  // generation check out, and let the builder continue from there. Payload
  // corruption hides from the header probe but is caught (and healed) by
  // the full CRC verification on first load.
  for (std::size_t k = 0;; ++k) {
    util::SpillFileHeader header;
    const SpillFileStatus status =
        util::probe_spill_file(level_path(k), config_.generation, &header);
    if (status != SpillFileStatus::kOk) break;
    stats_.push_back(
        {static_cast<std::size_t>(header.record_count),
         header.payload_bytes - 4 * header.record_count});
    ++resumed_;
    if (metrics_.levels_resumed != nullptr) metrics_.levels_resumed->inc();
    if (header.record_count <= 1) break;  // complete tree
  }
  for (std::size_t k = 0; k < stats_.size() + 4; ++k) {
    std::remove((level_path(k) + ".tmp").c_str());
  }
}

void SpillLevelStore::write_level_locked(std::size_t k, const Level& nodes) {
  // Degradation ladder, disk rungs: (1) plain write; (2) shrink the
  // resident window to one level — frees both address space and, on
  // overlayed tmpfs scratch, actual pages — evict it, and retry once.
  // Rung 3 (RAM fallback) and rung 4 (clean cancel) live in the caller.
  for (int attempt = 0;; ++attempt) {
    try {
      util::SpillFileWriter writer(level_path(k), config_.generation,
                                   static_cast<std::uint32_t>(k), hooks());
      std::vector<std::uint8_t> buffer;
      for (const bn::BigInt& node : nodes) {
        serialize_node(node, buffer);
        writer.add_record(buffer.data(), buffer.size());
      }
      const std::uint64_t total = writer.finish();
      if (metrics_.bytes_written != nullptr) {
        metrics_.bytes_written->inc(total);
      }
      if (attempt > 0 && metrics_.write_retries != nullptr) {
        metrics_.write_retries->inc();
      }
      return;
    } catch (const StorageError& e) {
      if (e.kind() == StorageErrorKind::kEnospc &&
          metrics_.enospc != nullptr) {
        metrics_.enospc->inc();
      }
      if (attempt > 0) throw;
      if (metrics_.window_shrinks != nullptr) metrics_.window_shrinks->inc();
      window_ = 1;
      evict_excess_locked(0);
    }
  }
}

void SpillLevelStore::append_level(Level&& nodes) {
  std::lock_guard lock(mu_);
  const std::size_t k = stats_.size();
  const LevelStats stats = census_level(nodes);
  auto handle = std::make_shared<const Level>(std::move(nodes));
  stats_.push_back(stats);

  if (!degraded_) {
    try {
      write_level_locked(k, *handle);
      if (metrics_.levels_spilled != nullptr) metrics_.levels_spilled->inc();
      insert_resident_locked(k, handle);
      return;
    } catch (const StorageError&) {
      // Disk rungs exhausted: fall back to RAM for this and every
      // subsequent level (the disk is not coming back mid-build).
      degraded_ = true;
    }
  }

  pinned_[k] = handle;
  pinned_bytes_ += stats.bytes;
  resident_bytes_ += stats.bytes;
  if (metrics_.degraded_levels != nullptr) metrics_.degraded_levels->inc();
  update_gauges_locked();
  if (config_.ram_fallback_budget_bytes > 0 &&
      pinned_bytes_ > config_.ram_fallback_budget_bytes) {
    throw StorageError(
        StorageErrorKind::kExhausted,
        "spill degraded to RAM but the corpus does not fit the fallback "
        "budget (" +
            std::to_string(pinned_bytes_) + " > " +
            std::to_string(config_.ram_fallback_budget_bytes) + " bytes)");
  }
}

LevelHandle SpillLevelStore::load_level(std::size_t k) {
  std::lock_guard lock(mu_);
  if (k >= stats_.size()) {
    throw std::out_of_range("spill level out of range: " + std::to_string(k));
  }
  return load_locked(k);
}

LevelHandle SpillLevelStore::load_locked(std::size_t k) {
  if (const auto pinned = pinned_.find(k); pinned != pinned_.end()) {
    return pinned->second;
  }
  if (const auto it = resident_.find(k); it != resident_.end()) {
    lru_.remove(k);
    lru_.push_back(k);
    return it->second;
  }
  auto handle = std::make_shared<const Level>(read_or_heal_locked(k));
  insert_resident_locked(k, handle);
  return handle;
}

Level SpillLevelStore::read_or_heal_locked(std::size_t k) {
  util::SpillFileHeader header;
  std::vector<std::vector<std::uint8_t>> records;
  const SpillFileStatus status = util::read_spill_file(
      level_path(k), config_.generation, &header, &records, hooks());
  if (status == SpillFileStatus::kOk) {
    Level nodes;
    nodes.reserve(records.size());
    bool decoded = true;
    for (const auto& record : records) {
      bn::BigInt node;
      if (!deserialize_node(record, &node)) {
        decoded = false;
        break;
      }
      nodes.push_back(std::move(node));
    }
    if (decoded) {
      if (metrics_.bytes_read != nullptr) {
        metrics_.bytes_read->inc(util::kSpillHeaderSize +
                                 header.payload_bytes +
                                 util::kSpillFooterSize);
      }
      return nodes;
    }
  }

  // The level on disk is corrupt (or gone). Heal: recompute it from its
  // children — recursively, so a corrupt child heals first — or from the
  // moduli for level 0, then rewrite the file so the next load is clean.
  if (metrics_.verify_failures != nullptr) metrics_.verify_failures->inc();
  Level rebuilt;
  if (k == 0) {
    if (!rebuild_leaves_) {
      throw StorageError(StorageErrorKind::kExhausted,
                         "spill level 0 unreadable (" +
                             std::string(util::to_string(status)) +
                             ") and no rebuild source: " + level_path(0));
    }
    rebuilt = rebuild_leaves_();
    if (metrics_.rebuilds != nullptr) metrics_.rebuilds->inc();
  } else {
    const LevelHandle children = load_locked(k - 1);
    rebuilt = pair_level(*children);
    if (metrics_.heals != nullptr) metrics_.heals->inc();
  }
  if (!degraded_) {
    try {
      write_level_locked(k, rebuilt);
    } catch (const StorageError&) {
      // The heal itself is in hand; a disk that cannot take the rewrite
      // just means the next load of this level heals again.
    }
  }
  return rebuilt;
}

void SpillLevelStore::insert_resident_locked(std::size_t k,
                                             LevelHandle handle) {
  if (resident_.find(k) != resident_.end()) return;
  resident_.emplace(k, std::move(handle));
  lru_.push_back(k);
  resident_bytes_ += stats_[k].bytes;
  evict_excess_locked(window_);
  update_gauges_locked();
}

void SpillLevelStore::evict_excess_locked(std::size_t keep) {
  while (resident_.size() > keep && !lru_.empty()) {
    const std::size_t victim = lru_.front();
    lru_.pop_front();
    const auto it = resident_.find(victim);
    if (it == resident_.end()) continue;
    released_.emplace_back(victim, it->second);
    resident_.erase(it);
    resident_bytes_ -= stats_[victim].bytes;
  }
}

void SpillLevelStore::drop_resident_locked(std::size_t k) {
  const auto it = resident_.find(k);
  if (it == resident_.end()) return;
  released_.emplace_back(k, it->second);
  resident_.erase(it);
  lru_.remove(k);
  resident_bytes_ -= stats_[k].bytes;
  update_gauges_locked();
}

void SpillLevelStore::release_level(std::size_t k) {
  std::lock_guard lock(mu_);
  if (k >= stats_.size()) return;
  drop_resident_locked(k);
}

void SpillLevelStore::update_gauges_locked() {
  // A level left the window but is still in memory while a caller holds
  // its handle: the build reads level k-1 while it appends level k.
  std::uint64_t released_alive = 0;
  std::erase_if(released_, [&](const auto& entry) {
    if (entry.second.expired()) return true;
    released_alive += stats_[entry.first].bytes;
    return false;
  });
  resident_peak_ = std::max(resident_peak_, resident_bytes_ + released_alive);
  if (metrics_.resident_levels != nullptr) {
    metrics_.resident_levels->set(
        static_cast<std::int64_t>(resident_.size() + pinned_.size()));
  }
  if (metrics_.resident_bytes_gauge != nullptr) {
    metrics_.resident_bytes_gauge->set(
        static_cast<std::int64_t>(resident_bytes_));
  }
  if (metrics_.resident_bytes_peak != nullptr) {
    metrics_.resident_bytes_peak->set(
        static_cast<std::int64_t>(resident_peak_));
  }
}

}  // namespace weakkeys::batchgcd
