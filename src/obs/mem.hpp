// Per-subsystem memory accounting (DESIGN.md §5k).
//
// A single translation unit (mem.cpp) replaces the global operator
// new/delete pair with thin wrappers that, while accounting is enabled,
// attribute every heap allocation to the subsystem label currently on the
// calling thread's MemScope stack ("bn.limbs",
// "batchgcd.product_tree.level<k>", "cluster.outbox", ...). Accounting is
// symmetric — both the allocation and the free are measured with
// malloc_usable_size — so the *global* live-byte figure is exact no matter
// when accounting was switched on. Per-label live bytes are approximate:
// a free is charged to the label active where the free happens, which for
// scope-local temporaries (the overwhelming majority of bignum traffic)
// is the same label that allocated them.
//
// Cost when disabled (the default): one relaxed atomic load and a branch
// per allocation and per free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace weakkeys::obs {

class MetricsRegistry;

namespace mem {

/// True when the platform supports usable-size queries (glibc); accounting
/// is a silent no-op elsewhere.
bool supported();

/// Enables attribution. Idempotent. When `registry` is non-null, an
/// allocation-size histogram `mem.alloc_bytes` (power-of-two byte buckets)
/// is created up front and fed from the hook.
void enable(MetricsRegistry* registry = nullptr);
/// Stops attribution and unhooks the histogram of the registry given to
/// enable(), so that registry may be destroyed afterwards.
void disable();
bool enabled();

/// Registers `label`, returning a small id for MemScope. Idempotent; the
/// label string is copied with process lifetime. Returns -1 when the slot
/// table is full (such scopes attribute to the untracked bucket).
int register_label(const std::string& label);

struct LabelStats {
  std::string label;
  std::int64_t live_bytes = 0;  ///< approximate (see header comment)
  std::uint64_t peak_bytes = 0;
  std::uint64_t cumulative_bytes = 0;
  std::uint64_t allocations = 0;
};

struct Totals {
  std::int64_t live_bytes = 0;  ///< exact while enabled
  std::uint64_t peak_bytes = 0;
  std::uint64_t cumulative_bytes = 0;
  std::uint64_t allocations = 0;
};

Totals totals();
std::vector<LabelStats> label_stats();

/// Mirrors totals and per-label stats into `registry` as gauges
/// `mem.live_bytes` / `mem.peak_bytes`, counter `mem.cumulative_bytes`,
/// and `mem.<label>.live_bytes` / `.peak_bytes` / `.cumulative_bytes`.
void publish(MetricsRegistry& registry);

/// Test hook: zeroes every counter.
/// Label registrations survive (call sites cache their ids in statics).
/// Only meaningful while accounting is disabled.
void reset_for_test();

}  // namespace mem

/// RAII subsystem attribution scope. Construct with an id from
/// mem::register_label(); nested scopes shadow outer ones. When
/// `only_if_unattributed` is set the scope engages only when no label is
/// active — how bn tags its own traffic without stealing allocations from
/// a batchgcd/cluster scope further up the stack.
class MemScope {
 public:
  explicit MemScope(int label_id, bool only_if_unattributed = false);
  ~MemScope();
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

 private:
  bool pushed_ = false;
};

}  // namespace weakkeys::obs
