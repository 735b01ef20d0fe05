#include "obs/mem.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>

#include "obs/metrics.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#define WEAKKEYS_MEM_HOOKS 1
#else
#define WEAKKEYS_MEM_HOOKS 0
#endif

namespace weakkeys::obs::mem {

namespace {

constexpr int kMaxLabels = 128;
constexpr std::uint32_t kMaxScopeDepth = 32;

// The allocation/free hooks run inside operator new/delete, including
// during static init, TLS init, and thread teardown. Everything they touch
// must be constant-initialized and allocation-free: plain atomics, POD
// thread_locals, and a pre-created histogram behind an atomic pointer.
std::atomic<bool> g_enabled{false};

std::atomic<std::int64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};
std::atomic<std::uint64_t> g_cum{0};
std::atomic<std::uint64_t> g_allocs{0};

std::atomic<Histogram*> g_alloc_hist{nullptr};

struct LabelSlot {
  std::atomic<std::int64_t> live{0};
  std::atomic<std::uint64_t> peak{0};
  std::atomic<std::uint64_t> cum{0};
  std::atomic<std::uint64_t> allocs{0};
};

LabelSlot g_slots[kMaxLabels];
std::atomic<int> g_label_count{0};

// Label names are only read from normal (non-hook) contexts; the mutex and
// the leaked name copies keep them valid for threads alive past static
// destruction.
std::mutex& label_mu() {
  static auto* mu = new std::mutex();
  return *mu;
}
const char* g_label_names[kMaxLabels] = {};

// Per-thread scope stack. POD thread_locals are constant-initialized, so
// reading them from inside the hooks can never recurse into TLS-init
// allocation.
thread_local int t_scope_stack[kMaxScopeDepth];
thread_local std::uint32_t t_scope_depth = 0;

inline int current_label() {
  return t_scope_depth > 0 ? t_scope_stack[t_scope_depth - 1] : -1;
}

inline void bump_peak(std::atomic<std::uint64_t>& peak, std::int64_t live) {
  if (live <= 0) return;
  const auto value = static_cast<std::uint64_t>(live);
  std::uint64_t seen = peak.load(std::memory_order_relaxed);
  while (value > seen &&
         !peak.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

#if WEAKKEYS_MEM_HOOKS
void on_alloc(void* ptr) noexcept {
  if (ptr == nullptr || !g_enabled.load(std::memory_order_relaxed)) return;
  const auto bytes =
      static_cast<std::int64_t>(::malloc_usable_size(ptr));
  const std::int64_t live =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  bump_peak(g_peak, live);
  g_cum.fetch_add(static_cast<std::uint64_t>(bytes),
                  std::memory_order_relaxed);
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (Histogram* hist = g_alloc_hist.load(std::memory_order_relaxed)) {
    hist->record(static_cast<std::uint64_t>(bytes));
  }
  const int label = current_label();
  if (label >= 0) {
    LabelSlot& slot = g_slots[label];
    const std::int64_t slot_live =
        slot.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    bump_peak(slot.peak, slot_live);
    slot.cum.fetch_add(static_cast<std::uint64_t>(bytes),
                       std::memory_order_relaxed);
    slot.allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void on_free(void* ptr) noexcept {
  if (ptr == nullptr || !g_enabled.load(std::memory_order_relaxed)) return;
  const auto bytes =
      static_cast<std::int64_t>(::malloc_usable_size(ptr));
  g_live.fetch_sub(bytes, std::memory_order_relaxed);
  const int label = current_label();
  if (label >= 0) {
    g_slots[label].live.fetch_sub(bytes, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t size) {
  if (size == 0) size = 1;
  for (;;) {
    if (void* ptr = std::malloc(size)) return ptr;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* checked_aligned(std::size_t size, std::size_t alignment) {
  if (size == 0) size = 1;
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  for (;;) {
    void* ptr = nullptr;
    if (::posix_memalign(&ptr, alignment, size) == 0) return ptr;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}
#endif  // WEAKKEYS_MEM_HOOKS

}  // namespace

bool supported() { return WEAKKEYS_MEM_HOOKS != 0; }

void enable(MetricsRegistry* registry) {
  if (!supported()) return;
  if (registry != nullptr &&
      g_alloc_hist.load(std::memory_order_relaxed) == nullptr) {
    // Created before the flag flips so the hook never touches the registry
    // (registry lookups allocate; the hook must not).
    Histogram& hist = registry->histogram("mem.alloc_bytes",
                                          Histogram::default_bytes_bounds());
    g_alloc_hist.store(&hist, std::memory_order_relaxed);
  }
  g_enabled.store(true, std::memory_order_relaxed);
}

void disable() {
  g_enabled.store(false, std::memory_order_relaxed);
  g_alloc_hist.store(nullptr, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

int register_label(const std::string& label) {
  std::lock_guard lock(label_mu());
  const int count = g_label_count.load(std::memory_order_relaxed);
  for (int i = 0; i < count; ++i) {
    if (label == g_label_names[i]) return i;
  }
  if (count >= kMaxLabels) return -1;
  char* copy = new char[label.size() + 1];
  std::memcpy(copy, label.c_str(), label.size() + 1);
  g_label_names[count] = copy;  // leaked: hook-adjacent, process lifetime
  g_label_count.store(count + 1, std::memory_order_release);
  return count;
}

Totals totals() {
  Totals t;
  t.live_bytes = g_live.load(std::memory_order_relaxed);
  t.peak_bytes = g_peak.load(std::memory_order_relaxed);
  t.cumulative_bytes = g_cum.load(std::memory_order_relaxed);
  t.allocations = g_allocs.load(std::memory_order_relaxed);
  return t;
}

std::vector<LabelStats> label_stats() {
  std::lock_guard lock(label_mu());
  const int count = g_label_count.load(std::memory_order_acquire);
  std::vector<LabelStats> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    LabelStats s;
    s.label = g_label_names[i];
    s.live_bytes = g_slots[i].live.load(std::memory_order_relaxed);
    s.peak_bytes = g_slots[i].peak.load(std::memory_order_relaxed);
    s.cumulative_bytes = g_slots[i].cum.load(std::memory_order_relaxed);
    s.allocations = g_slots[i].allocs.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

void publish(MetricsRegistry& registry) {
  const Totals t = totals();
  registry.gauge("mem.live_bytes").set(t.live_bytes);
  registry.gauge("mem.peak_bytes")
      .set(static_cast<std::int64_t>(t.peak_bytes));
  registry.counter("mem.cumulative_bytes").set(t.cumulative_bytes);
  registry.counter("mem.allocations").set(t.allocations);
  for (const LabelStats& s : label_stats()) {
    const std::string prefix = "mem." + s.label;
    registry.gauge(prefix + ".live_bytes").set(s.live_bytes);
    registry.gauge(prefix + ".peak_bytes")
        .set(static_cast<std::int64_t>(s.peak_bytes));
    registry.counter(prefix + ".cumulative_bytes").set(s.cumulative_bytes);
  }
}

void reset_for_test() {
  g_live.store(0, std::memory_order_relaxed);
  g_peak.store(0, std::memory_order_relaxed);
  g_cum.store(0, std::memory_order_relaxed);
  g_allocs.store(0, std::memory_order_relaxed);
  g_alloc_hist.store(nullptr, std::memory_order_relaxed);
  const int count = g_label_count.load(std::memory_order_relaxed);
  for (int i = 0; i < count; ++i) {
    g_slots[i].live.store(0, std::memory_order_relaxed);
    g_slots[i].peak.store(0, std::memory_order_relaxed);
    g_slots[i].cum.store(0, std::memory_order_relaxed);
    g_slots[i].allocs.store(0, std::memory_order_relaxed);
  }
}

}  // namespace weakkeys::obs::mem

namespace weakkeys::obs {

MemScope::MemScope(int label_id, bool only_if_unattributed) {
  using namespace mem;
  if (label_id < 0 || label_id >= kMaxLabels) return;
  if (only_if_unattributed && t_scope_depth > 0) return;
  if (t_scope_depth >= kMaxScopeDepth) return;
  t_scope_stack[t_scope_depth++] = label_id;
  pushed_ = true;
}

MemScope::~MemScope() {
  if (pushed_ && mem::t_scope_depth > 0) --mem::t_scope_depth;
}

}  // namespace weakkeys::obs

#if WEAKKEYS_MEM_HOOKS
// Global replacements. They forward to malloc/free (which sanitizers
// intercept, so ASan/TSan still see consistent pairs) and notify the
// accounting layer on the way through. Linked whenever a binary references
// any weakkeys::obs::mem symbol, which every instrumented target does.
void* operator new(std::size_t size) {
  void* ptr = weakkeys::obs::mem::checked_malloc(size);
  weakkeys::obs::mem::on_alloc(ptr);
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = weakkeys::obs::mem::checked_malloc(size);
  weakkeys::obs::mem::on_alloc(ptr);
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  weakkeys::obs::mem::on_alloc(ptr);
  return ptr;
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  weakkeys::obs::mem::on_alloc(ptr);
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* ptr = weakkeys::obs::mem::checked_aligned(
      size, static_cast<std::size_t>(alignment));
  weakkeys::obs::mem::on_alloc(ptr);
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  void* ptr = weakkeys::obs::mem::checked_aligned(
      size, static_cast<std::size_t>(alignment));
  weakkeys::obs::mem::on_alloc(ptr);
  return ptr;
}

void operator delete(void* ptr) noexcept {
  weakkeys::obs::mem::on_free(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr) noexcept {
  weakkeys::obs::mem::on_free(ptr);
  std::free(ptr);
}

void operator delete(void* ptr, std::size_t) noexcept {
  weakkeys::obs::mem::on_free(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr, std::size_t) noexcept {
  weakkeys::obs::mem::on_free(ptr);
  std::free(ptr);
}

void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  weakkeys::obs::mem::on_free(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  weakkeys::obs::mem::on_free(ptr);
  std::free(ptr);
}

void operator delete(void* ptr, std::align_val_t) noexcept {
  weakkeys::obs::mem::on_free(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr, std::align_val_t) noexcept {
  weakkeys::obs::mem::on_free(ptr);
  std::free(ptr);
}

void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  weakkeys::obs::mem::on_free(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  weakkeys::obs::mem::on_free(ptr);
  std::free(ptr);
}
#endif  // WEAKKEYS_MEM_HOOKS
