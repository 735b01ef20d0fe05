// Thread-safe metrics for the study pipeline: named monotonic counters and
// signed gauges.
//
// Updates are lock-free atomics on the hot path; the registry mutex is only
// taken to create (or look up) an instrument by name, so call sites resolve
// their instruments once and hold the returned reference — instrument
// references are stable for the registry's lifetime.
//
// Naming convention (see DESIGN.md §5e): dot-separated lowercase paths,
// `<subsystem>.<noun>[.<qualifier>]`, e.g. `ingest.drop.even-modulus`,
// `cluster.worker.3.deaths`, `threadpool.tasks_completed`.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace weakkeys::obs {

/// Monotonic counter. Overflow wraps mod 2^64 (unsigned arithmetic; the
/// wrap is well-defined and tested, not UB).
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Sets an absolute value (for mirroring an externally computed total).
  void set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed value (queue depths, in-flight task counts).
class Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time copy of every instrument, for assertions and export.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;

  /// Counter value by name; 0 when absent (never-touched counters and
  /// missing counters are indistinguishable, matching counter semantics).
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
};

class MetricsRegistry {
 public:
  /// Find-or-create by name. References remain valid for the registry's
  /// lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Snapshot as a JSON object: {"counters":{...},"gauges":{...}}.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;  ///< guards map shape only, never hot updates
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

/// Escapes a string for embedding in a JSON literal (shared by the metrics
/// and trace exporters).
std::string json_escape(const std::string& s);

}  // namespace weakkeys::obs
