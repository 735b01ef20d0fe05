// Thread-safe metrics for the study pipeline: named monotonic counters,
// signed gauges, and fixed-bucket latency histograms.
//
// Updates are lock-free atomics on the hot path; the registry mutex is only
// taken to create (or look up) an instrument by name, so call sites resolve
// their instruments once and hold the returned reference — instrument
// references are stable for the registry's lifetime.
//
// Naming convention (see DESIGN.md §5e): dot-separated lowercase paths,
// `<subsystem>.<noun>[.<qualifier>]`, e.g. `ingest.drop.even-modulus`,
// `cluster.worker.3.deaths`, `threadpool.task_us`. Duration-valued
// histograms carry a `_us` suffix and record microseconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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

/// Fixed-bucket histogram. Bucket `i` counts samples with
/// `value <= bounds[i]` (and greater than `bounds[i-1]`); one implicit
/// overflow bucket catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void record(std::uint64_t value);

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const {
    return bounds_;
  }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }

  /// Latency buckets in microseconds: 1us .. ~67s in powers of four.
  static std::vector<std::uint64_t> default_latency_bounds_us();

  /// Allocation-size buckets in bytes: 16B .. 1GiB in powers of two. The
  /// latency buckets are the wrong shape for sizes — allocators quantize
  /// by powers of two, so power-of-four bounds smear adjacent size classes
  /// into one bucket.
  static std::vector<std::uint64_t> default_bytes_bounds();

 private:
  std::vector<std::uint64_t> bounds_;  ///< ascending upper bounds
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Point-in-time copy of every instrument, for assertions and export.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  struct HistogramValue {
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> bucket_counts;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
  };
  std::map<std::string, HistogramValue> histograms;

  /// Counter value by name; 0 when absent (never-touched counters and
  /// missing counters are indistinguishable, matching counter semantics).
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
};

class MetricsRegistry {
 public:
  /// Find-or-create by name. References remain valid for the registry's
  /// lifetime; re-registering a histogram name keeps the original bounds.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds =
                           Histogram::default_latency_bounds_us());

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Snapshot as a JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"count","sum","max","buckets":[{"le","count"}]}}}.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;  ///< guards map shape only, never hot updates
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Escapes a string for embedding in a JSON literal (shared by the metrics
/// and trace exporters).
std::string json_escape(const std::string& s);

}  // namespace weakkeys::obs
