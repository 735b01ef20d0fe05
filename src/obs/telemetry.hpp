// Structured, leveled event sink plus the Telemetry bundle that the study
// pipeline threads through its layers.
//
// TelemetrySink replaces the bare `std::function<void(const std::string&)>`
// progress log: every event is *always* counted and retained in a bounded
// ring buffer (post-mortem assertions work even when nothing is printed),
// and an optional text sink keeps the legacy string-log call sites working
// unchanged.
//
// Telemetry owns one MetricsRegistry + Tracer + TelemetrySink and knows how
// to dump them: a Chrome trace JSON (load in about://tracing) and a metrics
// snapshot JSON next to it. StudyConfig::trace_path is the user-facing
// knob; see DESIGN.md §5e.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace weakkeys::obs {

enum class Level : std::uint8_t { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

inline constexpr std::size_t kLevelCount = 4;

const char* to_string(Level level);

/// One structured log event. `seq` is a per-sink monotonic sequence number;
/// `ts_us` is microseconds since sink construction.
struct LogEvent {
  Level level = Level::kInfo;
  std::uint64_t seq = 0;
  std::uint64_t ts_us = 0;
  std::string message;
};

class TelemetrySink {
 public:
  explicit TelemetrySink(std::size_t ring_capacity = 256);

  /// Records the event: counts it, appends it to the ring buffer, and
  /// forwards the message to the text sink (if any). Thread-safe.
  void emit(Level level, std::string message);
  void info(std::string message) { emit(Level::kInfo, std::move(message)); }
  void warn(std::string message) { emit(Level::kWarn, std::move(message)); }

  /// Compatibility shim for string-log consumers (StudyConfig::log et al).
  /// Null clears; events keep being counted and ring-buffered regardless.
  void set_text_sink(std::function<void(const std::string&)> sink);

  /// The last <= ring_capacity events, oldest first.
  [[nodiscard]] std::vector<LogEvent> recent() const;
  [[nodiscard]] std::uint64_t events_emitted(Level level) const;
  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] std::size_t ring_capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::function<void(const std::string&)> text_;
  std::deque<LogEvent> ring_;
  std::uint64_t seq_ = 0;
  std::uint64_t by_level_[kLevelCount] = {};
};

/// The bundle a pipeline run carries: metrics + tracer + event sink.
class Telemetry {
 public:
  /// `tracing_enabled` = false makes span() calls near-free (metrics and
  /// events are always live; they are cheap).
  explicit Telemetry(bool tracing_enabled = true,
                     std::size_t ring_capacity = 256);

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }
  [[nodiscard]] TelemetrySink& sink() { return sink_; }
  [[nodiscard]] const TelemetrySink& sink() const { return sink_; }

  /// Writes chrome_trace_json(tracer().events()) to `trace_path` and the
  /// metrics snapshot JSON to `trace_path + ".metrics.json"`. Returns false
  /// (and emits a warning event) if either file cannot be written.
  bool write_trace_files(const std::string& trace_path);

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  TelemetrySink sink_;
};

/// Duration helper for metrics call sites: microseconds between two
/// steady_clock points.
inline std::uint64_t elapsed_us(std::chrono::steady_clock::time_point t0,
                                std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
}

}  // namespace weakkeys::obs
