// The Telemetry bundle that the study pipeline threads through its layers.
//
// Telemetry owns one MetricsRegistry + Tracer and knows how to dump them: a
// Chrome trace JSON (load in about://tracing) and a metrics snapshot JSON
// next to it. StudyConfig::trace_path is the user-facing knob; see
// DESIGN.md §5e.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace weakkeys::obs {

/// The bundle a pipeline run carries: metrics + tracer.
class Telemetry {
 public:
  /// `tracing_enabled` = false makes span() calls near-free (metrics are
  /// always live; they are cheap).
  explicit Telemetry(bool tracing_enabled = true);

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

  /// Writes chrome_trace_json(tracer().events()) to `trace_path` and the
  /// metrics snapshot JSON to `trace_path + ".metrics.json"`. Returns false
  /// if either file cannot be written.
  bool write_trace_files(const std::string& trace_path);

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
};

}  // namespace weakkeys::obs
