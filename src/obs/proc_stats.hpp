// Process self-metrics: resident set size and CPU time for the running
// process. A Study records them once as telemetry flushes, so the trace's
// metrics snapshot ends with the run's RSS and CPU (the paper's 81M-moduli
// job was memory-bound); cluster workers ship them in every telemetry
// snapshot.
//
// Linux reads /proc/self/status (VmRSS/VmHWM); CPU time comes from
// getrusage(2). Both degrade gracefully: on platforms without the source
// the corresponding `*_available` flag stays false and nothing is recorded.
#pragma once

#include <cstdint>

namespace weakkeys::obs {

class MetricsRegistry;

struct ProcSelfStats {
  std::int64_t rss_kb = 0;       ///< current resident set (VmRSS), KiB
  std::int64_t peak_rss_kb = 0;  ///< peak resident set (VmHWM), KiB
  std::uint64_t cpu_user_us = 0;  ///< cumulative user CPU time
  std::uint64_t cpu_sys_us = 0;   ///< cumulative system CPU time
  bool rss_available = false;      ///< VmRSS parsed (Linux)
  bool peak_rss_available = false;  ///< VmHWM parsed (Linux)
  bool cpu_available = false;       ///< getrusage succeeded (POSIX)
};

/// Best-effort sample of the current process. Never throws; unavailable
/// sources leave their fields zero with the availability flag false.
ProcSelfStats sample_proc_self();

/// Mirrors a fresh sample into `registry`: gauges `process.rss_kb` /
/// `process.peak_rss_kb` and counters `process.cpu_user_us` /
/// `process.cpu_sys_us` (set, not inc — getrusage totals are cumulative).
/// No instruments are created for unavailable sources.
void record_proc_self(MetricsRegistry& registry);

}  // namespace weakkeys::obs
