// Stall watchdog: declares a run stuck when its progress counters stop
// moving, and dumps a diagnostic snapshot so the operator (or the study's
// lifecycle layer) can see *what* wedged before deciding to cancel.
//
// The watchdog owns no thread — it rides the Monitor's tick (wire
// observe() into MonitorConfig::on_tick), so its time base is the monitor
// interval and "N stall ticks" means N monitor intervals of zero movement
// across every watched progress counter. On the tick that crosses the
// threshold it:
//   - emits a one-line diagnostic through the TelemetrySink (warn level):
//     quiet duration, thread-pool queue depth, gcd task progress, and the
//     most recent structured events;
//   - increments `watchdog.stalls` and invokes the configured on_stall
//     callback exactly once per stall episode (movement re-arms it).
//
// This sits in obs (below util in the layering), so the cancel decision is
// a callback: core::Study wires on_stall to its CancellationToken. The
// cluster coordinator's per-task deadline (`cluster.task_timeouts`,
// reassignment) handles the single-stuck-task case without cancelling the
// whole run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace weakkeys::obs {

struct WatchdogConfig {
  /// Consecutive no-movement ticks before a stall is declared; 0 disables.
  std::size_t stall_ticks = 8;
  /// Counter-name prefixes whose movement counts as progress. Empty watches
  /// every counter in the registry (gauges are excluded: a constant queue
  /// depth is exactly what a stall looks like). `watchdog.*` and
  /// `process.*` counters are never watched regardless — the former would
  /// re-arm the alarm it just raised, the latter creep even when wedged.
  std::vector<std::string> watch_prefixes;
  /// Invoked once per stall episode with the diagnostic line. The study
  /// cancels its run token here; leave null to only log and count.
  std::function<void(const std::string& diagnostic)> on_stall;
};

class Watchdog {
 public:
  /// The telemetry bundle must outlive the watchdog.
  Watchdog(Telemetry& telemetry, WatchdogConfig config);

  /// One observation (call once per monitor tick, any thread, not
  /// concurrently with itself). Returns true when this tick declared a
  /// stall.
  bool observe(const MetricsSnapshot& snapshot);

  /// True while the current stall episode is open (no movement since it
  /// was declared).
  [[nodiscard]] bool stalled() const { return stalled_; }
  [[nodiscard]] std::uint64_t stalls_declared() const { return stalls_; }
  [[nodiscard]] std::size_t quiet_ticks() const { return quiet_ticks_; }

  /// The diagnostic state dump: quiet interval, queue depth, gcd task
  /// progress, and the sink's most recent events.
  [[nodiscard]] std::string diagnostic(const MetricsSnapshot& snapshot) const;

 private:
  [[nodiscard]] bool watched(const std::string& counter_name) const;

  Telemetry& telemetry_;
  const WatchdogConfig config_;
  MetricsSnapshot prev_;
  bool have_prev_ = false;
  std::size_t quiet_ticks_ = 0;
  bool stalled_ = false;
  std::uint64_t stalls_ = 0;
};

}  // namespace weakkeys::obs
