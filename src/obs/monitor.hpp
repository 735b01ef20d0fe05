// Live run monitor: a background thread that periodically snapshots the
// MetricsRegistry and turns the pipeline from a black box into a watchable
// process (see DESIGN.md §5f).
//
// Each tick the monitor
//   - samples process self-metrics (RSS, CPU) into the registry,
//   - takes a MetricsSnapshot, computes per-counter deltas against the
//     previous tick and derives per-second rates from the *monotonic*
//     clock (wrap-safe: unsigned subtraction yields the true delta even
//     across a 2^64 counter wrap, so rates are never negative),
//   - appends one JSON object line to the configured JSONL file
//     (`StudyConfig::monitor_path`), and
//   - emits a human heartbeat through the TelemetrySink: ingest rate, GCD
//     tasks done/total with ETA, cluster worker liveness, thread-pool queue
//     depth.
//
// stop() (and the destructor) writes one final snapshot marked
// `"final":true` whose cumulative counters equal the registry's end state
// exactly — the time series always closes on the authoritative totals.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace weakkeys::obs {

// -- rate / ETA derivation (pure helpers, unit-tested) ----------------------

/// Delta between two readings of a monotonic counter. Unsigned subtraction
/// is exact modulo 2^64, so a counter that wrapped past 2^64 still yields
/// the true (small, positive) delta — never a huge bogus jump and never
/// anything negative.
constexpr std::uint64_t counter_delta(std::uint64_t prev,
                                      std::uint64_t cur) {
  return cur - prev;
}

/// Events per second given a delta and a monotonic-clock interval. Zero
/// when the interval is empty (never negative, never a division by zero).
double rate_per_sec(std::uint64_t delta, std::uint64_t interval_us);

/// Estimated seconds until `total` given `done` so far and the current
/// completion rate; negative when unknowable (rate 0 or already done).
double eta_seconds(std::uint64_t done, std::uint64_t total,
                   double rate_per_sec);

/// Serializes one monitor tick as a single-line JSON object (the JSONL
/// snapshot schema in DESIGN.md §5f). `prev` may be null (first tick: no
/// deltas or rates). Exposed for tests.
std::string monitor_snapshot_json(const MetricsSnapshot& cur,
                                  const MetricsSnapshot* prev,
                                  std::uint64_t seq, std::uint64_t elapsed_us,
                                  std::uint64_t interval_us,
                                  std::int64_t wall_unix_ms, bool final);

// -- the monitor thread -----------------------------------------------------

struct MonitorConfig {
  /// JSONL time-series path; empty writes no file (heartbeats only).
  std::string jsonl_path;
  /// Snapshot / heartbeat cadence.
  std::chrono::milliseconds interval{250};
  /// Emit human heartbeat lines through the telemetry sink each tick.
  bool heartbeat = true;
  /// Sample process RSS/CPU into `process.*` instruments each tick.
  bool sample_process_stats = true;
};

class Monitor {
 public:
  /// The telemetry bundle must outlive the monitor.
  Monitor(Telemetry& telemetry, MonitorConfig config);
  ~Monitor();  ///< stops (writing the final snapshot) if still running

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Starts the background thread. Returns false (and warns through the
  /// sink) when the JSONL file cannot be opened; heartbeats still run.
  bool start();

  /// Stops the thread and writes the final snapshot. Idempotent and safe
  /// to call concurrently with the ticking thread.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  /// JSONL lines written so far (including the final one after stop()).
  [[nodiscard]] std::uint64_t snapshots_written() const {
    return snapshots_.load();
  }

 private:
  void loop();
  void tick(bool final);
  std::string heartbeat_line(const MetricsSnapshot& cur,
                             const MetricsSnapshot& prev,
                             std::uint64_t interval_us) const;

  Telemetry& telemetry_;
  const MonitorConfig config_;

  std::mutex mu_;  ///< guards tick state (file, prev snapshot, seq)
  std::ofstream out_;
  MetricsSnapshot prev_;
  bool have_prev_ = false;
  std::uint64_t seq_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::chrono::steady_clock::time_point prev_tick_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> snapshots_{0};
};

}  // namespace weakkeys::obs
