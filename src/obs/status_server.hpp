// Embedded HTTP status server: lets a running study or coordinator job be
// curl-polled or Prometheus-scraped while it works (see DESIGN.md §5f).
//
// Plain POSIX sockets, one background accept thread, loopback by default.
// Three endpoints:
//   GET /metrics  -> Prometheus text exposition (version 0.0.4) of the
//                    whole MetricsRegistry: counters, gauges, histograms
//                    (cumulative `_bucket{le=...}` + `_sum`/`_count`, plus
//                    `_p50`/`_p90`/`_p99` estimate gauges);
//   GET /status   -> JSON: pid, uptime, lifecycle state (when a probe is
//                    configured), and the full metrics snapshot;
//   GET /healthz  -> liveness: 200 "ok" while the lifecycle probe reports
//                    healthy (or none is configured), 503 with the phase
//                    in the body once the run is cancelled or stalled.
//
// Lifecycle is race-free under parallel ctest: construction only records
// config; start() binds (retrying port, port+1, ... on EADDRINUSE up to
// `bind_retries`; port 0 asks the kernel for an ephemeral port — read the
// result from port()), and stop()/the destructor joins the accept thread
// before closing the socket.
//
// Opt-in via StudyConfig::status_port.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace weakkeys::obs {

/// Prometheus metric-name mangling (DESIGN.md §5f): prefix `weakkeys_`,
/// then every character outside [a-zA-Z0-9_] becomes '_' (our dots and
/// dashes both map to underscores).
std::string prometheus_metric_name(const std::string& name);

/// The full registry snapshot in Prometheus text exposition format.
std::string prometheus_text(const MetricsSnapshot& snap);

/// What the run's lifecycle layer reports through /healthz and /status.
/// Plain data so obs stays below util in the layering: core::Study fills it
/// from its CancellationToken and run state; the server just serializes it.
struct LifecycleStatus {
  /// Machine-readable state: "idle", "running", "cancelling", "cancelled",
  /// "stalled", "failed", "done".
  std::string phase = "running";
  /// Health summary: /healthz answers 200 while true, 503 once false.
  bool healthy = true;
  /// Why the run was cancelled (empty while it wasn't).
  std::string cancel_reason;
  /// Seconds until the armed run/stage deadline; negative = no deadline.
  double deadline_remaining_s = -1.0;
  /// The pipeline stage currently executing ("ingest", "factor", ...).
  std::string stage;
};

struct StatusServerConfig {
  /// Port to bind; 0 = kernel-assigned ephemeral port.
  std::uint16_t port = 0;
  /// On EADDRINUSE, also try port+1 .. port+bind_retries before giving up
  /// (ignored for port 0 — the kernel never collides).
  int bind_retries = 16;
  /// Bind address; loopback by default (the status page is diagnostics,
  /// not a public service).
  std::string bind_address = "127.0.0.1";
  /// Lifecycle probe, polled per request from the accept thread (so it must
  /// be thread-safe and cheap). Null = no lifecycle reporting: /healthz
  /// answers 200 unconditionally and /status omits the lifecycle object.
  std::function<LifecycleStatus()> lifecycle;
};

class StatusServer {
 public:
  /// The telemetry bundle must outlive the server.
  StatusServer(Telemetry& telemetry, StatusServerConfig config = {});
  ~StatusServer();  ///< stop()

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  /// Binds and starts the accept thread. False when no port in the retry
  /// window could be bound (a warning is emitted through the sink).
  bool start();

  /// Joins the accept thread and closes the socket. Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  /// The actually bound port (after ephemeral assignment / bind retries);
  /// -1 when not running.
  [[nodiscard]] int port() const { return port_.load(); }
  /// Requests served so far (any endpoint).
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_.load();
  }

 private:
  void accept_loop();
  void handle_connection(int fd);
  [[nodiscard]] std::string respond(const std::string& path) const;

  Telemetry& telemetry_;
  const StatusServerConfig config_;
  std::chrono::steady_clock::time_point started_at_;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<int> port_{-1};
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace weakkeys::obs
