// Fleet-wide observability: merges per-worker telemetry exported over the
// cluster protocol into one coordinator-side view.
//
// Three jobs, all driven by the ProcessCoordinator:
//
//   1. Clock alignment. Every process runs on its own steady clock with an
//      arbitrary epoch, so worker span timestamps are meaningless to the
//      coordinator until rebased. Each Ping/Pong exchange yields one offset
//      observation by the midpoint method: the worker's clock sample is
//      assumed to land halfway through the round trip, so
//        offset = worker_now - (coord_send + coord_recv) / 2
//      with error bounded by RTT/2. The estimator keeps the observation
//      with the smallest RTT — the tightest bound — which on loopback is a
//      few microseconds.
//
//   2. Trace merge. The coordinator opens an assign span per task attempt;
//      workers ship their task.recv/compute/verify/send spans back in
//      TelemetrySnapshot frames (timestamps on the worker clock, relative
//      to a per-incarnation epoch). The aggregator rebases worker spans
//      onto the coordinator clock and emits one Chrome trace (through the
//      Tracer's writer, obs::chrome_trace_json) with a pid lane per
//      process, so a single timeline answers "where did task 37's 800 ms
//      go".
//
//   3. Metric fan-in. Worker counters/gauges/proc-stats are republished
//      into the coordinator's MetricsRegistry under fleet.worker.<id>.* —
//      plus fleet.* rollups summed across workers, and each worker's clock
//      offset and RTT — so the trace's metrics snapshot sees the whole
//      fleet for free. Worker counters reset when a worker is respawned;
//      the aggregator folds each dead incarnation's last-seen values into
//      a per-worker base so the published totals stay cumulative.
//
// Everything here is transport-agnostic plain data: the cluster layer's
// TelemetrySnapshotMsg is a FleetSnapshot plus a wire codec, keeping obs/
// free of any cluster dependency.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace weakkeys::obs {

class MetricsRegistry;

/// Midpoint-method clock offset estimator for one remote process. Feed it
/// (local send, local receive, remote clock sample) triples; it keeps the
/// minimum-RTT observation. offset_ns() is remote minus local, so
/// `remote_ns - offset_ns()` lands a remote timestamp on the local clock.
class ClockOffsetEstimator {
 public:
  void observe(std::int64_t local_send_ns, std::int64_t local_recv_ns,
               std::int64_t remote_now_ns);

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] std::int64_t offset_ns() const { return offset_ns_; }
  /// RTT of the observation the current offset came from — the error bound
  /// on offset_ns() is half of this.
  [[nodiscard]] std::int64_t best_rtt_ns() const { return best_rtt_ns_; }
  /// Remote steady-clock ns -> local steady-clock ns (identity when no
  /// observation has arrived yet).
  [[nodiscard]] std::int64_t rebase(std::int64_t remote_ns) const {
    return remote_ns - offset_ns_;
  }

 private:
  bool valid_ = false;
  std::int64_t offset_ns_ = 0;
  std::int64_t best_rtt_ns_ = 0;
};

/// One worker telemetry export, already decoded from the wire. Span
/// timestamps are worker-clock microseconds relative to `trace_epoch_ns`
/// (worker-clock ns); proc-stat fields are -1 when unavailable. The spans
/// reuse TraceEvent; `tid` is the worker-local thread lane.
struct FleetSnapshot {
  std::uint32_t worker_id = 0;
  std::uint64_t seq = 0;
  std::uint64_t first_span_index = 0;  ///< global index of spans[0]
  std::int64_t trace_epoch_ns = 0;
  std::int64_t rss_kb = -1;
  std::int64_t peak_rss_kb = -1;
  std::int64_t cpu_user_us = -1;
  std::int64_t cpu_sys_us = -1;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<TraceEvent> spans;
};

/// Not synchronized: the coordinator's event loop is its only caller.
class FleetAggregator {
 public:
  /// Chrome-trace pid lanes. The coordinator is pid 1 (matching the
  /// process-local Tracer's hardcoded pid); worker N renders as pid 2+N.
  static constexpr std::uint32_t kCoordinatorPid = 1;
  static constexpr std::uint32_t kWorkerPidBase = 2;

  /// `registry` receives the fleet.* metric fan-out on every ingest; pass
  /// nullptr to collect traces only. `trace_enabled` gates span collection
  /// (assign spans + ingested worker spans); metric fan-in is unaffected.
  explicit FleetAggregator(MetricsRegistry* registry = nullptr,
                           bool trace_enabled = true);

  /// Run-unique nonzero trace identity stamped into TaskAssign trace
  /// contexts (zero when tracing is disabled — workers open no spans).
  [[nodiscard]] std::uint64_t trace_id() const { return trace_id_; }
  [[nodiscard]] bool trace_enabled() const { return trace_enabled_; }

  /// Coordinator steady-clock ns of the aggregator's trace epoch (merged
  /// timestamps are microseconds since this instant).
  [[nodiscard]] std::int64_t epoch_ns() const { return epoch_ns_; }

  /// One Ping/Pong clock observation for `worker`'s current incarnation.
  void observe_clock(std::uint32_t worker, std::int64_t coord_send_ns,
                     std::int64_t coord_recv_ns, std::int64_t worker_now_ns);

  /// Current offset estimate for `worker` (identity estimator if none).
  [[nodiscard]] ClockOffsetEstimator clock_offset(std::uint32_t worker) const;

  /// Opens the coordinator-side assign span for one task attempt; returns
  /// the span id to stamp into the TaskAssign trace context (0 when
  /// tracing is disabled). `now_ns` is the coordinator steady clock.
  std::uint64_t begin_assign(std::uint32_t task, std::uint32_t worker,
                             std::uint32_t attempt, std::int64_t now_ns);

  /// Closes an assign span (idempotent; unknown ids are ignored).
  /// `committed` distinguishes a journal commit from an abandoned attempt
  /// (timeout reassignment, worker death) in the span args.
  void end_assign(std::uint64_t span_id, std::int64_t now_ns, bool committed);

  /// A fresh worker incarnation attached (spawn or respawn — not a session
  /// reconnect): folds the previous incarnation's counters into the
  /// per-worker base, resets its span dedup high-water and clock estimator.
  void on_worker_fresh(std::uint32_t worker);

  /// Ingests one telemetry export. Replayed spans (global index below the
  /// dedup high-water) are skipped; counter/gauge values are absolute so
  /// replays are naturally idempotent. Returns the number of new spans
  /// accepted.
  std::size_t ingest(const FleetSnapshot& snap);

  /// Merged timeline (coordinator assign spans + rebased worker spans) in
  /// timeline_order(). Each event's pid is kCoordinatorPid or
  /// kWorkerPidBase + worker id; timestamps are coordinator-clock
  /// microseconds since the trace epoch. Open assign spans are included
  /// as-if ended at their start (dur 0) so a halted run still shows them.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// chrome_trace_json() of events(), with a "coordinator" / "worker N"
  /// label on each pid lane.
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  struct WorkerState {
    ClockOffsetEstimator clock;
    std::uint64_t span_high_water = 0;  ///< next unseen global span index
    std::uint64_t snapshots = 0;
    std::map<std::string, std::uint64_t> counter_base;    ///< dead incarnations
    std::map<std::string, std::uint64_t> counter_latest;  ///< this incarnation
    std::map<std::string, std::int64_t> gauge_latest;
    std::int64_t rss_kb = -1;
    std::int64_t peak_rss_kb = -1;
    std::int64_t cpu_user_us = -1;
    std::int64_t cpu_sys_us = -1;
  };

  struct OpenAssign {
    std::uint32_t task = 0;
    std::uint32_t worker = 0;
    std::uint32_t attempt = 0;
    std::int64_t start_ns = 0;
  };

  /// The task.assign span of `open`, ended at `end_ns`.
  [[nodiscard]] TraceEvent assign_event(const OpenAssign& open,
                                        std::int64_t end_ns,
                                        bool committed) const;
  void publish();  // mirror fleet.* into the registry
  [[nodiscard]] std::uint64_t folded_counter(const WorkerState& ws,
                                             const std::string& name) const;

  MetricsRegistry* registry_;
  const bool trace_enabled_;
  const std::int64_t epoch_ns_;
  const std::uint64_t trace_id_;

  std::map<std::uint32_t, WorkerState> workers_;
  std::map<std::uint64_t, OpenAssign> open_assigns_;
  std::uint64_t next_span_id_ = 1;
  std::vector<TraceEvent> events_;
  std::uint64_t snapshots_total_ = 0;
};

}  // namespace weakkeys::obs
