// Multi-process batch-GCD cluster coordinator.
//
// Where batchgcd::batch_gcd_distributed() runs the k batch-GCD rows (one per
// subset, batchgcd/task_set.hpp) on a thread pool that never fails, this
// coordinator runs them across a real failure domain: it fork/execs N worker
// processes (tools/gcd_worker), distributes the rows (batchgcd::TaskSet, the
// same decomposition) over the framed TCP protocol in cluster/protocol.hpp,
// and survives actual process death —
// a SIGKILLed worker is a closed socket, a SIGSTOPped worker is a process
// that silently stops answering heartbeats, a garbled frame is bytes that
// fail CRC on the wire.
//
// Data placement: each node holds the subsets and derives their products.
// The coordinator streams subset moduli only: all k of them to each worker,
// once per session, before its first row (a row needs every product). The
// worker takes each P_b as the root of its own product tree over subset b.
// Beyond verifying and folding claims (TaskSet::verify / combine), the
// coordinator does no bignum work.
//
// Failure matrix -> policy. Every link is a session: a lost link parks the
// slot in kDisconnected, keeping its session (cached payload delivery,
// transfer progress, result sequence), for a grace window of
// heartbeat_interval x heartbeat_misses. Local death is observed, remote
// loss is waited out:
//
//   worker exits / SIGKILL        socket EOF parks the slot; waitpid(WNOHANG)
//                                 sees the exit within ~10 ms -> requeue its
//                                 in-flight task, respawn within the restart
//                                 budget, no grace spent
//   worker wedged / SIGSTOP       heartbeat Pongs stop -> after
//                                 heartbeat_misses intervals the slot parks;
//                                 the grace runs out -> SIGKILL, requeue,
//                                 respawn (budget permitting)
//   frame dropped or garbled      receiver CRC rejects / nothing arrives ->
//                                 per-task timeout requeues the assignment;
//                                 stream chunks rewind by go-back-N
//   corrupt result content        divisor re-verified on receipt; bad
//                                 results quarantined (never folded), the
//                                 sender accumulates strikes and is demoted
//                                 (killed + respawned) at the strike limit
//   task keeps failing            capped-exponential retry with jitter
//                                 (util::RetryPolicy), preferring a
//                                 different worker each time
//   link drops / partitions       the worker (alive, or remote and out of
//                                 sight) redials with ReconnectHello within
//                                 the grace window and resumes — results it
//                                 computed inside the partition replay and
//                                 are deduplicated by sequence + journal,
//                                 so every task still commits exactly once;
//                                 a grace that runs out is a death
//   restart budget exhausted      the slot retires; the run degrades to the
//                                 remaining workers and fails only when no
//                                 worker is left with tasks still pending
//   coordinator killed            every committed task is in the CRC'd
//                                 resume journal (batchgcd::TaskJournal,
//                                 same file as the in-process path's) —
//                                 rerun to resume; orphaned workers redial
//                                 for one grace window, then exit
//
// Verified divisor claims are folded commutatively, so the output is
// element-for-element identical to batch_gcd() under any fault schedule —
// the chaos e2e test pins exactly that.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "batchgcd/batch_gcd.hpp"
#include "obs/telemetry.hpp"
#include "util/cancellation.hpp"
#include "util/fault_injector.hpp"
#include "util/retry.hpp"

namespace weakkeys::cluster {

struct ClusterConfig {
  /// Subset count k; k rows. Clamped to [1, moduli.size()].
  std::size_t subsets = 4;
  /// Worker processes to fork/exec. Clamped to >= 1 unless remote_workers
  /// covers the compute (then 0 local workers is legal).
  std::size_t workers = 2;
  /// Extra dial-in slots for remote workers the coordinator does not spawn
  /// itself (gcd_worker --connect host:port). Remote workers identify with
  /// ids in [workers, workers + remote_workers); their pids are recorded
  /// from Hello rather than validated, and a lost remote slot re-arms to
  /// await a fresh dial-in (within the shared restart budget) instead of
  /// being fork/exec'd.
  std::size_t remote_workers = 0;
  /// Path to the gcd_worker binary. Required when workers > 0.
  std::string worker_binary;
  /// Listen address for worker connections. Loopback by default; bind a
  /// routable address to accept remote workers.
  std::string bind_address = "127.0.0.1";
  /// Listen port; 0 = kernel-assigned ephemeral.
  std::uint16_t port = 0;
  /// Invoked with the actually bound listen port once the coordinator is
  /// accepting connections — how tests and tools launch dial-in workers
  /// against an ephemeral port.
  std::function<void(std::uint16_t)> on_listen;
  /// Chunk size for streaming subset payloads to workers.
  std::size_t stream_chunk_bytes = 64 * 1024;
  /// Backpressure: at most this many chunks may be in flight beyond the
  /// worker's acked prefix on one transfer.
  std::size_t stream_window_chunks = 8;
  /// Per-task retry schedule: capped exponential backoff with
  /// deterministic jitter, and the per-task attempt budget.
  util::RetryPolicy retry;
  /// An assignment not answered within this deadline is requeued (the
  /// worker is left alive — slow is not dead; dead is the heartbeat's
  /// call).
  std::chrono::milliseconds task_timeout{10000};
  /// Ping cadence per worker.
  std::chrono::milliseconds heartbeat_interval{100};
  /// Pongs may lag this many intervals before the link is declared lost.
  /// heartbeat_interval x heartbeat_misses is also the session grace: how
  /// long a lost link's session waits for the worker to dial back before
  /// the slot is declared lost and respawned.
  std::size_t heartbeat_misses = 10;
  /// Total worker respawns allowed across the whole run (not per slot).
  /// When exhausted, dead slots retire and the run degrades.
  std::size_t restart_budget = 8;
  /// Verification failures tolerated from one worker incarnation before it
  /// is demoted (killed and respawned, budget permitting).
  std::size_t quarantine_strikes = 3;
  /// A spawned worker must connect and complete the handshake within this
  /// deadline or it is killed and respawned (budget permitting).
  std::chrono::milliseconds spawn_timeout{10000};
  /// Resume journal path; empty disables journaling. Same file format as
  /// batch_gcd_distributed's journal — runs resume across engines.
  std::string checkpoint_path;
  bool remove_checkpoint_on_success = true;
  /// Test hook: stop dispatching once this many tasks committed this run
  /// and throw CoordinatorInterrupted (journal retained).
  std::size_t halt_after_tasks = 0;
  /// Cooperative cancellation: the coordinator registers a callback that
  /// wakes its event loop, which then stops at once (journal retained).
  util::CancellationToken* cancel = nullptr;
  /// Fault source for the process tier (SIGKILL/SIGSTOP per assignment)
  /// and the coordinator's outbound frame tier. Its frame and connection
  /// fault probabilities also reach the workers on their command line, so
  /// result frames suffer the same lossy link as assignment frames.
  const util::FaultInjector* injector = nullptr;
  std::function<void(const std::string&)> log;
  /// Telemetry: the kClusterCounters, the cluster.workers_alive gauge and
  /// per-worker cluster.worker.<w>.deaths counters. Must outlive the call.
  obs::Telemetry* telemetry = nullptr;
  /// Telemetry export cadence forwarded to spawned workers: each
  /// worker ships a TelemetrySnapshot (metrics + spans + RSS/CPU) at most
  /// this often, piggybacked on the heartbeat path. The coordinator fans
  /// the snapshots into fleet.worker.<id>.* / fleet.* metrics on its
  /// registry. 0 disables export (workers get --no-telemetry).
  std::chrono::milliseconds telemetry_interval{500};
  /// When non-empty, collect a fleet-merged Chrome trace — coordinator
  /// assign spans plus clock-rebased worker task spans — and write it here
  /// at the end of the run. Implies trace context on TaskAssigns. The
  /// fleet's metrics go to `telemetry`'s registry, trace or not.
  std::string fleet_trace_path;
  /// Out-of-core spill directory for the spawned workers' subset trees
  /// (gcd_worker --spill-dir); empty leaves spilling off. Level files are
  /// named per worker, so one directory serves them all.
  std::string spill_dir;
  /// Per-tree spill threshold in MiB, forwarded with spill_dir
  /// (--spill-threshold-mb); 0 = always spill.
  std::size_t spill_threshold_mb = 256;
  /// Profiler settings forwarded to spawned workers: --profile (<= 0 =
  /// off) and --profile-out `<profile_out>.worker<id>` (empty keeps the
  /// profile in the worker's metrics).
  double profile_hz = 0;
  std::string profile_out;
};

struct ClusterStats {
  std::uint64_t subsets = 0;
  std::uint64_t tasks = 0;
  std::uint64_t workers = 0;          ///< configured slot count
  std::uint64_t workers_spawned = 0;  ///< all spawns, initial + respawns
  std::uint64_t respawns = 0;         ///< spawns beyond each slot's first
  std::uint64_t workers_lost = 0;     ///< deaths observed (EOF, heartbeat,
                                      ///< spawn timeout, demotion)
  std::uint64_t heartbeat_deaths = 0;  ///< of which: declared via heartbeat
  std::uint64_t workers_demoted = 0;   ///< of which: quarantine strike-outs
  std::uint64_t workers_retired = 0;   ///< slots given up (budget exhausted)
  std::uint64_t attempts = 0;          ///< assignments sent
  std::uint64_t retries = 0;           ///< assignments beyond a task's first
  std::uint64_t task_timeouts = 0;     ///< assignments requeued by deadline
  std::uint64_t tasks_reassigned = 0;  ///< in-flight work voided by a death
  std::uint64_t results_quarantined = 0;  ///< results failing verification
  std::uint64_t sigkills_injected = 0;
  std::uint64_t sigstops_injected = 0;
  std::uint64_t tasks_resumed = 0;   ///< from the journal, not re-run
  std::uint64_t tasks_executed = 0;  ///< committed by this run's workers
  std::uint64_t reconnects = 0;      ///< sessions resumed after link loss
  std::uint64_t sessions_expired = 0;   ///< grace windows that ran out
  std::uint64_t duplicate_results = 0;  ///< results for already-done tasks
  std::uint64_t results_replayed = 0;   ///< outbox replays already received
  std::uint64_t stream_chunks_sent = 0;  ///< chunked payload frames written
  std::uint64_t stream_resumes = 0;  ///< go-back-N rewinds (timeout/reconnect)
  std::uint64_t frames_sent = 0;     ///< coordinator-side frames written
  std::uint64_t frames_dropped = 0;  ///< injected drops, both directions
  std::uint64_t frames_corrupt = 0;  ///< frames rejected by CRC on receipt
  std::uint64_t conn_faults_injected = 0;  ///< coordinator-side link events
  std::uint64_t max_heartbeat_rtt_us = 0;
  std::uint64_t telemetry_snapshots = 0;  ///< fresh exports ingested
  std::uint64_t telemetry_replays = 0;    ///< duplicate seqs (outbox replay)
  std::uint64_t telemetry_spans = 0;      ///< worker spans merged
};

/// One `cluster.*` counter and the ClusterStats field it mirrors.
struct ClusterCounter {
  const char* name;
  std::uint64_t ClusterStats::*field;
};

/// Every `cluster.*` counter a run with `ClusterConfig::telemetry` set
/// publishes. The coordinator counts in ClusterStats alone and copies each
/// field to its counter at the end of every event-loop turn and once more
/// at teardown, so after a run each counter equals its field.
inline constexpr ClusterCounter kClusterCounters[] = {
    {"cluster.subsets", &ClusterStats::subsets},
    {"cluster.tasks", &ClusterStats::tasks},
    {"cluster.workers", &ClusterStats::workers},
    {"cluster.respawns", &ClusterStats::respawns},
    {"cluster.workers_lost", &ClusterStats::workers_lost},
    {"cluster.tasks_executed", &ClusterStats::tasks_executed},
    {"cluster.tasks_resumed", &ClusterStats::tasks_resumed},
    {"cluster.tasks_reassigned", &ClusterStats::tasks_reassigned},
    {"cluster.task_timeouts", &ClusterStats::task_timeouts},
    {"cluster.results_quarantined", &ClusterStats::results_quarantined},
    {"cluster.attempts", &ClusterStats::attempts},
    {"cluster.retries", &ClusterStats::retries},
    {"cluster.frames_sent", &ClusterStats::frames_sent},
    {"cluster.frames_dropped", &ClusterStats::frames_dropped},
    {"cluster.frames_corrupt", &ClusterStats::frames_corrupt},
    {"cluster.reconnects", &ClusterStats::reconnects},
    {"cluster.sessions_expired", &ClusterStats::sessions_expired},
    {"cluster.duplicate_results", &ClusterStats::duplicate_results},
    {"cluster.stream_chunks", &ClusterStats::stream_chunks_sent},
    {"cluster.stream_resumes", &ClusterStats::stream_resumes},
};


/// The cluster could not finish: no workers left, a task exhausted its
/// retry budget, or setup failed (bind, spawn, missing binary).
class ClusterError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by the halt_after_tasks test hook: the simulated coordinator
/// kill. The checkpoint journal (if any) holds everything committed so far.
class CoordinatorInterrupted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Runs the k-subset batch GCD across real worker processes. Output is
/// element-for-element identical to batch_gcd() under any fault schedule.
/// Resumes from `config.checkpoint_path` (shared journal format with
/// batch_gcd_distributed). Throws util::Cancelled on cancellation (journal
/// retained), CoordinatorInterrupted from the halt_after_tasks hook,
/// ClusterError when the run cannot complete.
batchgcd::BatchGcdResult batch_gcd_cluster(std::span<const bn::BigInt> moduli,
                                           const ClusterConfig& config,
                                           ClusterStats* stats = nullptr);

}  // namespace weakkeys::cluster
