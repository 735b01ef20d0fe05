// The cluster worker: one OS process executing batch-GCD rows on behalf of
// cluster::ProcessCoordinator. tools/gcd_worker.cpp is a thin
// argv shim over run_worker(); tests can also run a worker in-process
// (in a thread) to exercise the protocol without forking.
//
// Data placement: each node holds the subsets and derives their products.
// The coordinator streams all k subsets' moduli, and nothing else, before
// the first row; for row a the worker reduces every other P_b, the root of
// its own product tree over subset b, into subset a and walks its tree over
// subset a once (batchgcd::remainder_row_residues). Each tree is built the
// first time a row needs it and cached for the session.
//
// Thread structure: the RX loop (the calling thread) answers Pings
// immediately, reassembles subset streams and queues TaskAssigns; a
// separate compute thread pops rows, builds/caches subset product trees,
// runs the remainder tree, and sends TaskResults. Liveness is therefore
// real: a SIGSTOPped worker stops answering pings because the whole
// process is frozen, not because a flag was set — the coordinator's
// heartbeat detector has to notice on its own.
//
// The TCP connection is a replaceable transport under a durable session:
// on EOF, or when no frame has arrived for the grace window the
// coordinator names in HelloAck (half-open detection), the RX loop returns
// to run(), which redials for up to that same window and offers
// ReconnectHello{session_id} while the compute thread keeps crunching.
// Completed results wait in a sequence-numbered outbox — pruned by the
// coordinator's acks piggybacked on Pings, replayed after each reconnect —
// so a result computed inside a partition is delivered exactly once after
// it heals. A remote worker needs no setting for any of this: the grace
// comes from the coordinator, and dialed sockets always arm TCP keepalive.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "util/fault_injector.hpp"

namespace weakkeys::cluster {

struct WorkerConfig {
  std::string coordinator_address = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint32_t worker_id = 0;
  std::chrono::milliseconds connect_timeout{10000};
  /// Fault injection, worker side. Frame tier applies to the worker's
  /// *outbound* frames (the coordinator injects its own side; each end
  /// garbles only what it sends, like a real lossy link). The task tier
  /// acts here: kCrash is an _exit() mid-task (socket EOF at the
  /// coordinator), kStraggle sleeps past the task deadline then sends the
  /// late result anyway, kCorruptResult ships
  /// a divisor that cannot divide its modulus (the coordinator's
  /// re-verification must quarantine it).
  util::FaultConfig faults;
  /// How long a straggling task sleeps; meaningful only with
  /// straggle_probability > 0. The coordinator forwards a value beyond its
  /// task_timeout so a straggle is always a timeout there.
  std::chrono::milliseconds straggle_sleep{300};
  /// Telemetry export cadence: a Ping arriving at least this long after
  /// the previous export triggers a TelemetrySnapshot frame (metrics +
  /// completed task spans + RSS/CPU) back to the coordinator. 0 disables
  /// export entirely.
  std::chrono::milliseconds telemetry_interval{500};
  /// Sampling-profiler cadence for this worker process (DESIGN.md §5k);
  /// 0 disables.
  double profile_hz = 0;
  /// Collapsed-stack output path for this worker's profile; empty keeps the
  /// profile in metrics only.
  std::string profile_out;
  /// Out-of-core spill directory for this worker's subset product trees
  /// (DESIGN.md §5l); empty disables spilling. Level files are named
  /// "worker<id>.s<subset>.*" so workers sharing one directory never
  /// collide. gcd_worker wires --spill-dir here.
  std::string spill_dir;
  /// Estimated per-tree bytes at which spilling kicks in, in MiB
  /// (0 = always spill when a dir is set).
  std::size_t spill_threshold_mb = 256;
  /// Progress/diagnostic sink; null discards (gcd_worker wires stderr).
  std::function<void(const std::string&)> log;
};

/// Exit codes mirror process conventions: 0 = clean Shutdown from the
/// coordinator, nonzero = connection lost or protocol violation (the
/// coordinator treats any worker exit it did not request as a crash).
inline constexpr int kWorkerExitOk = 0;
inline constexpr int kWorkerExitConnect = 2;   ///< could not reach coordinator
inline constexpr int kWorkerExitProtocol = 3;  ///< handshake/stream failure

/// Connects, handshakes, and serves tasks until Shutdown, or until a lost
/// link cannot be resumed within the grace window. Returns the process exit
/// code.
int run_worker(const WorkerConfig& config);

}  // namespace weakkeys::cluster
