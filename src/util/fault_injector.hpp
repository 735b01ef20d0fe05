// Deterministic fault injection for the distributed batch-GCD cluster.
//
// The paper's 86-minute, 22-machine cluster run (Section 3.2) lives in a
// world where workers crash, straggle, and return garbage. The injector
// decides those failure modes as a pure function of (seed, task, attempt):
// the schedule of injected faults does not depend on thread timing, worker
// count, or execution order, so every experiment — including the recovery
// benchmarks — is reproducible from a single seed.
#pragma once

#include <cstdint>

namespace weakkeys::util {

struct FaultConfig {
  std::uint64_t seed = 0;
  // -- Task tier (worker-side, per task attempt) ---------------------------

  /// Per-attempt probability that the worker crashes mid-task (a real
  /// _exit: the coordinator sees socket EOF).
  double crash_probability = 0.0;
  /// Per-attempt probability that the worker straggles past the
  /// coordinator's task deadline (the task is reassigned; the late result
  /// arrives as a duplicate).
  double straggle_probability = 0.0;
  /// Per-attempt probability that the worker returns a corrupted divisor
  /// (one that does not divide its modulus — result verification must
  /// catch it).
  double corrupt_probability = 0.0;

  // -- Process tier (coordinator-side, per task assignment) ----------------
  // A kSigkill decision SIGKILLs the assigned worker process mid-task, a
  // kSigstop SIGSTOPs it so its socket stalls and heartbeats stop (the
  // liveness detector must notice, not a flag).

  /// Per-assignment probability the assigned worker process is SIGKILLed.
  double sigkill_probability = 0.0;
  /// Per-assignment probability the assigned worker process is SIGSTOPped
  /// (a real stalled socket; recovery requires heartbeat-based detection).
  double sigstop_probability = 0.0;

  // -- Socket frame tier (cluster transport) ------------------------------
  // Applied per frame at the sending side of a cluster connection.

  /// Probability a frame is silently dropped (never written to the socket).
  double frame_drop_probability = 0.0;
  /// Probability a frame's payload is garbled after the CRC is computed —
  /// the receiver's CRC check must reject it.
  double frame_garble_probability = 0.0;
  /// Probability a frame is delayed by `frame_delay_ms` before sending.
  double frame_delay_probability = 0.0;
  /// How long a delayed frame waits, in milliseconds.
  std::uint32_t frame_delay_ms = 5;

  // -- Connection tier (cluster transport links) --------------------------
  // Where the frame tier perturbs individual frames, this tier perturbs the
  // *link*: a decision changes the connection's state for a window of time
  // (or severs it outright), affecting every frame — control frames
  // included — until the window closes. Decided per data frame at the
  // sending endpoint, from a stream disjoint from the frame tier's.

  /// Probability the link is abruptly severed (both directions; each end
  /// sees EOF). Recovery is the session layer's reconnect handshake.
  double conn_disconnect_probability = 0.0;
  /// Probability of a timed bidirectional partition: this endpoint stops
  /// transmitting *and* discards everything it receives for
  /// `conn_partition_ms`. The peer experiences total silence.
  double conn_partition_probability = 0.0;
  /// Probability of a timed half-open window: this endpoint keeps
  /// receiving but its own transmissions vanish for `conn_partition_ms` —
  /// the classic "peer thinks we're alive, we think they're dead" split.
  double conn_half_open_probability = 0.0;
  /// Probability of a slow-drip window: every frame sent during the next
  /// `conn_partition_ms` is throttled by `conn_drip_delay_ms`.
  double conn_slow_drip_probability = 0.0;
  /// Duration of partition / half-open / slow-drip windows, milliseconds.
  std::uint32_t conn_partition_ms = 50;
  /// Per-frame throttle during a slow-drip window, milliseconds.
  std::uint32_t conn_drip_delay_ms = 2;

  // -- Storage tier (spill store / disk I/O) ------------------------------
  // Applied per spill-file operation (one write-and-publish or one read).
  // Where the frame tier garbles what the network carries, this tier
  // perturbs what the disk keeps: a short write or failed fsync surfaces as
  // a StorageError the spill store must retry or degrade around; a
  // post-publish bit flip silently corrupts the *published* file so the
  // next read's CRC verification (and the heal path behind it) is what
  // gets exercised; ENOSPC drives the degradation ladder; slow I/O models
  // a saturated disk.

  /// Probability a spill write tears mid-payload (detected: StorageError).
  double storage_short_write_probability = 0.0;
  /// Probability the pre-publish fsync fails (detected: StorageError).
  double storage_fsync_fail_probability = 0.0;
  /// Probability one bit of the *published* file is flipped after a
  /// successful publish (silent: only CRC verification on load catches it).
  double storage_bit_flip_probability = 0.0;
  /// Probability a spill write fails with ENOSPC semantics.
  double storage_enospc_probability = 0.0;
  /// Probability an operation is delayed by `storage_slow_ms`.
  double storage_slow_probability = 0.0;
  /// How long a slow storage operation stalls, in milliseconds.
  std::uint32_t storage_slow_ms = 2;

  [[nodiscard]] bool any_faults() const {
    return crash_probability > 0 || straggle_probability > 0 ||
           corrupt_probability > 0 || any_process_faults() || any_frame_faults() || any_conn_faults() ||
           any_storage_faults();
  }
  [[nodiscard]] bool any_process_faults() const {
    return sigkill_probability > 0 || sigstop_probability > 0;
  }
  [[nodiscard]] bool any_frame_faults() const {
    return frame_drop_probability > 0 || frame_garble_probability > 0 ||
           frame_delay_probability > 0;
  }
  [[nodiscard]] bool any_conn_faults() const {
    return conn_disconnect_probability > 0 || conn_partition_probability > 0 ||
           conn_half_open_probability > 0 || conn_slow_drip_probability > 0;
  }
  [[nodiscard]] bool any_storage_faults() const {
    return storage_short_write_probability > 0 ||
           storage_fsync_fail_probability > 0 ||
           storage_bit_flip_probability > 0 ||
           storage_enospc_probability > 0 || storage_slow_probability > 0;
  }
};

enum class FaultKind : std::uint8_t {
  kNone = 0,      ///< attempt runs to completion with a correct result
  kCrash,         ///< worker dies mid-task; nothing is returned
  kStraggle,      ///< worker misses the deadline; coordinator kills it
  kCorruptResult  ///< worker returns a divisor that fails verification
};

struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  /// Which result slot to corrupt when kind == kCorruptResult (taken
  /// modulo the subset size by the worker).
  std::uint64_t corrupt_slot = 0;
};

/// A process-tier fault decision: what (if anything) to do to the worker
/// process a task was just assigned to.
enum class ProcessFaultKind : std::uint8_t {
  kNone = 0,
  kSigkill,  ///< SIGKILL the worker: instant death, socket EOF
  kSigstop   ///< SIGSTOP the worker: frozen process, stalled socket
};

/// A frame-tier fault decision for one outbound protocol frame.
struct FrameFault {
  bool drop = false;           ///< never write the frame
  bool garble = false;         ///< flip payload bits after the CRC
  std::uint32_t delay_ms = 0;  ///< sleep before writing (0 = no delay)

  [[nodiscard]] bool any() const { return drop || garble || delay_ms > 0; }
};

/// A connection-tier fault decision: what (if anything) happens to the
/// link itself at this point in the send stream.
enum class ConnFaultKind : std::uint8_t {
  kNone = 0,
  kDisconnect,  ///< sever the link; both ends see EOF
  kPartition,   ///< timed bidirectional silence (TX muted, RX discarded)
  kHalfOpen,    ///< timed one-directional silence (TX muted, RX intact)
  kSlowDrip     ///< timed per-frame throttle
};

struct ConnFault {
  ConnFaultKind kind = ConnFaultKind::kNone;
  std::uint32_t duration_ms = 0;    ///< window length for timed kinds
  std::uint32_t drip_delay_ms = 0;  ///< per-frame sleep for kSlowDrip

  [[nodiscard]] bool any() const { return kind != ConnFaultKind::kNone; }
};

/// A storage-tier fault decision: what (if anything) happens to the `seq`-th
/// spill-file operation on a store's stream.
enum class StorageFaultKind : std::uint8_t {
  kNone = 0,
  kShortWrite,  ///< tear the write mid-payload; writer reports StorageError
  kFsyncFail,   ///< the pre-publish fsync fails; writer reports StorageError
  kBitFlip,     ///< flip one bit of the published file (silent until read)
  kEnospc,      ///< the write fails with ENOSPC semantics
  kSlowIo       ///< stall the operation by `delay_ms`
};

struct StorageFault {
  StorageFaultKind kind = StorageFaultKind::kNone;
  std::uint32_t delay_ms = 0;  ///< stall length for kSlowIo
  /// Seed for picking the flipped bit's offset when kind == kBitFlip (taken
  /// modulo the file size by the writer).
  std::uint64_t flip_seed = 0;

  [[nodiscard]] bool any() const { return kind != StorageFaultKind::kNone; }
};

/// Seeded source of per-(task, attempt) fault decisions. Stateless after
/// construction; safe to share across worker threads.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config) : config_(config) {}

  /// The fault outcome for attempt number `attempt` (0-based) of `task`.
  /// Pure: the same (seed, task, attempt) always yields the same decision.
  [[nodiscard]] FaultDecision decide(std::uint64_t task,
                                     std::uint64_t attempt) const;

  /// The process-tier outcome for assignment `attempt` of `task` (keyed on
  /// the task, not the worker, so the schedule is independent of worker
  /// count — same property as decide()). Drawn from a stream disjoint from
  /// decide()'s, so enabling one tier never reshuffles the other.
  [[nodiscard]] ProcessFaultKind decide_process(std::uint64_t task,
                                                std::uint64_t attempt) const;

  /// The frame-tier outcome for the `seq`-th frame on stream `stream`
  /// (streams are per connection-direction). Pure in (seed, stream, seq).
  [[nodiscard]] FrameFault decide_frame(std::uint64_t stream,
                                        std::uint64_t seq) const;

  /// The connection-tier outcome for the `seq`-th data frame on `stream`.
  /// Pure in (seed, stream, seq) and drawn from a stream disjoint from
  /// decide_frame()'s; callers carry `seq` across reconnects so a healed
  /// link never replays the fault that severed it.
  [[nodiscard]] ConnFault decide_conn(std::uint64_t stream,
                                      std::uint64_t seq) const;

  /// The storage-tier outcome for the `seq`-th spill-file operation on
  /// `stream` (streams are per spill store). Pure in (seed, stream, seq)
  /// and drawn from a stream disjoint from every other tier's, so a storage
  /// schedule replays identically whatever else is enabled.
  [[nodiscard]] StorageFault decide_storage(std::uint64_t stream,
                                            std::uint64_t seq) const;

  [[nodiscard]] const FaultConfig& config() const { return config_; }

 private:
  FaultConfig config_;
};

}  // namespace weakkeys::util
