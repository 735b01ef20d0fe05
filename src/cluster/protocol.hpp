// Wire protocol for the multi-process batch-GCD cluster.
//
// The coordinator and each worker speak length-prefixed, CRC-framed binary
// messages over a TCP socket (127.0.0.1 — this models the paper's cluster
// interconnect, it is not an internet-facing service):
//
//   frame: u32 payload-length | u32 crc32(payload) | payload
//   payload: u8 message-type | message body (util::BufferWriter encoding)
//
// The CRC is not decorative: the fault injector's frame tier garbles
// payload bytes *after* the checksum is computed, so a corrupted frame
// reaches the receiver and must be rejected there. FrameConn::recv()
// discards CRC-mismatched frames (reporting them as kCorrupt so the caller
// can count and react) and keeps the connection alive — recovery happens at
// the task layer via timeouts and reassignment, exactly as a real lossy
// transport would force.
//
// Message flow (protocol v7):
//
//   worker -> coordinator   Hello             (identify: worker id, pid, ver)
//   coordinator -> worker   HelloAck          (fingerprint, session, grace)
//   coordinator -> worker   StreamBegin       (open a subset transfer)
//   coordinator -> worker   StreamChunk       (offset-addressed payload slice)
//   worker -> coordinator   StreamAck         (contiguous-prefix receipt)
//   coordinator -> worker   TaskAssign        (row + trace context)
//   worker -> coordinator   TaskResult        (divisor claims, session seq)
//   coordinator -> worker   Ping              (liveness + result/telemetry ack)
//   worker -> coordinator   Pong              (echo + stats + worker clock)
//   worker -> coordinator   TelemetrySnapshot (metrics/spans/proc stats)
//   worker -> coordinator   ReconnectHello    (resume session after link loss)
//   coordinator -> worker   ReconnectAck      (accept/reject + replay point)
//   coordinator -> worker   Shutdown          (drain, flush telemetry, exit 0)
//
// Version check: Hello/ReconnectHello carry the worker's protocol version
// and the coordinator closes any connection whose version is not
// kProtocolVersion, before it sends a HelloAck or ReconnectAck. That check,
// not the body length, keeps mismatched peers apart: a worker only ever
// decodes acks from a coordinator that already accepted its version. There
// is one dialect: every body has a fixed field list, and decode_guard
// rejects both short bodies and trailing bytes.
//
// Subset moduli are the only payload: all k subsets are streamed to each
// worker once per *session*, before its first row, in chunked,
// offset-addressed frames (StreamBegin/Chunk/Ack — go-back-N with a bounded
// send window for backpressure) and cached worker-side, so the k TaskAssign
// frames stay tiny. Each node holds the subsets and derives their products:
// row a (batchgcd/task_set.hpp) walks subset a's product tree and takes
// every other P_b as the root of the worker's own tree over subset b. A
// session survives TCP disconnection: the worker dials back and offers
// ReconnectHello{session_id, last_committed_seq}; the coordinator resumes
// in-flight transfers from the acked prefix and the worker replays
// unacknowledged TaskResults, which the coordinator deduplicates by
// session-scoped result sequence and by task state — so every task commits
// to the WKCP journal exactly once no matter how often the link flaps.
//
// The connection tier of the fault injector perturbs the link itself
// (abrupt disconnect, timed bidirectional partition, half-open, slow-drip
// throttle); FrameConn implements those as link-state windows that mute or
// throttle *all* frames — control included — which is what distinguishes a
// partition from per-frame loss.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "batchgcd/task_journal.hpp"
#include "bn/bigint.hpp"
#include "obs/fleet.hpp"
#include "util/fault_injector.hpp"

namespace weakkeys::cluster {

/// Bumped on any incompatible frame/message change; Hello carries it and
/// the coordinator refuses any worker speaking another version. v2 added
/// sessions (reconnect handshake, result sequencing) and chunked
/// subset/product streaming; v3 added the telemetry plane (TaskAssign trace
/// context, TelemetrySnapshot export, Pong clock samples); v4 made sessions
/// unconditional, with HelloAck naming the session grace window; v5
/// dropped the heartbeat interval from HelloAck and ReconnectAck (the
/// worker paces itself by the grace alone); v6 dropped the product payload
/// (ProductData, StreamBegin's kind): every stream carries one subset, and
/// workers compute each product from the subset itself; v7 made the row the
/// task (TaskAssign names one subset and k).
inline constexpr std::uint32_t kProtocolVersion = 7;

/// Upper bound on a frame payload; a length prefix beyond this means the
/// stream is garbage (or hostile) and the connection is dropped rather
/// than letting the decoder buffer gigabytes that will never arrive.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 28;  // 256 MiB

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kSubsetData = 3,  ///< retained as the *payload encoding* of a stream
  kTaskAssign = 5,
  kTaskResult = 6,
  kPing = 7,
  kPong = 8,
  kShutdown = 9,
  kReconnectHello = 10,
  kReconnectAck = 11,
  kStreamBegin = 12,
  kStreamChunk = 13,
  kStreamAck = 14,
  kTelemetrySnapshot = 15,  ///< worker metrics/spans/proc-stats export
};

struct Frame {
  MsgType type = MsgType::kHello;
  std::vector<std::uint8_t> body;  ///< payload minus the type byte
};

// -- messages ---------------------------------------------------------------
// Each message encodes its body with util::BufferWriter (fixed-width
// little-endian) and decodes with decode(), returning nullopt on any
// malformed body (short reads throw inside and are caught — a frame that
// passed the CRC can still be nonsense if the sender is broken).

struct HelloMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t pid = 0;
  std::uint32_t version = kProtocolVersion;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<HelloMsg> decode(const std::vector<std::uint8_t>& body);
};

struct HelloAckMsg {
  std::uint64_t fingerprint = 0;  ///< corpus identity (sanity check)
  std::uint64_t session_id = 0;  ///< minted per handshake; reconnect key
  /// How long the coordinator holds a lost link's session. The worker
  /// redials for this long, and declares a silent link dead after it.
  std::uint32_t grace_ms = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<HelloAckMsg> decode(
      const std::vector<std::uint8_t>& body);
};

/// Offered by a worker dialing back after link loss: resume `session_id`
/// instead of starting over. `last_committed_seq` is the highest result
/// sequence the coordinator has acknowledged (via Ping) — everything the
/// worker sent after it is replayed once the ReconnectAck names the
/// coordinator's own high-water mark.
struct ReconnectHelloMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t pid = 0;
  std::uint64_t session_id = 0;
  std::uint64_t last_committed_seq = 0;
  std::uint32_t version = kProtocolVersion;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<ReconnectHelloMsg> decode(
      const std::vector<std::uint8_t>& body);
};

/// accepted == 0 means the session expired (grace window passed, or the
/// coordinator restarted); the worker must exit and let the supervisor
/// spawn a fresh incarnation. On acceptance the worker prunes its outbox
/// through `ack_result_seq` and replays the rest.
struct ReconnectAckMsg {
  std::uint8_t accepted = 0;
  std::uint64_t ack_result_seq = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<ReconnectAckMsg> decode(
      const std::vector<std::uint8_t>& body);
};

/// The body every stream reassembles into: one subset's moduli.
struct SubsetDataMsg {
  std::uint32_t subset = 0;
  std::vector<bn::BigInt> moduli;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<SubsetDataMsg> decode(
      const std::vector<std::uint8_t>& body);
};

struct TaskAssignMsg {
  std::uint32_t task = 0;            ///< the row: subset a's index
  /// k: the row needs all k subsets, so a worker runs it only once it
  /// holds every one.
  std::uint32_t subsets = 0;
  std::uint32_t attempt = 0;         ///< 0-based, for logging/tracing
  // Trace context: the worker's task spans become children of the
  // coordinator's assign span so one task is one causally-linked tree
  // across both processes. Zero trace_id = tracing off (worker opens none).
  std::uint64_t trace_id = 0;        ///< run-unique trace identity
  std::uint64_t parent_span = 0;     ///< coordinator-side assign span id
  std::int64_t assign_ts_ns = 0;     ///< coordinator steady clock at send

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<TaskAssignMsg> decode(
      const std::vector<std::uint8_t>& body);
};

struct TaskResultMsg {
  std::uint32_t task = 0;
  std::uint32_t worker_id = 0;
  /// Session-scoped monotonic sequence (1-based) assigned by the worker;
  /// the coordinator's dedup key for replays after reconnect.
  std::uint64_t result_seq = 0;
  std::vector<batchgcd::TaskClaim> claims;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<TaskResultMsg> decode(
      const std::vector<std::uint8_t>& body);
};

struct PingMsg {
  std::uint64_t seq = 0;
  std::int64_t t_send_ns = 0;  ///< coordinator steady-clock, echoed back
  /// Highest result_seq the coordinator has received this session; the
  /// worker prunes its replay outbox through it.
  std::uint64_t ack_result_seq = 0;
  /// Highest TelemetrySnapshot seq the coordinator has ingested this
  /// session; the worker prunes its telemetry outbox through it (same
  /// loss-tolerance shape as results — unacked snapshots replay after a
  /// reconnect).
  std::uint64_t ack_telemetry_seq = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<PingMsg> decode(const std::vector<std::uint8_t>& body);
};

struct PongMsg {
  std::uint64_t seq = 0;
  std::int64_t t_send_ns = 0;      ///< echoed from the Ping
  std::uint32_t tasks_done = 0;    ///< tasks this incarnation completed
  std::uint64_t frames_sent = 0;   ///< worker-side transport stats,
  std::uint64_t frames_dropped = 0;  ///< surfaced in cluster.* metrics
  /// The worker's steady clock when this Pong was built. Combined with
  /// the coordinator's send/receive timestamps for the same ping seq, this
  /// is one clock-offset observation (midpoint method, error <= RTT/2) —
  /// how the FleetAggregator rebases worker span timestamps.
  std::int64_t worker_now_ns = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<PongMsg> decode(const std::vector<std::uint8_t>& body);
};

// -- telemetry export -------------------------------------------------------

/// One completed worker-side span, timestamped on the worker's steady
/// clock: `ts_us` is microseconds since the *epoch* named by the owning
/// snapshot's `trace_epoch_ns`, so the coordinator can rebase it with the
/// estimated clock offset. `depth` nests spans sharing a thread lane, and
/// `args` carries small integer annotations (task id, attempt, claims).
/// `tid` is not on the wire: worker spans all share one lane.
using TelemetrySpan = obs::TraceEvent;

/// Periodic worker → coordinator telemetry export: an obs::FleetSnapshot
/// plus its wire codec, so the coordinator hands it to the aggregator as
/// is. Snapshots are sequenced per session (`seq`, 1-based) and kept in a
/// worker-side outbox until the Ping path acks them, so a link flap loses
/// nothing: the worker replays unacked snapshots after reconnect, and the
/// coordinator dedups by (seq) plus by each span's global index
/// (`first_span_index` + offset). Counter/gauge values are absolute
/// (last-write-wins on the coordinator), which makes replays and droppage
/// harmless.
struct TelemetrySnapshotMsg : obs::FleetSnapshot {
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<TelemetrySnapshotMsg> decode(
      const std::vector<std::uint8_t>& body);
};

// -- chunked streaming ------------------------------------------------------
// Subset moduli travel as a stream: one StreamBegin announcing
// identity/size/checksum, then offset-addressed
// StreamChunks. The receiver accepts only the chunk extending its
// contiguous prefix (go-back-N) and acks the prefix length; the sender
// keeps at most a window of unacked bytes in flight (backpressure) and
// rewinds to the acked prefix on retransmit timeout or reconnect — which
// is what makes a transfer resumable mid-stream.

/// Opens a transfer whose reassembled payload is a SubsetDataMsg body.
struct StreamBeginMsg {
  std::uint32_t stream_id = 0;  ///< coordinator-unique transfer id
  std::uint32_t subset = 0;     ///< which subset this carries
  std::uint64_t total_bytes = 0;
  std::uint32_t payload_crc = 0;  ///< crc32 of the whole reassembled payload

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<StreamBeginMsg> decode(
      const std::vector<std::uint8_t>& body);
};

struct StreamChunkMsg {
  std::uint32_t stream_id = 0;
  std::uint64_t offset = 0;  ///< byte offset of `data` within the payload
  std::vector<std::uint8_t> data;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<StreamChunkMsg> decode(
      const std::vector<std::uint8_t>& body);
};

struct StreamAckMsg {
  std::uint32_t stream_id = 0;
  std::uint64_t received = 0;  ///< contiguous prefix bytes now held

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<StreamAckMsg> decode(
      const std::vector<std::uint8_t>& body);
};

// Shutdown has an empty body.

// -- framed connection ------------------------------------------------------

/// This process's steady clock in nanoseconds: the unit of every ping
/// timestamp, clock sample and span time on the wire.
std::int64_t steady_now_ns();

/// What recv()/try_recv() observed. kCorrupt keeps the connection usable —
/// the frame was consumed and discarded; kClosed ends it.
enum class RecvStatus : std::uint8_t {
  kOk = 0,
  kTimeout,  ///< no whole frame yet (deadline passed, or would block)
  kCorrupt,  ///< a whole frame arrived but its CRC did not match
  kClosed,   ///< EOF, oversized length prefix, or a hard socket error
};

/// Cumulative transport counters for one connection.
struct FrameStats {
  std::uint64_t sent = 0;     ///< frames actually written
  std::uint64_t dropped = 0;  ///< frames the injector swallowed
  std::uint64_t garbled = 0;  ///< frames the injector corrupted on send
  std::uint64_t corrupt = 0;  ///< received frames rejected by CRC
  // Connection-tier events and their fallout:
  std::uint64_t conn_disconnects = 0;  ///< link severed by the injector
  std::uint64_t conn_partitions = 0;   ///< bidirectional mute windows opened
  std::uint64_t conn_half_opens = 0;   ///< TX-only mute windows opened
  std::uint64_t conn_drips = 0;        ///< slow-drip windows opened
};

/// One framed, fault-injectable connection endpoint. send() is thread-safe
/// (the worker's RX thread answers pings while its compute thread sends
/// results); recv()/try_recv() and stats() belong to one reading thread.
/// Does not own the fd.
///
/// Receiving goes through one incremental decoder: bytes are read without
/// blocking into a per-connection buffer and whole frames are cut from it.
/// A peer that stalls mid-frame therefore costs nothing but buffered bytes
/// — the coordinator's event loop keeps serving every other connection.
class FrameConn {
 public:
  /// `stream` seeds the injector's frame tier: each direction of each
  /// worker connection is its own stream, so fault schedules are stable
  /// per-direction regardless of traffic on other connections.
  /// `tx_seq_start`/`conn_seq_start` restore the injector counters of a
  /// previous connection on the same stream: a reconnected link continues
  /// the deterministic fault schedule where the old one left off instead
  /// of replaying it from zero (which would re-sever a fresh link with the
  /// exact fault that killed its predecessor, forever).
  FrameConn(int fd, std::uint64_t stream,
            const util::FaultInjector* injector = nullptr,
            std::uint64_t tx_seq_start = 0, std::uint64_t conn_seq_start = 0);

  /// Frames and writes one message. When `injectable`, the injector is
  /// consulted first: a drop decision skips the write entirely (the
  /// receiver sees nothing), a garble flips a payload byte *after* the CRC
  /// is computed, a delay sleeps before writing. Returns false only on a
  /// hard socket error — an injected drop "succeeds" from the sender's
  /// point of view, exactly like a lost packet.
  ///
  /// Callers mark injectable only the frames some layer above recovers:
  /// TaskAssign and TaskResult (task timeout + reassignment, outbox
  /// replay) and StreamBegin/StreamChunk (go-back-N retransmit). Control
  /// frames (handshake, stream acks, heartbeats, telemetry, shutdown) are
  /// sent clean: a dropped Hello would only replay deterministically into
  /// an identical drop on every respawn and wedge the handshake — there is
  /// no retry layer above it to exercise.
  bool send(MsgType type, const std::vector<std::uint8_t>& body,
            bool injectable = false);

  /// Returns the next whole frame without blocking: decodes from the
  /// buffer, reading whatever the socket already holds when the buffer has
  /// no whole frame. kTimeout = no whole frame available yet (a partial one
  /// stays buffered for the next call). Frames arriving inside an RX-mute
  /// window (injected partition) are consumed and discarded as if the
  /// network had eaten them.
  RecvStatus try_recv(Frame* out);

  /// Blocking form of try_recv(): waits up to `timeout` (negative =
  /// forever) for a whole frame.
  RecvStatus recv(Frame* out, std::chrono::milliseconds timeout);

  /// A copy of the counters, taken under the send lock.
  [[nodiscard]] FrameStats stats() const {
    std::lock_guard guard(tx_mu_);
    return stats_;
  }

  /// Injector-counter snapshots for carrying across a reconnect. Atomic so
  /// a supervisor can snapshot them while a stray late send is in flight.
  [[nodiscard]] std::uint64_t tx_seq() const {
    return tx_seq_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t conn_seq() const {
    return conn_seq_.load(std::memory_order_relaxed);
  }

 private:
  int fd_;
  std::uint64_t stream_;
  std::atomic<std::uint64_t> tx_seq_;
  std::atomic<std::uint64_t> conn_seq_;
  const util::FaultInjector* injector_;
  mutable std::mutex tx_mu_;  ///< serializes writes; guards stats_ sends
  FrameStats stats_;
  std::vector<std::uint8_t> rx_buf_;  ///< [rx_pos_, rx_end_) not yet decoded
  std::size_t rx_pos_ = 0;
  std::size_t rx_end_ = 0;
  // Connection-tier link state. Deadlines are steady-clock nanoseconds;
  // atomics because a send on any thread opens windows that the (single)
  // recv thread must observe.
  std::atomic<std::int64_t> tx_mute_until_ns_{0};
  std::atomic<std::int64_t> rx_mute_until_ns_{0};
  std::atomic<std::int64_t> drip_until_ns_{0};
  std::atomic<std::uint32_t> drip_delay_ms_{0};
  std::atomic<bool> severed_{false};
};

}  // namespace weakkeys::cluster
