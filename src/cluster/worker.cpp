#include "cluster/worker.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "batchgcd/product_tree.hpp"
#include "batchgcd/remainder_tree.hpp"
#include "batchgcd/task_set.hpp"
#include "cluster/protocol.hpp"
#include "obs/proc_stats.hpp"
#include "obs/prof_stack.hpp"
#include "obs/profiler.hpp"
#include "util/atomic_file.hpp"
#include "util/binary_io.hpp"
#include "util/net.hpp"

namespace weakkeys::cluster {

#if defined(WEAKKEYS_HAVE_NET)

namespace {

using bn::BigInt;
using Clock = std::chrono::steady_clock;

/// Stream id for the worker -> coordinator direction of worker `w`'s
/// connection (the coordinator uses 2*w for its own direction).
std::uint64_t tx_stream(std::uint32_t worker_id) {
  return 2ull * worker_id + 1;
}

/// rx_loop() outcome that is not a process exit code: the transport died
/// but the session may still be resumable.
constexpr int kLinkLost = -1;

/// First redial backoff after a lost link; doubles per failed attempt,
/// capped at kMaxRedialBackoff.
constexpr std::chrono::milliseconds kRedialBackoff{20};
constexpr std::chrono::milliseconds kMaxRedialBackoff{1000};

/// One TCP connection: fd + framed endpoint. Sessions outlive links — the
/// worker swaps in a fresh Link per reconnect while the compute thread may
/// still hold a shared_ptr to the dead one (its sends fail harmlessly; the
/// outbox replay owns delivery).
struct Link {
  util::net::UniqueFd fd;
  FrameConn conn;
  Link(int raw_fd, std::uint64_t stream, const util::FaultInjector* injector,
       std::uint64_t tx_seq_start, std::uint64_t conn_seq_start)
      : fd(raw_fd),
        conn(raw_fd, stream, injector, tx_seq_start, conn_seq_start) {}
};

class Worker {
 public:
  explicit Worker(const WorkerConfig& config)
      : config_(config),
        injector_(config.faults),
        telemetry_enabled_(config.telemetry_interval.count() > 0),
        trace_epoch_ns_(steady_now_ns()) {}

  int run() {
    util::net::ignore_sigpipe();
    int code = kWorkerExitProtocol;
    std::thread compute;
    // Lets the compute thread finish the task in hand, then joins it.
    const auto stop_compute = [this, &compute] {
      if (!compute.joinable()) return;
      {
        std::lock_guard guard(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      compute.join();
    };
    auto backoff = kRedialBackoff;
    Clock::time_point give_up_at;  // redial deadline, set on link loss

    for (;;) {
      const bool resuming = session_id_ != 0;
      std::shared_ptr<Link> link = dial();
      if (!link) {
        if (!resuming) {
          log("worker " + std::to_string(config_.worker_id) +
              ": cannot connect to coordinator");
          code = kWorkerExitConnect;
          break;
        }
        if (Clock::now() >= give_up_at) {
          log("worker " + std::to_string(config_.worker_id) +
              ": reconnect window exhausted");
          code = kWorkerExitConnect;
          break;
        }
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, kMaxRedialBackoff);
        continue;
      }

      const Handshake hs = resuming ? reconnect_handshake(link.get())
                                    : hello_handshake(link.get());
      if (hs == Handshake::kFatal) {
        code = kWorkerExitProtocol;
        break;
      }
      if (hs == Handshake::kRetry) {
        if (!resuming || Clock::now() >= give_up_at) {
          code = resuming ? kWorkerExitConnect : kWorkerExitProtocol;
          break;
        }
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, kMaxRedialBackoff);
        continue;
      }

      install_link(link);
      if (resuming) replay_outbox(link.get());
      if (!compute.joinable()) {
        compute = std::thread([this] { compute_loop(); });
      }

      code = rx_loop(link.get());
      if (code == kWorkerExitOk) {
        // Final telemetry flush before the link closes, once the compute
        // thread has recorded its last span (the task.send of the result
        // that may have just completed the run): the coordinator drains
        // until EOF, so the last tasks' spans and the final counter values
        // make it into the fleet view. Best-effort — a dead link at this
        // point just loses the tail.
        stop_compute();
        maybe_send_telemetry(link.get(), /*force=*/true);
      }
      drop_link(link.get());
      if (code != kLinkLost) break;
      // The coordinator holds the session for its grace window; redial for
      // as long, then give up.
      log("worker " + std::to_string(config_.worker_id) +
          ": connection lost; attempting session resume");
      give_up_at = Clock::now() + grace_;
      backoff = kRedialBackoff;
    }

    stop_compute();
    return code;
  }

 private:
  enum class Handshake : std::uint8_t { kOk, kRetry, kFatal };

  void log(const std::string& message) const {
    if (config_.log) config_.log(message);
  }

  std::shared_ptr<Link> dial() {
    const int raw = util::net::connect_tcp(
        config_.coordinator_address, config_.port, config_.connect_timeout);
    if (raw < 0) return nullptr;
    // The transport-layer backstop for links whose peer vanished without
    // a FIN.
    util::net::enable_keepalive(raw);
    const util::FaultInjector* injector =
        (config_.faults.any_frame_faults() || config_.faults.any_conn_faults())
            ? &injector_
            : nullptr;
    return std::make_shared<Link>(raw, tx_stream(config_.worker_id), injector,
                                  tx_seq_base_, conn_seq_base_);
  }

  void install_link(const std::shared_ptr<Link>& link) {
    std::lock_guard guard(mu_);
    link_ = link;
  }

  /// Retires a dead link: detaches it from the compute thread and banks the
  /// injector counters so the next connection continues the fault schedule
  /// instead of replaying it.
  void drop_link(Link* link) {
    std::lock_guard guard(mu_);
    tx_seq_base_ = link->conn.tx_seq();
    conn_seq_base_ = link->conn.conn_seq();
    if (link_.get() == link) link_.reset();
  }

  Handshake hello_handshake(Link* link) {
    HelloMsg hello;
    hello.worker_id = config_.worker_id;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    if (!link->conn.send(MsgType::kHello, hello.encode()))
      return Handshake::kFatal;
    const auto deadline = Clock::now() + config_.connect_timeout;
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return Handshake::kFatal;
      Frame frame;
      switch (link->conn.recv(&frame, left)) {
        case RecvStatus::kOk: {
          if (frame.type != MsgType::kHelloAck) return Handshake::kFatal;
          const auto ack = HelloAckMsg::decode(frame.body);
          if (!ack) return Handshake::kFatal;
          session_id_ = ack->session_id;
          grace_ = std::chrono::milliseconds(ack->grace_ms);
          return Handshake::kOk;
        }
        case RecvStatus::kCorrupt:
          continue;  // control frames are sent clean; be tolerant anyway
        case RecvStatus::kTimeout:
        case RecvStatus::kClosed:
          return Handshake::kFatal;
      }
    }
  }

  Handshake reconnect_handshake(Link* link) {
    ReconnectHelloMsg hello;
    hello.worker_id = config_.worker_id;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hello.session_id = session_id_;
    {
      std::lock_guard guard(mu_);
      hello.last_committed_seq = acked_result_seq_;
    }
    if (!link->conn.send(MsgType::kReconnectHello, hello.encode()))
      return Handshake::kRetry;
    const auto deadline = Clock::now() + config_.connect_timeout;
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return Handshake::kRetry;
      Frame frame;
      switch (link->conn.recv(&frame, left)) {
        case RecvStatus::kOk: {
          if (frame.type != MsgType::kReconnectAck) return Handshake::kRetry;
          const auto ack = ReconnectAckMsg::decode(frame.body);
          if (!ack) return Handshake::kRetry;
          if (ack->accepted == 0) {
            // Session expired coordinator-side: a fresh incarnation has
            // been (or will be) spawned in our place. Nothing to resume.
            log("worker " + std::to_string(config_.worker_id) +
                ": session rejected by coordinator");
            return Handshake::kFatal;
          }
          prune_outbox(ack->ack_result_seq);
          return Handshake::kOk;
        }
        case RecvStatus::kCorrupt:
          continue;
        case RecvStatus::kTimeout:
        case RecvStatus::kClosed:
          return Handshake::kRetry;
      }
    }
  }

  void prune_outbox(std::uint64_t ack_seq) {
    std::lock_guard guard(mu_);
    acked_result_seq_ = std::max(acked_result_seq_, ack_seq);
    while (!outbox_.empty() && outbox_.front().result_seq <= acked_result_seq_)
      outbox_.pop_front();
  }

  void prune_telemetry(std::uint64_t ack_seq) {
    std::lock_guard guard(mu_);
    acked_telemetry_seq_ = std::max(acked_telemetry_seq_, ack_seq);
    while (!telemetry_outbox_.empty() &&
           telemetry_outbox_.front().seq <= acked_telemetry_seq_) {
      telemetry_outbox_.pop_front();
    }
  }

  /// Resends every result the coordinator has not acknowledged. Replays are
  /// injectable like first sends: a replayed frame can be dropped again,
  /// and either a later Ping ack or the next reconnect settles it.
  /// Unacked telemetry snapshots replay too (clean, like all telemetry
  /// sends) — that is what makes export loss-tolerant across link flaps.
  void replay_outbox(Link* link) {
    std::vector<TaskResultMsg> replay;
    std::vector<TelemetrySnapshotMsg> telemetry_replay;
    {
      std::lock_guard guard(mu_);
      replay.assign(outbox_.begin(), outbox_.end());
      telemetry_replay.assign(telemetry_outbox_.begin(),
                              telemetry_outbox_.end());
    }
    for (const auto& result : replay) {
      if (!link->conn.send(MsgType::kTaskResult, result.encode(),
                           /*injectable=*/true)) {
        return;  // link already dead again; rx_loop will notice
      }
    }
    for (const auto& snap : telemetry_replay) {
      if (!link->conn.send(MsgType::kTelemetrySnapshot, snap.encode())) return;
    }
  }

  // -- telemetry export (RX thread only) ----------------------------------

  /// Packages pending spans + current counters + proc stats into a
  /// sequenced TelemetrySnapshot, outboxes it, and sends it on `link`.
  /// Throttled to telemetry_interval unless `force` (the Shutdown flush).
  /// Returns false only on a hard send failure (link dead).
  bool maybe_send_telemetry(Link* link, bool force) {
    if (!telemetry_enabled_) return true;
    const std::int64_t now = steady_now_ns();
    if (!force && last_telemetry_ns_ != 0 &&
        now - last_telemetry_ns_ <
            config_.telemetry_interval.count() * 1000000) {
      return true;
    }
    last_telemetry_ns_ = now;
    TelemetrySnapshotMsg snap;
    snap.worker_id = config_.worker_id;
    snap.trace_epoch_ns = trace_epoch_ns_;
    {
      std::lock_guard guard(mu_);
      snap.seq = ++next_telemetry_seq_;
      snap.first_span_index = span_base_;
      snap.spans = std::move(pending_spans_);
      pending_spans_.clear();
      span_base_ += snap.spans.size();
      snap.gauges.emplace_back(
          "queue_depth", static_cast<std::int64_t>(queue_.size()));
    }
    snap.counters = {
        {"tasks_executed", tasks_done_.load(std::memory_order_relaxed)},
        {"claims_found", claims_found_.load(std::memory_order_relaxed)},
        {"compute_us", compute_us_.load(std::memory_order_relaxed)},
    };
    const obs::ProcSelfStats proc = obs::sample_proc_self();
    if (proc.rss_available) {
      snap.rss_kb = proc.rss_kb;
      snap.peak_rss_kb = proc.peak_rss_kb;
    }
    if (proc.cpu_available) {
      snap.cpu_user_us = static_cast<std::int64_t>(proc.cpu_user_us);
      snap.cpu_sys_us = static_cast<std::int64_t>(proc.cpu_sys_us);
    }
    {
      std::lock_guard guard(mu_);
      telemetry_outbox_.push_back(snap);
    }
    // Clean (non-injectable) like other control-plane frames: in-window
    // loss recovery would need its own retransmit layer, so loss tolerance
    // lives at the reconnect/replay level instead.
    return link->conn.send(MsgType::kTelemetrySnapshot, snap.encode());
  }

  /// Appends one completed task span (timestamps relative to
  /// trace_epoch_ns_) to the pending buffer the next snapshot drains.
  void record_span(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, const TaskAssignMsg& assign) {
    TelemetrySpan span;
    span.name = name;
    span.ts_us = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, (start_ns - trace_epoch_ns_) / 1000));
    span.dur_us = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, (end_ns - start_ns) / 1000));
    span.args = {
        {"task", assign.task},
        {"attempt", assign.attempt},
        {"trace_id", static_cast<std::int64_t>(assign.trace_id)},
        {"parent_span", static_cast<std::int64_t>(assign.parent_span)},
    };
    std::lock_guard guard(mu_);
    pending_spans_.push_back(std::move(span));
  }

  /// The RX loop: answers pings inline (so liveness reflects the process,
  /// not the compute queue), reassembles data streams, queues task
  /// assignments. Returns kWorkerExitOk on Shutdown, kLinkLost when the
  /// transport died (EOF, send failure, or a link silent past the grace).
  int rx_loop(Link* link) {
    auto last_rx = Clock::now();
    for (;;) {
      // Half-open detection: a link that has gone silent for the grace
      // window is dead even though the socket never errored — the classic
      // half-open TCP state after a partition or peer freeze.
      if (Clock::now() - last_rx > grace_) {
        log("worker " + std::to_string(config_.worker_id) +
            ": no frame within the grace window; link presumed half-open");
        return kLinkLost;
      }
      Frame frame;
      switch (link->conn.recv(&frame, std::chrono::milliseconds(200))) {
        case RecvStatus::kTimeout:
          continue;
        case RecvStatus::kCorrupt:
          // Corrupt = an injected garble consumed whole; the task layer
          // (coordinator-side timeout) owns recovery. Bytes arriving still
          // prove the link is alive.
          last_rx = Clock::now();
          continue;
        case RecvStatus::kClosed:
          return kLinkLost;
        case RecvStatus::kOk:
          last_rx = Clock::now();
          break;
      }
      switch (frame.type) {
        case MsgType::kPing: {
          if (const auto ping = PingMsg::decode(frame.body)) {
            prune_outbox(ping->ack_result_seq);
            prune_telemetry(ping->ack_telemetry_seq);
            PongMsg pong;
            pong.seq = ping->seq;
            pong.t_send_ns = ping->t_send_ns;
            pong.tasks_done = tasks_done_.load(std::memory_order_relaxed);
            const FrameStats link_stats = link->conn.stats();
            pong.frames_sent = link_stats.sent;
            pong.frames_dropped = link_stats.dropped;
            // The clock sample must be taken as close to the send as
            // possible: it is one endpoint of the coordinator's midpoint
            // offset estimate.
            pong.worker_now_ns = steady_now_ns();
            if (!link->conn.send(MsgType::kPong, pong.encode()))
              return kLinkLost;
            // Telemetry rides the Pong path: the coordinator's heartbeat
            // cadence is the export clock, throttled to telemetry_interval.
            if (!maybe_send_telemetry(link, /*force=*/false))
              return kLinkLost;
          }
          break;
        }
        case MsgType::kStreamBegin: {
          if (const auto msg = StreamBeginMsg::decode(frame.body)) {
            if (!on_stream_begin(link, *msg)) return kLinkLost;
          }
          break;
        }
        case MsgType::kStreamChunk: {
          if (auto msg = StreamChunkMsg::decode(frame.body)) {
            if (!on_stream_chunk(link, *msg)) return kLinkLost;
          }
          break;
        }
        case MsgType::kTaskAssign: {
          if (const auto msg = TaskAssignMsg::decode(frame.body)) {
            {
              std::lock_guard guard(mu_);
              queue_.push_back(PendingTask{*msg, steady_now_ns()});
            }
            cv_.notify_one();
          }
          break;
        }
        case MsgType::kShutdown:
          return kWorkerExitOk;  // run() flushes telemetry, then exits
        default:
          break;  // unknown/unexpected types are ignored, not fatal
      }
    }
  }

  // -- stream reassembly (RX thread only) ---------------------------------

  struct RxStream {
    std::uint64_t total = 0;
    std::uint32_t crc = 0;
    std::vector<std::uint8_t> buf;
    std::uint64_t prefix = 0;  ///< contiguous bytes held
  };

  bool send_stream_ack(Link* link, std::uint32_t stream_id,
                       std::uint64_t received) {
    StreamAckMsg ack;
    ack.stream_id = stream_id;
    ack.received = received;
    return link->conn.send(MsgType::kStreamAck, ack.encode());
  }

  bool on_stream_begin(Link* link, const StreamBeginMsg& msg) {
    if (msg.total_bytes == 0 || msg.total_bytes > kMaxFrameBytes) return true;
    auto it = rx_streams_.find(msg.stream_id);
    if (it == rx_streams_.end() || it->second.total != msg.total_bytes ||
        it->second.crc != msg.payload_crc) {
      // Fresh transfer (or the sender restarted it with different content).
      RxStream stream;
      stream.total = msg.total_bytes;
      stream.crc = msg.payload_crc;
      stream.buf.resize(msg.total_bytes);
      rx_streams_[msg.stream_id] = std::move(stream);
      it = rx_streams_.find(msg.stream_id);
    }
    // A duplicate Begin after reconnect keeps the existing prefix — acking
    // it tells the sender where to resume mid-stream.
    return send_stream_ack(link, msg.stream_id, it->second.prefix);
  }

  bool on_stream_chunk(Link* link, const StreamChunkMsg& msg) {
    const auto it = rx_streams_.find(msg.stream_id);
    if (it == rx_streams_.end()) return true;  // stale/unknown transfer
    RxStream& stream = it->second;
    // Go-back-N: only the chunk extending the contiguous prefix advances
    // it; duplicates and holes are discarded and the ack re-states the
    // prefix so the sender rewinds.
    if (msg.offset == stream.prefix && !msg.data.empty() &&
        msg.offset + msg.data.size() <= stream.total) {
      std::memcpy(stream.buf.data() + msg.offset, msg.data.data(),
                  msg.data.size());
      stream.prefix += msg.data.size();
    }
    const std::uint32_t id = msg.stream_id;
    const std::uint64_t prefix = stream.prefix;
    if (prefix == stream.total) {
      if (util::crc32(stream.buf) == stream.crc) deliver_stream(stream);
      rx_streams_.erase(it);
    }
    return send_stream_ack(link, id, prefix);
  }

  void deliver_stream(const RxStream& stream) {
    if (auto msg = SubsetDataMsg::decode(stream.buf)) {
      auto moduli = std::make_shared<const std::vector<BigInt>>(
          std::move(msg->moduli));
      // A subset sent again (its last ack was lost) is the one held.
      std::lock_guard guard(mu_);
      subsets_.try_emplace(msg->subset, HeldSubset{std::move(moduli), nullptr});
    }
  }

  // -- compute ------------------------------------------------------------

  /// A queued assignment plus its RX-thread arrival time: the gap between
  /// the two ends of the pair is the task.recv (queue-wait) span.
  struct PendingTask {
    TaskAssignMsg assign;
    std::int64_t recv_ns = 0;
  };

  void compute_loop() {
    for (;;) {
      PendingTask task;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        // Stopping means no link will carry another result: queued tasks
        // are dropped, not computed.
        if (stop_) return;
        task = queue_.front();
        queue_.pop_front();
      }
      execute(task.assign, task.recv_ns);
    }
  }

  /// A subset this worker holds and its product tree (null until built).
  struct HeldSubset {
    std::shared_ptr<const std::vector<BigInt>> moduli;
    std::shared_ptr<const batchgcd::ProductTree> tree;
  };

  /// Subset `subset` with its product tree, building and caching the tree
  /// on first use; nullopt when the subset has not arrived. Compute thread
  /// only, so no two builds race.
  std::optional<HeldSubset> held_subset(std::uint32_t subset) {
    HeldSubset held;
    {
      std::lock_guard guard(mu_);
      const auto it = subsets_.find(subset);
      if (it == subsets_.end()) return std::nullopt;
      held = it->second;
    }
    if (held.tree) return held;
    if (!config_.spill_dir.empty()) {
      // Out-of-core build: the spill policy bounds this worker's tree
      // memory; the per-worker file base keeps a shared spill dir safe.
      batchgcd::TreeStorage storage;
      storage.spill_dir = config_.spill_dir;
      storage.spill_threshold_bytes =
          static_cast<std::uint64_t>(config_.spill_threshold_mb) * 1024 * 1024;
      storage.base = "worker" + std::to_string(config_.worker_id) + ".s" +
                     std::to_string(subset);
      storage.fault_stream = subset;
      held.tree =
          std::make_shared<const batchgcd::ProductTree>(*held.moduli, storage);
    } else {
      held.tree = std::make_shared<const batchgcd::ProductTree>(*held.moduli);
    }
    std::lock_guard guard(mu_);
    subsets_.at(subset).tree = held.tree;
    return held;
  }

  void execute(const TaskAssignMsg& assign, std::int64_t recv_ns) {
    // Root frame for the compute thread: everything below (tree build,
    // remainder walk, bn kernels) nests under it in this worker's profile.
    obs::prof::Frame prof_frame("cluster.task");
    // Clock reads only when telemetry is on; spans additionally only when
    // the coordinator asked for them (trace_id 0 = fleet trace off).
    const bool traced = telemetry_enabled_ && assign.trace_id != 0;
    const std::int64_t t_dequeue = telemetry_enabled_ ? steady_now_ns() : 0;
    if (traced) record_span("task.recv", recv_ns, t_dequeue, assign);
    // Row a needs every subset: its own tree, and every other P_b as the
    // root of this worker's tree over subset b.
    const std::uint32_t k = assign.subsets;
    std::vector<HeldSubset> held;
    for (std::uint32_t b = 0; b < k && assign.task < k; ++b) {
      std::optional<HeldSubset> subset = held_subset(b);
      if (!subset) break;
      held.push_back(std::move(*subset));
    }
    if (assign.task >= k || held.size() != k) {
      // A dropped/garbled cache fill upstream of this assignment; nothing
      // to compute. The coordinator's task timeout requeues it.
      log("worker " + std::to_string(config_.worker_id) + ": row " +
          std::to_string(assign.task) + " references missing subset data");
      return;
    }
    const HeldSubset& row = held[assign.task];
    const std::vector<BigInt>& moduli = *row.moduli;

    const util::FaultDecision decision =
        config_.faults.any_faults()
            ? injector_.decide(assign.task, assign.attempt)
            : util::FaultDecision{};
    if (decision.kind == util::FaultKind::kCrash) {
      // A real mid-task crash: the coordinator sees socket EOF, requeues
      // the task, and respawns this slot.
      ::_exit(42);
    }
    if (decision.kind == util::FaultKind::kStraggle) {
      // Sleep past the coordinator's task deadline, then send the (by now
      // reassigned) result anyway — late results must be safe to receive.
      std::this_thread::sleep_for(config_.straggle_sleep);
    }

    std::vector<const BigInt*> others;
    for (std::uint32_t b = 0; b < k; ++b) {
      if (b != assign.task) others.push_back(&held[b].tree->root());
    }
    const std::vector<BigInt> u =
        batchgcd::remainder_row_residues(*row.tree, others);
    const std::int64_t t_computed = telemetry_enabled_ ? steady_now_ns() : 0;
    if (traced) record_span("task.compute", t_dequeue, t_computed, assign);
    TaskResultMsg result;
    result.task = assign.task;
    result.worker_id = config_.worker_id;
    result.claims = batchgcd::leaf_claims(moduli, u);
    // This span times leaf_claims (the per-leaf gcds), not a second check:
    // TaskSet::verify on the coordinator is the only verification. The
    // name stays because perfbench's cluster.worker_verify_s reads it.
    const std::int64_t t_verified = telemetry_enabled_ ? steady_now_ns() : 0;
    if (traced) record_span("task.verify", t_computed, t_verified, assign);
    if (telemetry_enabled_ && t_verified >= t_dequeue) {
      compute_us_.fetch_add(
          static_cast<std::uint64_t>((t_verified - t_dequeue) / 1000),
          std::memory_order_relaxed);
    }
    claims_found_.fetch_add(result.claims.size(), std::memory_order_relaxed);
    if (decision.kind == util::FaultKind::kCorruptResult && !moduli.empty()) {
      // A guaranteed-rejectable corruption: n-1 never divides n for n > 2,
      // so the coordinator's verification must catch it.
      const std::size_t slot = decision.corrupt_slot % moduli.size();
      const BigInt& n = moduli[slot];
      if (n > BigInt(2)) {
        const BigInt bogus = n - BigInt(1);
        const auto it = std::find_if(
            result.claims.begin(), result.claims.end(),
            [slot](const batchgcd::TaskClaim& c) { return c.leaf == slot; });
        if (it != result.claims.end()) {
          it->divisor = bogus;
        } else {
          result.claims.push_back({static_cast<std::uint32_t>(slot), bogus});
        }
      }
    }
    tasks_done_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t t_send = traced ? steady_now_ns() : 0;
    post_result(std::move(result));
    if (traced) record_span("task.send", t_send, steady_now_ns(), assign);
  }

  /// Sequences a finished result into the outbox, then attempts delivery on
  /// whatever link is current. A failed or muted send is not an error: the
  /// result stays outboxed until a Ping ack prunes it, and every reconnect
  /// replays the unacked tail. Injectable: a dropped or garbled result is
  /// exactly the loss the coordinator's timeout/retry machinery absorbs.
  void post_result(TaskResultMsg result) {
    std::shared_ptr<Link> link;
    {
      std::lock_guard guard(mu_);
      result.result_seq = ++next_result_seq_;
      outbox_.push_back(result);
      link = link_;
    }
    if (link) {
      link->conn.send(MsgType::kTaskResult, result.encode(),
                      /*injectable=*/true);
    }
  }

  WorkerConfig config_;
  util::FaultInjector injector_;
  const bool telemetry_enabled_;      ///< telemetry_interval > 0
  const std::int64_t trace_epoch_ns_; ///< span-timestamp epoch, this clock

  std::mutex mu_;  ///< guards queue_, caches, stop_, link_, outboxes, spans
  std::condition_variable cv_;
  std::deque<PendingTask> queue_;
  bool stop_ = false;
  std::shared_ptr<Link> link_;
  std::map<std::uint32_t, HeldSubset> subsets_;
  std::atomic<std::uint32_t> tasks_done_{0};
  std::atomic<std::uint64_t> claims_found_{0};
  std::atomic<std::uint64_t> compute_us_{0};

  // Session state (main/RX thread unless noted).
  std::uint64_t session_id_ = 0;
  /// The coordinator's session grace from HelloAck: both how long a link
  /// may stay silent and how long a lost one is redialed.
  std::chrono::milliseconds grace_{0};
  std::uint64_t tx_seq_base_ = 0;    ///< injector counters carried across
  std::uint64_t conn_seq_base_ = 0;  ///< reconnects (see FrameConn ctor)
  std::deque<TaskResultMsg> outbox_;     ///< unacked results (mu_)
  std::uint64_t next_result_seq_ = 0;    ///< last assigned seq (mu_)
  std::uint64_t acked_result_seq_ = 0;   ///< coordinator high-water (mu_)
  std::map<std::uint32_t, RxStream> rx_streams_;  ///< RX thread only

  // Telemetry export state. Spans accumulate under mu_ (compute thread
  // writes, RX thread drains); the outbox/seq bookkeeping is RX-thread
  // owned but kept under mu_ for uniformity.
  std::vector<TelemetrySpan> pending_spans_;        ///< not yet snapshotted
  std::uint64_t span_base_ = 0;  ///< global index of pending_spans_[0]
  std::deque<TelemetrySnapshotMsg> telemetry_outbox_;  ///< unacked exports
  std::uint64_t next_telemetry_seq_ = 0;
  std::uint64_t acked_telemetry_seq_ = 0;
  std::int64_t last_telemetry_ns_ = 0;  ///< RX thread only (throttle)
};

}  // namespace

int run_worker(const WorkerConfig& config) {
  // The profiler writes this worker's collapsed stacks at exit. It
  // defaults off and costs one relaxed load per frame when off.
  std::unique_ptr<obs::Profiler> profiler;
  if (config.profile_hz > 0) {
    obs::ProfilerConfig pc;
    pc.hz = config.profile_hz;
    pc.out_path = config.profile_out;
    pc.writer = [](const std::string& path, const std::string& content) {
      try {
        util::atomic_write_file(path, content);
        return true;
      } catch (const std::exception&) {
        return false;
      }
    };
    profiler = std::make_unique<obs::Profiler>(std::move(pc));
    profiler->start();
  }
  const int code = Worker(config).run();
  if (profiler) profiler->stop();
  return code;
}

#else  // !WEAKKEYS_HAVE_NET

int run_worker(const WorkerConfig&) { return kWorkerExitConnect; }

#endif

}  // namespace weakkeys::cluster
