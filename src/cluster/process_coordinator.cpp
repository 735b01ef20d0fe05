#include "cluster/process_coordinator.hpp"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "batchgcd/task_set.hpp"
#include "cluster/protocol.hpp"
#include "obs/fleet.hpp"
#include "util/binary_io.hpp"
#include "util/net.hpp"

namespace weakkeys::cluster {

#if defined(WEAKKEYS_HAVE_NET)

namespace {

using batchgcd::TaskClaim;
using bn::BigInt;
using Clock = std::chrono::steady_clock;
using util::net::UniqueFd;

constexpr std::uint32_t kNoWorker = static_cast<std::uint32_t>(-1);

/// An accepted connection must identify itself within this long.
constexpr std::chrono::milliseconds kHandshakeTimeout{250};
/// A stream transfer with no ack progress for this long rewinds to the
/// acked prefix and resends (go-back-N) — recovery for dropped chunks/acks.
constexpr std::chrono::milliseconds kStreamRetransmit{250};
/// How often an exited child is looked for: on a parked local slot (a
/// dead process is buried at once instead of waiting out the grace
/// window) and in the teardown reap.
constexpr std::chrono::milliseconds kExitRecheck{10};
/// Upper bounds on teardown, for wedged (e.g. SIGSTOPped) workers only:
/// a healthy worker ends the drain with its exit (after redialing, if its
/// link was down when the run ended) and the reap finds it gone.
constexpr std::chrono::milliseconds kDrainBound{500};
constexpr std::chrono::milliseconds kReapBound{500};

/// Self-pipe that wakes the event loop from another thread: the
/// cancellation callback writes a byte, the loop polls the read end. Held
/// by shared_ptr so a callback already running when the coordinator
/// unregisters it still writes into an open pipe.
struct WakePipe {
  UniqueFd read_end;
  UniqueFd write_end;

  WakePipe() {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC | O_NONBLOCK) != 0) return;
    read_end.reset(fds[0]);
    write_end.reset(fds[1]);
  }
};

enum class SlotState : std::uint8_t {
  kSpawning,      ///< process forked (or dial-in awaited), waiting for Hello
  kLive,          ///< handshake done, serving tasks
  kDisconnected,  ///< link lost but session held; awaiting ReconnectHello
  kLost,          ///< death observed, awaiting burial by tick_lost()
  kRetired,       ///< given up (restart budget exhausted or shutting down)
};

struct Pending {
  std::size_t task = 0;
  std::size_t attempt = 0;  ///< 0-based attempt about to run
  Clock::time_point ready_at;
  std::uint32_t banned_worker = kNoWorker;
};

/// One in-progress chunked subset transfer to a worker (go-back-N sender
/// side; the head of Slot::transfers is the active one).
struct Transfer {
  std::uint32_t stream_id = 0;
  std::uint32_t subset = 0;
  std::shared_ptr<const std::vector<std::uint8_t>> payload;
  std::uint32_t crc = 0;       ///< crc32 of the whole payload
  std::uint64_t acked = 0;     ///< receiver's contiguous prefix
  std::uint64_t sent_off = 0;  ///< next byte to send
  bool begin_sent = false;
  Clock::time_point last_progress;
};

struct Slot {
  std::uint32_t id = 0;
  bool is_remote = false;  ///< dial-in worker: never forked, killed or reaped
  SlotState state = SlotState::kRetired;
  pid_t pid = -1;
  UniqueFd fd;
  std::unique_ptr<FrameConn> conn;
  Clock::time_point spawn_at;
  Clock::time_point last_pong;
  Clock::time_point last_ping;
  std::uint64_t ping_seq = 0;
  bool busy = false;
  Pending current;  ///< valid when busy
  std::uint64_t assign_span = 0;  ///< open fleet assign span (valid when busy)
  Clock::time_point assigned_at;
  std::size_t strikes = 0;  ///< verification failures this incarnation
  // -- session state: survives disconnects, reset per incarnation ----------
  std::uint64_t session_id = 0;      ///< 0 = no session established yet
  std::uint64_t rx_result_seq = 0;   ///< dedup high-water for result replays
  std::uint64_t rx_telemetry_seq = 0;  ///< dedup high-water for telemetry
  Clock::time_point disconnected_at;
  std::deque<Transfer> transfers;
  std::vector<bool> delivered_subsets;  ///< fully acked by the worker
  std::uint64_t tx_seq_base = 0;    ///< injector counters carried across
  std::uint64_t conn_seq_base = 0;  ///< reconnects (see FrameConn ctor)
  std::uint64_t worker_frames_dropped = 0;  ///< worker-reported, via Pong
};

/// An accepted connection that has not identified itself yet: its first
/// frame must be a Hello or ReconnectHello, before `deadline`.
struct Handshake {
  UniqueFd fd;
  std::unique_ptr<FrameConn> conn;
  Clock::time_point deadline;
};

/// The coordinator is one thread running one poll(2) loop. Each turn runs
/// the timer-driven duties (heartbeats, deadlines, retransmits, burials,
/// dispatch), then sleeps in poll() until a socket is readable, the
/// cancellation pipe fires, or the nearest deadline those duties track
/// falls due. Every frame is handled inline on this thread, so no state
/// needs a lock.
class ProcessCoordinator {
 public:
  ProcessCoordinator(std::span<const BigInt> moduli,
                     const ClusterConfig& config)
      : config_(config),
        moduli_(moduli),
        tasks_(moduli, config.subsets),
        fleet_(config.telemetry ? &config.telemetry->metrics() : nullptr,
               /*trace_enabled=*/!config.fleet_trace_path.empty()) {
    if (config_.telemetry) {
      auto& m = config_.telemetry->metrics();
      m_workers_alive_ = &m.gauge("cluster.workers_alive");
      for (const ClusterCounter& c : kClusterCounters) {
        published_.push_back({&m.counter(c.name), c.field});
      }
    }
    k_ = tasks_.k();
    remote_n_ = config.remote_workers;
    workers_n_ = remote_n_ > 0 ? config.workers
                               : std::max<std::size_t>(config.workers, 1);
    chunk_bytes_ = std::clamp<std::size_t>(config.stream_chunk_bytes, 1,
                                           kMaxFrameBytes / 2);
    window_chunks_ = std::max<std::size_t>(config.stream_window_chunks, 1);

    enc_subset_.resize(k_);
    enc_subset_crc_.assign(k_, 0);
  }

  ~ProcessCoordinator() { cleanup(); }

  batchgcd::BatchGcdResult run(ClusterStats* stats) {
    if (moduli_.empty()) {
      if (stats) *stats = stats_;
      return {};
    }
    const std::size_t total = tasks_.size();
    stats_.subsets = k_;
    stats_.tasks = total;
    stats_.workers = workers_n_ + remote_n_;

    fingerprint_ = tasks_.fingerprint();
    if (!config_.checkpoint_path.empty()) {
      stats_.tasks_resumed = tasks_.open_journal(config_.checkpoint_path);
    }

    for (std::size_t t = 0; t < total; ++t) {
      if (!tasks_.done(t)) pending_.push_back({t, 0, Clock::now(), kNoWorker});
    }
    if (stats_.tasks_resumed > 0) {
      log("checkpoint: resumed " + std::to_string(stats_.tasks_resumed) + "/" +
          std::to_string(total) + " tasks from " + config_.checkpoint_path);
    }

    if (config_.cancel && config_.cancel->cancelled()) cancelled_ = true;
    if (!pending_.empty() && !cancelled_) supervise();

    cleanup();
    if (stats) *stats = stats_;
    if (fatal_) std::rethrow_exception(fatal_);
    // On every early exit the journal stays on disk as the resume point.
    if (cancelled_) {
      throw util::Cancelled(config_.cancel ? config_.cancel->reason()
                                           : "cluster");
    }
    if (halted_) {
      throw CoordinatorInterrupted(
          "cluster halted after " + std::to_string(stats_.tasks_executed) +
          " tasks (checkpoint retained)");
    }

    if (config_.remove_checkpoint_on_success) tasks_.remove_journal();
    return tasks_.combine();
  }

 private:
  void log(const std::string& message) const {
    if (config_.log) config_.log(message);
  }

  /// How long a link may stay silent before it is declared lost, and how
  /// long a lost link's session then waits for the worker to dial back.
  [[nodiscard]] std::chrono::milliseconds silence_budget() const {
    return config_.heartbeat_interval *
           static_cast<int>(config_.heartbeat_misses);
  }

  // -- process management --------------------------------------------------

  void start_listener() {
    int bound = 0;
    listen_fd_.reset(util::net::listen_tcp(
        config_.bind_address, config_.port,
        static_cast<int>(std::max<std::size_t>(workers_n_ + remote_n_, 4)),
        &bound));
    if (!listen_fd_.valid()) {
      throw ClusterError("cluster: cannot listen on " + config_.bind_address +
                         ":" + std::to_string(config_.port) + ": " +
                         std::strerror(errno));
    }
    // Non-blocking so accept_pending() stops once the backlog is empty.
    util::net::set_nonblocking(listen_fd_.get(), true);
    bound_port_ = static_cast<std::uint16_t>(bound);
  }

  /// Clears everything a fresh worker incarnation must not inherit.
  void reset_session(Slot& slot) {
    slot.session_id = 0;
    slot.rx_result_seq = 0;
    slot.rx_telemetry_seq = 0;
    slot.transfers.clear();
    slot.delivered_subsets.assign(k_, false);
    slot.tx_seq_base = 0;
    slot.conn_seq_base = 0;
    slot.worker_frames_dropped = 0;
  }

  /// fork/execs one worker into `slot`.
  void spawn(Slot& slot) {
    std::vector<std::string> args;
    args.push_back(config_.worker_binary);
    const auto flag = [&args](const char* name, std::string value) {
      args.push_back(name);
      args.push_back(std::move(value));
    };
    flag("--port", std::to_string(bound_port_));
    flag("--worker-id", std::to_string(slot.id));
    if (config_.telemetry_interval.count() > 0) {
      flag("--telemetry-interval-ms",
           std::to_string(config_.telemetry_interval.count()));
    } else {
      args.push_back("--no-telemetry");
    }
    if (!config_.spill_dir.empty()) {
      flag("--spill-dir", config_.spill_dir);
      flag("--spill-threshold-mb", std::to_string(config_.spill_threshold_mb));
    }
    if (config_.profile_hz > 0) {
      flag("--profile", std::to_string(config_.profile_hz));
      if (!config_.profile_out.empty()) {
        flag("--profile-out",
             config_.profile_out + ".worker" + std::to_string(slot.id));
      }
    }
    if (config_.injector) {
      const util::FaultConfig& f = config_.injector->config();
      flag("--seed", std::to_string(f.seed));
      if (f.any_frame_faults()) {
        flag("--frame-drop", std::to_string(f.frame_drop_probability));
        flag("--frame-garble", std::to_string(f.frame_garble_probability));
        flag("--frame-delay", std::to_string(f.frame_delay_probability));
        flag("--frame-delay-ms", std::to_string(f.frame_delay_ms));
      }
      if (f.any_conn_faults()) {
        flag("--conn-disconnect",
             std::to_string(f.conn_disconnect_probability));
        flag("--conn-partition", std::to_string(f.conn_partition_probability));
        flag("--conn-half-open", std::to_string(f.conn_half_open_probability));
        flag("--conn-drip", std::to_string(f.conn_slow_drip_probability));
        flag("--conn-partition-ms", std::to_string(f.conn_partition_ms));
        flag("--conn-drip-ms", std::to_string(f.conn_drip_delay_ms));
      }
      // Thread-tier faults run worker-side in the cluster: a kCrash is a
      // real _exit mid-task, a kCorruptResult a real bad divisor on the
      // wire, a kStraggle a real deadline miss (slept past task_timeout).
      if (f.crash_probability > 0) {
        flag("--fault-crash", std::to_string(f.crash_probability));
      }
      if (f.straggle_probability > 0) {
        flag("--fault-straggle", std::to_string(f.straggle_probability));
        flag("--straggle-ms",
             std::to_string(config_.task_timeout.count() * 3 / 2));
      }
      if (f.corrupt_probability > 0) {
        flag("--fault-corrupt", std::to_string(f.corrupt_probability));
      }
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      throw ClusterError(std::string("cluster: fork failed: ") +
                         std::strerror(errno));
    }
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      // exec failed: exit without running any parent-process atexit state.
      std::fprintf(stderr, "gcd_worker exec failed: %s: %s\n", argv[0],
                   std::strerror(errno));
      ::_exit(127);
    }
    slot.pid = pid;
    arm(slot);
  }

  /// Readies a dial-in slot for a (new) remote worker: same lifecycle as a
  /// fork, minus the fork. The worker must Hello within spawn_timeout.
  void arm_remote(Slot& slot) {
    slot.pid = -1;
    arm(slot);
  }

  void arm(Slot& slot) {
    slot.state = SlotState::kSpawning;
    slot.spawn_at = Clock::now();
    slot.last_pong = slot.spawn_at;
    slot.last_ping = slot.spawn_at;
    slot.busy = false;
    slot.strikes = 0;
    reset_session(slot);
    ++stats_.workers_spawned;
  }

  // -- handshakes ----------------------------------------------------------

  /// Accepts every queued connection into a pending handshake. Nothing is
  /// read here: the loop polls the new fds like any other.
  void accept_pending() {
    for (;;) {
      UniqueFd fd(util::net::accept_cloexec(listen_fd_.get()));
      if (!fd.valid()) return;
      const timeval send_timeout{5, 0};
      ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                   sizeof(send_timeout));
      Handshake hs;
      hs.conn = std::make_unique<FrameConn>(fd.get(), 0, nullptr);
      hs.fd = std::move(fd);
      hs.deadline = Clock::now() + kHandshakeTimeout;
      handshakes_.push_back(std::move(hs));
    }
  }

  /// Decodes what a pending handshake has received. Returns true once it
  /// is settled — attached, refused or failed — and can be dropped; a
  /// connection that moved into a slot leaves `hs.fd` empty.
  bool advance_handshake(Handshake& hs) {
    Frame frame;
    for (;;) {
      switch (hs.conn->try_recv(&frame)) {
        case RecvStatus::kTimeout:
          return false;
        case RecvStatus::kCorrupt:
          continue;
        case RecvStatus::kClosed:
          return true;
        case RecvStatus::kOk:
          break;
      }
      // Hello is input from outside the program: only this build's
      // protocol version is served; anything else is closed unanswered.
      if (frame.type == MsgType::kHello) {
        const auto hello = HelloMsg::decode(frame.body);
        if (hello && hello->version == kProtocolVersion) {
          attach_fresh(*hello, std::move(hs.fd));
        }
      } else if (frame.type == MsgType::kReconnectHello) {
        const auto msg = ReconnectHelloMsg::decode(frame.body);
        if (msg && msg->version == kProtocolVersion) {
          reattach(*msg, std::move(hs.fd), *hs.conn);
        }
      }
      return true;
    }
  }

  [[nodiscard]] const util::FaultInjector* link_injector() const {
    if (!config_.injector) return nullptr;
    const util::FaultConfig& f = config_.injector->config();
    return f.any_frame_faults() || f.any_conn_faults() ? config_.injector
                                                       : nullptr;
  }

  void attach_fresh(const HelloMsg& hello, UniqueFd fd) {
    // A worker that connects after the run ended has nothing to flush.
    if (cleaned_up_ || hello.worker_id >= slots_.size()) return;
    Slot& slot = slots_[hello.worker_id];
    if (slot.state != SlotState::kSpawning) return;
    if (!slot.is_remote && slot.pid != static_cast<pid_t>(hello.pid)) {
      return;  // stale or impostor connection; UniqueFd closes it
    }
    if (slot.is_remote) slot.pid = static_cast<pid_t>(hello.pid);
    fleet_.on_worker_fresh(slot.id);
    slot.fd = std::move(fd);
    slot.conn = std::make_unique<FrameConn>(slot.fd.get(), 2ull * slot.id,
                                            link_injector());
    slot.session_id = next_session_id_++;
    HelloAckMsg ack;
    ack.fingerprint = fingerprint_;
    ack.session_id = slot.session_id;
    ack.grace_ms = static_cast<std::uint32_t>(silence_budget().count());
    if (!slot.conn->send(MsgType::kHelloAck, ack.encode())) {
      slot.conn.reset();
      slot.fd.reset();
      return;
    }
    slot.state = SlotState::kLive;
    slot.last_pong = Clock::now();
    refresh_alive_gauge();
    log("cluster: worker " + std::to_string(slot.id) + " up (pid " +
        std::to_string(slot.pid) + ", session " +
        std::to_string(slot.session_id) + ")");
    // Ping at once, not a heartbeat later: a short run can end before the
    // first scheduled ping, and the Pong gives the session its RTT sample
    // and clock offset before the worker's first telemetry snapshot.
    send_ping(slot);
  }

  /// A worker dialed back after link loss offering its session. Validate,
  /// retire whatever link is still attached, splice the new one in (injector
  /// counters carried over so the fault schedule continues instead of
  /// replaying), tell the worker our result high-water mark, and resume the
  /// in-flight transfer from its acked prefix.
  void reattach(const ReconnectHelloMsg& msg, UniqueFd fd, FrameConn& probe) {
    const auto reject = [&probe] {
      ReconnectAckMsg nack;
      nack.accepted = 0;
      probe.send(MsgType::kReconnectAck, nack.encode());
    };
    if (msg.worker_id >= slots_.size()) {
      reject();
      return;
    }
    Slot& slot = slots_[msg.worker_id];
    if (slot.session_id == 0 || slot.session_id != msg.session_id ||
        (slot.state != SlotState::kLive &&
         slot.state != SlotState::kDisconnected) ||
        (!slot.is_remote && slot.pid != static_cast<pid_t>(msg.pid))) {
      reject();
      return;
    }
    // The old link is still attached when the worker noticed its loss
    // before we did (half-open).
    detach_link(slot);
    slot.fd = std::move(fd);
    slot.conn = std::make_unique<FrameConn>(slot.fd.get(), 2ull * slot.id,
                                            link_injector(),
                                            slot.tx_seq_base,
                                            slot.conn_seq_base);
    ReconnectAckMsg ack;
    ack.accepted = 1;
    ack.ack_result_seq = slot.rx_result_seq;
    if (!slot.conn->send(MsgType::kReconnectAck, ack.encode())) {
      slot.conn.reset();
      slot.fd.reset();
      slot.state = SlotState::kDisconnected;
      return;  // still within grace; maybe the next dial works
    }
    const auto now = Clock::now();
    slot.state = SlotState::kLive;
    slot.last_pong = now;
    if (!slot.transfers.empty()) {
      Transfer& t = slot.transfers.front();
      if (t.begin_sent && t.sent_off > t.acked) ++stats_.stream_resumes;
      t.sent_off = t.acked;
      t.begin_sent = false;
      t.last_progress = now;
    }
    ++stats_.reconnects;
    refresh_alive_gauge();
    log("cluster: worker " + std::to_string(slot.id) + " reconnected (session " +
        std::to_string(slot.session_id) + ", replaying past seq " +
        std::to_string(slot.rx_result_seq) + ")");
    send_ping(slot);  // as in attach_fresh: an offset before any snapshot
    // A worker that was redialing when the run ended still holds its final
    // telemetry: it replays its outbox, then flushes and exits on Shutdown.
    if (cleaned_up_) {
      slot.conn->send(MsgType::kShutdown, {});
    } else {
      pump_streams(slot);
    }
  }

  /// Declares the slot's link dead. The slot parks in kDisconnected:
  /// session kept, grace clock started, and the link closed so a half-open
  /// peer sees EOF and redials. Whether the worker itself died is
  /// tick_disconnected's call, or during teardown cleanup's, which watches
  /// a local worker's exit. A remote worker's EOF during teardown is taken
  /// as its exit: nothing here can see the process.
  void link_lost(Slot& slot, const char* why) {
    if (slot.state != SlotState::kLive) return;
    if (cleaned_up_ && slot.is_remote) {
      slot.state = SlotState::kLost;
    } else {
      slot.state = SlotState::kDisconnected;
      slot.disconnected_at = Clock::now();
      detach_link(slot);
      if (!cleaned_up_) {
        log("cluster: worker " + std::to_string(slot.id) + " link lost (" +
            std::string(why) + "); holding session " +
            std::to_string(slot.session_id) + " for " +
            std::to_string(silence_budget().count()) + "ms");
      }
    }
    refresh_alive_gauge();
  }

  /// Retires the slot's link without touching the session: banks the
  /// injector counters for the next link, folds transport stats, closes.
  void detach_link(Slot& slot) {
    if (slot.conn) {
      slot.tx_seq_base = slot.conn->tx_seq();
      slot.conn_seq_base = slot.conn->conn_seq();
      fold_link_stats(slot);
    }
    slot.conn.reset();
    slot.fd.reset();
  }

  // -- receive path ----------------------------------------------------------

  /// Handles every whole frame a live link has buffered or can read
  /// without blocking; a partial frame waits in the decoder.
  void drain_link(Slot& slot) {
    Frame frame;
    while (slot.state == SlotState::kLive && slot.conn) {
      switch (slot.conn->try_recv(&frame)) {
        case RecvStatus::kTimeout:
          return;
        case RecvStatus::kCorrupt:
          continue;  // FrameStats::corrupt counts it
        case RecvStatus::kClosed:
          link_lost(slot, "connection closed");
          return;
        case RecvStatus::kOk:
          break;
      }
      switch (frame.type) {
        case MsgType::kPong:
          if (const auto pong = PongMsg::decode(frame.body)) {
            on_pong(slot, *pong);
          }
          break;
        case MsgType::kTaskResult:
          if (auto result = TaskResultMsg::decode(frame.body)) {
            on_result(slot, std::move(*result));
          }
          break;
        case MsgType::kStreamAck:
          if (const auto ack = StreamAckMsg::decode(frame.body)) {
            on_stream_ack(slot, *ack);
          }
          break;
        case MsgType::kTelemetrySnapshot:
          if (auto snap = TelemetrySnapshotMsg::decode(frame.body)) {
            on_telemetry(slot, std::move(*snap));
          }
          break;
        default:
          break;
      }
    }
  }

  void on_pong(Slot& slot, const PongMsg& pong) {
    slot.last_pong = Clock::now();
    slot.worker_frames_dropped = pong.frames_dropped;
    const std::int64_t recv_ns = steady_now_ns();
    // Each Pong echoes the worker's steady clock: one midpoint-method
    // offset observation per heartbeat. Every link is pinged as it
    // attaches, so its first Pong precedes the worker's TelemetrySnapshot
    // and span rebasing never runs without an estimate.
    fleet_.observe_clock(slot.id, pong.t_send_ns, recv_ns, pong.worker_now_ns);
    const std::int64_t rtt_ns = recv_ns - pong.t_send_ns;
    if (rtt_ns >= 0) {
      const auto rtt_us = static_cast<std::uint64_t>(rtt_ns / 1000);
      stats_.max_heartbeat_rtt_us =
          std::max(stats_.max_heartbeat_rtt_us, rtt_us);
    }
  }

  /// One worker telemetry export: dedup outbox replays by sequence, then
  /// hand the snapshot to the fleet aggregator (clock-rebased span merge +
  /// fleet.* metric fan-out).
  void on_telemetry(Slot& slot, TelemetrySnapshotMsg&& snap) {
    if (snap.seq <= slot.rx_telemetry_seq) {
      ++stats_.telemetry_replays;
      return;  // replayed export; everything in it was ingested already
    }
    slot.rx_telemetry_seq = snap.seq;
    snap.worker_id = slot.id;  // the slot, not whatever id the sender claims
    ++stats_.telemetry_snapshots;
    stats_.telemetry_spans += fleet_.ingest(snap);
  }

  /// Handles one TaskResult: drop session replays we already processed,
  /// then re-verify and commit or quarantine. Late results for
  /// reassigned/finished tasks are welcome when valid and fresh (folding is
  /// commutative) and counted as duplicates when the task already committed
  /// — the journal therefore records every task exactly once.
  void on_result(Slot& slot, TaskResultMsg&& result) {
    if (result.result_seq != 0) {
      if (result.result_seq <= slot.rx_result_seq) {
        // Replay of a frame this session already delivered (the worker's
        // outbox is pruned by acks, but an ack can cross a replay in
        // flight). Everything it carried was handled the first time.
        ++stats_.results_replayed;
        return;
      }
      slot.rx_result_seq = result.result_seq;
    }
    const std::size_t task = result.task;
    const bool was_current = slot.busy && slot.current.task == task;
    std::size_t attempt = 0;
    std::uint64_t assign_span = 0;
    if (was_current) {
      attempt = slot.current.attempt;
      slot.busy = false;  // the slot is schedulable again either way
      assign_span = slot.assign_span;
      slot.assign_span = 0;
    }
    const auto close_span = [&](bool committed) {
      fleet_.end_assign(assign_span, steady_now_ns(), committed);
    };
    if (task >= tasks_.size()) {
      close_span(false);
      return;
    }
    if (tasks_.done(task)) {
      close_span(true);  // this attempt's work is done, just redundantly
      ++stats_.duplicate_results;
      return;  // duplicate of an already committed task
    }

    if (tasks_.verify(task, result.claims)) {
      close_span(true);
      // Commit even when this slot was already timed out for the task —
      // the result is verified, and any later duplicate lands in the
      // kDone branch above.
      drop_from_pending(task);
      commit(task, result.claims);
    } else {
      close_span(false);
      // Quarantine: the claims never touch the accumulators or the
      // journal. The sender earns a strike; at the limit it is demoted.
      ++stats_.results_quarantined;
      ++slot.strikes;
      log("cluster: worker " + std::to_string(slot.id) +
          " returned a corrupt result for task " + std::to_string(task) +
          " (strike " + std::to_string(slot.strikes) + ")");
      if (slot.strikes >= config_.quarantine_strikes &&
          slot.state == SlotState::kLive) {
        ++stats_.workers_demoted;
        slot.state = SlotState::kLost;  // tick_lost kills + respawns
      }
      if (was_current) {
        requeue(task, attempt + 1, slot.id);
      }
    }
  }

  // -- chunked subset streaming --------------------------------------------

  [[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>>
  encoded_subset(std::size_t idx, std::uint32_t* crc) {
    if (!enc_subset_[idx]) {
      SubsetDataMsg msg;
      msg.subset = static_cast<std::uint32_t>(idx);
      const auto subset = tasks_.subset(idx);
      msg.moduli.assign(subset.begin(), subset.end());
      std::vector<std::uint8_t> bytes = msg.encode();
      enc_subset_crc_[idx] = util::crc32(bytes);
      enc_subset_[idx] =
          std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
    }
    *crc = enc_subset_crc_[idx];
    return enc_subset_[idx];
  }

  /// Queues a transfer of subset `idx` unless delivered or already queued;
  /// true when it queued one.
  bool ensure_transfer(Slot& slot, std::size_t idx) {
    if (slot.delivered_subsets[idx]) return false;
    for (const Transfer& t : slot.transfers) {
      if (t.subset == idx) return false;
    }
    Transfer t;
    t.stream_id = next_stream_id_++;
    t.subset = static_cast<std::uint32_t>(idx);
    t.payload = encoded_subset(idx, &t.crc);
    t.last_progress = Clock::now();
    slot.transfers.push_back(std::move(t));
    return true;
  }

  /// Drives the slot's head transfer: (re)announce with StreamBegin, then
  /// send chunks up to the backpressure window beyond the acked prefix.
  /// Chunks are injectable — a dropped chunk stalls the prefix and the
  /// retransmit timer rewinds to it (go-back-N).
  void pump_streams(Slot& slot) {
    if (slot.state != SlotState::kLive || !slot.conn ||
        slot.transfers.empty()) {
      return;
    }
    Transfer& t = slot.transfers.front();
    const std::uint64_t total = t.payload->size();
    if (!t.begin_sent) {
      StreamBeginMsg begin;
      begin.stream_id = t.stream_id;
      begin.subset = t.subset;
      begin.total_bytes = total;
      begin.payload_crc = t.crc;
      if (!slot.conn->send(MsgType::kStreamBegin, begin.encode(),
                           /*injectable=*/true)) {
        link_lost(slot, "stream send failed");
        return;
      }
      t.begin_sent = true;
      t.last_progress = Clock::now();
    }
    const std::uint64_t window =
        static_cast<std::uint64_t>(chunk_bytes_) * window_chunks_;
    bool sent_any = false;
    while (t.sent_off < total && t.sent_off - t.acked < window) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(chunk_bytes_, total - t.sent_off));
      StreamChunkMsg chunk;
      chunk.stream_id = t.stream_id;
      chunk.offset = t.sent_off;
      const auto* base = t.payload->data() + t.sent_off;
      chunk.data.assign(base, base + n);
      if (!slot.conn->send(MsgType::kStreamChunk, chunk.encode(),
                           /*injectable=*/true)) {
        link_lost(slot, "stream send failed");
        return;
      }
      t.sent_off += n;
      ++stats_.stream_chunks_sent;
      sent_any = true;
    }
    if (sent_any) t.last_progress = Clock::now();
  }

  void on_stream_ack(Slot& slot, const StreamAckMsg& ack) {
    if (slot.transfers.empty()) return;
    Transfer& t = slot.transfers.front();
    if (t.stream_id != ack.stream_id) return;
    const std::uint64_t total = t.payload->size();
    if (ack.received > total || ack.received <= t.acked) return;
    t.acked = ack.received;
    t.last_progress = Clock::now();
    if (t.acked == total) {
      slot.delivered_subsets[t.subset] = true;
      slot.transfers.pop_front();
    }
    pump_streams(slot);  // window slid, or the next transfer's Begin
  }

  /// Go-back-N retransmit: a head transfer with no ack progress for
  /// kStreamRetransmit rewinds to the acked prefix and resends — recovery
  /// for injected chunk/ack drops without any per-chunk bookkeeping.
  void tick_streams() {
    const auto now = Clock::now();
    for (Slot& slot : slots_) {
      if (slot.state != SlotState::kLive || slot.transfers.empty()) continue;
      Transfer& t = slot.transfers.front();
      if (now - t.last_progress > kStreamRetransmit) {
        if (t.begin_sent && t.sent_off > t.acked) ++stats_.stream_resumes;
        t.sent_off = t.acked;
        t.begin_sent = false;
        t.last_progress = now;
      }
      pump_streams(slot);
    }
  }

  // -- task bookkeeping ----------------------------------------------------

  void commit(std::size_t task, const std::vector<TaskClaim>& claims) {
    tasks_.commit(task, claims);
    ++stats_.tasks_executed;
    if (config_.halt_after_tasks != 0 &&
        stats_.tasks_executed >= config_.halt_after_tasks &&
        !tasks_.complete()) {
      halted_ = true;
    }
  }

  void drop_from_pending(std::size_t task) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->task == task) {
        pending_.erase(it);
        return;
      }
    }
  }

  [[nodiscard]] bool is_queued(std::size_t task) const {
    for (const Pending& p : pending_) {
      if (p.task == task) return true;
    }
    return false;
  }

  /// Requeues `task` for its next attempt, or records the fatal retry
  /// exhaustion. Callers release the task's slot first, so a task is never
  /// both assigned and requeued. No-op when the task is done or already
  /// queued.
  void requeue(std::size_t task, std::size_t next_attempt,
               std::uint32_t banned_worker) {
    if (tasks_.done(task) || is_queued(task)) return;
    if (config_.retry.exhausted(next_attempt)) {
      if (!fatal_) {
        fatal_ = std::make_exception_ptr(ClusterError(
            "cluster: task " + std::to_string(task) + " failed after " +
            std::to_string(next_attempt) + " attempts"));
      }
      return;
    }
    pending_.push_back(
        {task, next_attempt,
         Clock::now() +
             config_.retry.jittered_delay(task, next_attempt - 1),
         slots_.size() > 1 ? banned_worker : kNoWorker});
  }

  // -- event loop ----------------------------------------------------------

  void supervise() {
    start_listener();
    if (config_.on_listen) config_.on_listen(bound_port_);
    if (config_.cancel) {
      wake_ = std::make_shared<WakePipe>();
      cancel_callback_ = config_.cancel->add_callback([wake = wake_] {
        const char byte = 1;
        [[maybe_unused]] const ssize_t n =
            ::write(wake->write_end.get(), &byte, 1);
      });
    }
    slots_.resize(workers_n_ + remote_n_);
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      Slot& slot = slots_[w];
      slot.id = static_cast<std::uint32_t>(w);
      if (w < workers_n_) {
        spawn(slot);
      } else {
        slot.is_remote = true;
        arm_remote(slot);
      }
    }

    for (;;) {
      if (config_.cancel && config_.cancel->cancelled()) cancelled_ = true;
      if (fatal_ || cancelled_ || halted_) return;

      // Losses are buried before the run may end, so a worker that died
      // as the last results came in is still counted and replaced.
      tick_liveness();
      tick_disconnected();
      tick_lost();
      if (fatal_) return;
      if (tasks_.complete()) return;
      tick_timeouts();
      tick_streams();
      tick_assign();
      publish_metrics();

      if (!any_active_slots() && !tasks_.complete()) {
        fatal_ = std::make_exception_ptr(
            ClusterError("cluster: all workers lost (restart budget " +
                         std::to_string(config_.restart_budget) +
                         " exhausted) with " +
                         std::to_string(tasks_.size() - tasks_.committed()) +
                         " tasks pending"));
        return;
      }
      poll_events(next_deadline());
    }
  }

  /// The nearest instant at which a timer-driven duty falls due: a ping, a
  /// heartbeat death, a spawn/task/handshake deadline, a retry becoming
  /// ready, a stream retransmit, a session grace expiry, an exit check on
  /// a starting or parked local worker or a burial. max() when nothing is
  /// armed.
  [[nodiscard]] Clock::time_point next_deadline() const {
    const auto now = Clock::now();
    auto next = Clock::time_point::max();
    const auto at = [&next](Clock::time_point t) { next = std::min(next, t); };
    for (const Slot& slot : slots_) {
      if (slot.state == SlotState::kSpawning) {
        at(slot.spawn_at + config_.spawn_timeout);
        if (!slot.is_remote) at(now + kExitRecheck);
      } else if (slot.state == SlotState::kLive) {
        at(slot.last_ping + config_.heartbeat_interval);
        at(slot.last_pong + silence_budget());
        if (!slot.transfers.empty()) {
          at(slot.transfers.front().last_progress + kStreamRetransmit);
        }
      } else if (slot.state == SlotState::kDisconnected) {
        at(slot.disconnected_at + silence_budget());
        if (!slot.is_remote) at(now + kExitRecheck);
      } else if (slot.state == SlotState::kLost) {
        at(now);  // buried on the next turn
      }
      if (slot.busy && (slot.state == SlotState::kLive ||
                        slot.state == SlotState::kDisconnected)) {
        at(slot.assigned_at + config_.task_timeout);
      }
    }
    // A ready task waits for an event (a result, an ack, a new link), not a
    // timer; only backoffs still running need a wake-up.
    for (const Pending& p : pending_) {
      if (p.ready_at > now) at(p.ready_at);
    }
    for (const Handshake& hs : handshakes_) at(hs.deadline);
    return next;
  }

  /// The one poll(2) call site. Sleeps until a watched fd is ready or
  /// `deadline` passes, then runs each ready fd's handler, in watch order:
  /// live links, pending handshakes, the listener, the wake pipe.
  void poll_events(Clock::time_point deadline) {
    pollfds_.clear();
    handlers_.clear();
    const auto watch = [this](int fd, std::function<void()> handler) {
      pollfds_.push_back(pollfd{fd, POLLIN, 0});
      handlers_.push_back(std::move(handler));
    };
    for (Slot& slot : slots_) {
      if (slot.state == SlotState::kLive && slot.conn) {
        watch(slot.fd.get(), [this, &slot] { drain_link(slot); });
      }
    }
    // A settled handshake drops its conn and leaves the list at the end;
    // the listener, which grows the list, runs after every handshake.
    for (Handshake& hs : handshakes_) {
      watch(hs.fd.get(), [this, &hs] {
        if (advance_handshake(hs)) hs.conn.reset();
      });
    }
    if (listen_fd_.valid()) {
      watch(listen_fd_.get(), [this] { accept_pending(); });
    }
    if (wake_) {
      watch(wake_->read_end.get(), [this] {
        char buf[64];
        while (::read(wake_->read_end.get(), buf, sizeof buf) > 0) {
        }
      });
    }

    int timeout_ms = -1;  // nothing armed: wait for an fd
    if (deadline != Clock::time_point::max()) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - Clock::now());
      timeout_ms =
          static_cast<int>(std::clamp<std::int64_t>(left.count(), 0, INT_MAX));
    }
    // A timeout or EINTR returns to the caller, whose duties run next.
    if (::poll(pollfds_.data(), pollfds_.size(), timeout_ms) > 0) {
      for (std::size_t i = 0; i < pollfds_.size(); ++i) {
        if ((pollfds_[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          handlers_[i]();
        }
      }
    }
    // Settled handshakes leave, and so do peers that did not identify
    // themselves in time.
    const auto now = Clock::now();
    std::erase_if(handshakes_, [now](const Handshake& hs) {
      return !hs.conn || now >= hs.deadline;
    });
  }

  [[nodiscard]] bool any_active_slots() const {
    for (const Slot& slot : slots_) {
      if (slot.state != SlotState::kRetired) return true;
    }
    return false;
  }

  /// Heartbeats: ping live workers on the configured cadence and declare
  /// dead any that have not ponged within the miss budget. SIGSTOPped
  /// workers are caught exactly here — their socket is open but silent. So
  /// are half-open links: the socket looks fine to write, nothing ever
  /// arrives. Pings carry the session's result high-water mark so the
  /// worker can prune its replay outbox.
  void tick_liveness() {
    const auto now = Clock::now();
    const auto dead_after = silence_budget();
    for (Slot& slot : slots_) {
      if (slot.state == SlotState::kSpawning && reaped(slot)) {
        log("cluster: worker " + std::to_string(slot.id) +
            " exited before connecting");
        slot.state = SlotState::kLost;
        continue;
      }
      if (slot.state == SlotState::kSpawning &&
          now - slot.spawn_at > config_.spawn_timeout) {
        log("cluster: worker " + std::to_string(slot.id) +
            " failed to connect within spawn timeout");
        slot.state = SlotState::kLost;
        continue;
      }
      if (slot.state != SlotState::kLive) continue;
      if (now - slot.last_pong > dead_after) {
        ++stats_.heartbeat_deaths;
        link_lost(slot, "missed heartbeats");
        continue;
      }
      if (now - slot.last_ping >= config_.heartbeat_interval) send_ping(slot);
    }
  }

  /// Pings a live slot now and restarts its heartbeat cadence; a failed
  /// send parks the slot.
  void send_ping(Slot& slot) {
    slot.last_ping = Clock::now();
    PingMsg ping;
    ping.seq = slot.ping_seq++;
    ping.t_send_ns = steady_now_ns();
    ping.ack_result_seq = slot.rx_result_seq;
    ping.ack_telemetry_seq = slot.rx_telemetry_seq;
    if (!slot.conn->send(MsgType::kPing, ping.encode())) {
      link_lost(slot, "ping send failed");
    }
  }

  /// Parked slots become ordinary losses in two ways. A local worker whose
  /// process has exited is lost at once: it is reaped here (so tick_lost
  /// does not wait on it again) and no grace is spent on a peer that cannot
  /// dial back. Any other parked session is lost when its grace runs out —
  /// a stopped local worker, or a remote one the coordinator cannot see.
  void tick_disconnected() {
    for (Slot& slot : slots_) {
      if (slot.state != SlotState::kDisconnected) continue;
      if (reaped(slot)) {
        log("cluster: worker " + std::to_string(slot.id) +
            " exited; declaring lost");
        slot.state = SlotState::kLost;
        continue;
      }
      if (Clock::now() - slot.disconnected_at <= silence_budget()) continue;
      log("cluster: worker " + std::to_string(slot.id) + " session " +
          std::to_string(slot.session_id) + " expired after " +
          std::to_string(silence_budget().count()) +
          "ms grace; declaring lost");
      ++stats_.sessions_expired;
      slot.state = SlotState::kLost;
    }
  }

  /// True when the slot's local worker process has exited; it is reaped
  /// here (pid cleared), so tick_lost does not wait on it again. Always
  /// false for a remote slot.
  bool reaped(Slot& slot) {
    if (slot.is_remote || slot.pid <= 0) return false;
    int status = 0;
    if (::waitpid(slot.pid, &status, WNOHANG) == 0) return false;
    slot.pid = -1;
    return true;
  }

  /// No task is assigned until every local worker of the first spawn has
  /// connected or been lost. Otherwise a short job can finish on the
  /// first worker to connect while the others are still starting, and
  /// they take no part in the run or its fleet view. Remote slots are not
  /// waited for, and once assembled, respawns never hold the run back.
  bool fleet_assembled() {
    assembled_ = assembled_ ||
                 std::none_of(slots_.begin(), slots_.end(), [](const Slot& s) {
                   return !s.is_remote && s.state == SlotState::kSpawning;
                 });
    return assembled_;
  }

  /// Buries lost workers: requeue their in-flight task, reap the process,
  /// and respawn within the restart budget (else retire the slot).
  void tick_lost() {
    for (Slot& slot : slots_) {
      if (slot.state != SlotState::kLost) continue;
      ++stats_.workers_lost;
      refresh_alive_gauge();

      if (slot.busy) {
        slot.busy = false;
        fleet_.end_assign(slot.assign_span, steady_now_ns(),
                          /*committed=*/false);
        slot.assign_span = 0;
        ++stats_.tasks_reassigned;
        requeue(slot.current.task, slot.current.attempt + 1, slot.id);
      }

      if (!slot.is_remote && slot.pid > 0) {
        ::kill(slot.pid, SIGKILL);  // no-op if already gone; un-sticks SIGSTOP
        int status = 0;
        ::waitpid(slot.pid, &status, 0);
      }
      fold_link_stats(slot);
      if (config_.telemetry) {
        config_.telemetry->metrics()
            .counter("cluster.worker." + std::to_string(slot.id) + ".deaths")
            .inc();
      }
      slot.conn.reset();
      slot.fd.reset();
      slot.pid = -1;

      if (respawns_used_ < config_.restart_budget) {
        ++respawns_used_;
        ++stats_.respawns;
        log("cluster: respawning worker " + std::to_string(slot.id) + " (" +
            std::to_string(respawns_used_) + "/" +
            std::to_string(config_.restart_budget) + " restarts used)");
        if (slot.is_remote) {
          arm_remote(slot);  // re-open the slot for a fresh dial-in
        } else {
          try {
            spawn(slot);
          } catch (const ClusterError&) {
            slot.state = SlotState::kRetired;
            ++stats_.workers_retired;
          }
        }
      } else {
        log("cluster: restart budget exhausted; retiring worker " +
            std::to_string(slot.id) + " (degrading to fewer workers)");
        slot.state = SlotState::kRetired;
        ++stats_.workers_retired;
      }
    }
  }

  /// Per-assignment deadline: a task not answered in time is requeued on
  /// another worker. The slow worker stays alive — if it is actually dead
  /// the heartbeat says so. Disconnected slots keep their deadline running:
  /// a partition that outlasts task_timeout surrenders the task to another
  /// worker, and the healed session's late replay is deduplicated.
  void tick_timeouts() {
    const auto now = Clock::now();
    for (Slot& slot : slots_) {
      if ((slot.state != SlotState::kLive &&
           slot.state != SlotState::kDisconnected) ||
          !slot.busy) {
        continue;
      }
      if (now - slot.assigned_at <= config_.task_timeout) continue;
      ++stats_.task_timeouts;
      ++stats_.tasks_reassigned;
      log("cluster: task " + std::to_string(slot.current.task) +
          " timed out on worker " + std::to_string(slot.id) + "; requeueing");
      const Pending timed_out = slot.current;
      slot.busy = false;
      fleet_.end_assign(slot.assign_span, steady_now_ns(), /*committed=*/false);
      slot.assign_span = 0;
      requeue(timed_out.task, timed_out.attempt + 1, slot.id);
    }
  }

  /// Hands ready rows to idle live workers. A row needs every subset, so
  /// a worker gets its first row once it holds all k (fully acked
  /// streams); while work is pending, a worker missing any has them queued.
  void tick_assign() {
    if (!fleet_assembled() || pending_.empty()) return;
    const auto now = Clock::now();
    for (Slot& slot : slots_) {
      if (slot.state != SlotState::kLive || slot.busy) continue;
      bool holds_all = true;
      bool enqueued = false;
      for (std::size_t idx = 0; idx < k_; ++idx) {
        if (slot.delivered_subsets[idx]) continue;
        holds_all = false;
        enqueued |= ensure_transfer(slot, idx);
      }
      if (enqueued) pump_streams(slot);
      if (!holds_all) continue;
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        const Pending& p = pending_[i];
        if (p.banned_worker == slot.id && live_slots() > 1) continue;
        if (p.ready_at > now) continue;
        const Pending pick = p;
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        assign(slot, pick);
        break;
      }
    }
  }

  [[nodiscard]] std::size_t live_slots() const {
    std::size_t n = 0;
    for (const Slot& slot : slots_) {
      if (slot.state == SlotState::kLive) ++n;
    }
    return n;
  }

  /// Ships one assignment (the worker already holds every subset — see
  /// tick_assign), then applies any process-tier fault decided for this
  /// (task, attempt).
  void assign(Slot& slot, const Pending& p) {
    TaskAssignMsg msg;
    msg.task = static_cast<std::uint32_t>(p.task);
    msg.subsets = static_cast<std::uint32_t>(k_);
    msg.attempt = static_cast<std::uint32_t>(p.attempt);
    // Trace context: the worker parents its task spans under this attempt's
    // assign span. trace_id 0 means fleet tracing is off and the worker
    // opens no spans.
    const std::int64_t t = steady_now_ns();
    const std::uint64_t assign_span =
        fleet_.begin_assign(msg.task, slot.id, msg.attempt, t);
    msg.trace_id = fleet_.trace_id();
    msg.parent_span = assign_span;
    msg.assign_ts_ns = t;
    if (!slot.conn->send(MsgType::kTaskAssign, msg.encode(),
                         /*injectable=*/true)) {
      fleet_.end_assign(assign_span, steady_now_ns(), /*committed=*/false);
      link_lost(slot, "assign send failed");
      pending_.push_back(p);
      return;
    }
    slot.busy = true;
    slot.current = p;
    slot.assign_span = assign_span;
    slot.assigned_at = Clock::now();
    ++stats_.attempts;
    if (p.attempt > 0) ++stats_.retries;

    // Process-tier fault injection: the decision is keyed on (task,
    // attempt) like every other tier, so the schedule is independent of
    // which worker drew the assignment. Remote workers are out of signal
    // reach — their chaos comes from the connection tier.
    if (config_.injector && !slot.is_remote && slot.pid > 0) {
      switch (config_.injector->decide_process(p.task, p.attempt)) {
        case util::ProcessFaultKind::kSigkill:
          ++stats_.sigkills_injected;
          ::kill(slot.pid, SIGKILL);
          // The death is certain, but its link EOF and exit can trail the
          // worker's answer to this very assignment (a small task finishes
          // before the signal lands), and the run could end before a
          // parked slot is reaped. So the slot is lost now: the next turn
          // buries it, requeues the task and respawns the worker.
          log("cluster: worker " + std::to_string(slot.id) +
              " SIGKILLed by fault injection; declaring lost");
          slot.state = SlotState::kLost;
          break;
        case util::ProcessFaultKind::kSigstop:
          ++stats_.sigstops_injected;
          ::kill(slot.pid, SIGSTOP);
          break;
        case util::ProcessFaultKind::kNone:
          break;
      }
    }
  }

  // -- metrics -------------------------------------------------------------

  void refresh_alive_gauge() {
    if (m_workers_alive_) {
      m_workers_alive_->set(static_cast<std::int64_t>(live_slots()));
    }
  }

  /// Folds a finished link's transport counters into the run totals (live
  /// connections are summed on top in publish_metrics()).
  void fold_link_stats(Slot& slot) {
    if (!slot.conn) return;
    const FrameStats s = slot.conn->stats();
    retired_frames_sent_ += s.sent;
    retired_frames_dropped_ += s.dropped + slot.worker_frames_dropped;
    retired_frames_corrupt_ += s.corrupt;
    retired_conn_faults_ +=
        s.conn_disconnects + s.conn_partitions + s.conn_half_opens +
        s.conn_drips;
  }

  /// Totals the transport counters of retired and live links into stats_,
  /// then copies every kClusterCounters field to its counter. Runs at the
  /// end of each event-loop turn, before it sleeps, so a reader of the
  /// registry sees what the turn did; stats_ is the only tally.
  void publish_metrics() {
    std::uint64_t sent = retired_frames_sent_;
    std::uint64_t dropped = retired_frames_dropped_;
    std::uint64_t corrupt = retired_frames_corrupt_;
    std::uint64_t conn_faults = retired_conn_faults_;
    for (const Slot& slot : slots_) {
      if (!slot.conn) continue;
      const FrameStats s = slot.conn->stats();
      sent += s.sent;
      dropped += s.dropped + slot.worker_frames_dropped;
      corrupt += s.corrupt;
      conn_faults += s.conn_disconnects + s.conn_partitions +
                     s.conn_half_opens + s.conn_drips;
    }
    stats_.frames_sent = sent;
    stats_.frames_dropped = dropped;
    stats_.frames_corrupt = corrupt;
    stats_.conn_faults_injected = conn_faults;
    for (const auto& [counter, field] : published_) {
      counter->set(stats_.*field);
    }
  }

  // -- teardown ------------------------------------------------------------

  /// Stops everything, inside the same event loop: Shutdown frames (best
  /// effort), a drain until every worker has flushed its final telemetry
  /// — a live one on its link, a parked one after it dials back into its
  /// session — and exited, then the sockets, then the children — reaped
  /// as they exit, SIGKILLed if still alive at the bound (a SIGSTOPped
  /// worker cannot process Shutdown). Remote workers get the Shutdown
  /// frame but are never signalled or reaped — they are not our children.
  /// Idempotent.
  void cleanup() {
    if (cleaned_up_) return;
    cleaned_up_ = true;
    for (Slot& slot : slots_) {
      // No data follows Shutdown: a stream ack drained below would
      // otherwise pump chunks at a worker that is exiting, and the failed
      // send would drop the link before its final telemetry flush is read.
      slot.transfers.clear();
      if (slot.state == SlotState::kLive && slot.conn) {
        slot.conn->send(MsgType::kShutdown, {});
      }
    }
    // Drain before severing: a Shutdown-ed worker flushes its final
    // TelemetrySnapshot (the last tasks' spans and counter totals) and
    // exits, closing its socket — that EOF parks its slot until the exit
    // is seen. A worker parked while redialing still holds its last
    // results' telemetry, so the listener stays open for its
    // ReconnectHello (reattach() sends it Shutdown) until its exit, its
    // grace or the bound.
    const auto drain_until = Clock::now() + kDrainBound;
    for (;;) {
      const auto now = Clock::now();
      bool live = false;
      bool parked = false;
      for (Slot& slot : slots_) {
        if (slot.state == SlotState::kLive && slot.conn) {
          live = true;
        } else if (slot.state == SlotState::kDisconnected) {
          if (reaped(slot) || now - slot.disconnected_at > silence_budget()) {
            slot.state = SlotState::kLost;
          } else {
            parked = true;
          }
        }
      }
      if ((!live && !parked) || now >= drain_until) break;
      poll_events(parked ? std::min(drain_until, now + kExitRecheck)
                         : drain_until);
    }
    handshakes_.clear();
    listen_fd_.reset();
    std::vector<pid_t> exiting;
    for (Slot& slot : slots_) {
      fold_link_stats(slot);  // a shutdown, not a death
      slot.conn.reset();
      slot.fd.reset();
      if (slot.pid > 0 && !slot.is_remote) {
        // A parked worker has no link to hear Shutdown on.
        if (slot.state == SlotState::kDisconnected) ::kill(slot.pid, SIGKILL);
        exiting.push_back(slot.pid);
      }
      slot.pid = -1;
      slot.state = SlotState::kRetired;
    }
    publish_metrics();
    if (m_workers_alive_) m_workers_alive_->set(0);

    // Re-check every kExitRecheck for clean exits until the bound.
    const auto reap_exited = [&exiting] {  // true while some are left
      std::erase_if(exiting, [](pid_t pid) {
        int status = 0;
        return ::waitpid(pid, &status, WNOHANG) != 0;
      });
      return !exiting.empty();
    };
    const auto reap_until = Clock::now() + kReapBound;
    while (reap_exited() && Clock::now() < reap_until) {
      poll_events(std::min(reap_until, Clock::now() + kExitRecheck));
    }
    for (pid_t pid : exiting) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    if (config_.cancel) config_.cancel->remove_callback(cancel_callback_);

    // Nothing reads a link any more: the merged timeline is final. The
    // fleet's metrics live in the telemetry registry, not in a file here.
    if (!config_.fleet_trace_path.empty()) {
      write_json_file(config_.fleet_trace_path, fleet_.chrome_trace_json());
    }
  }

  void write_json_file(const std::string& path, const std::string& json) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      log("cluster: cannot write " + path);
      return;
    }
    out << json << '\n';
    log("cluster: wrote " + path);
  }

  // -- state ---------------------------------------------------------------

  ClusterConfig config_;
  std::span<const BigInt> moduli_;
  batchgcd::TaskSet tasks_;  ///< partition, verification, journal, combine
  std::size_t k_ = 1;
  std::size_t workers_n_ = 1;  ///< local (forked) slots
  std::size_t remote_n_ = 0;   ///< dial-in slots after the local ones
  std::size_t chunk_bytes_ = 64 * 1024;
  std::size_t window_chunks_ = 8;
  std::uint64_t fingerprint_ = 0;

  UniqueFd listen_fd_;
  std::uint16_t bound_port_ = 0;
  /// Fleet observability: clock alignment, merged trace, fleet.* metric
  /// fan-out.
  obs::FleetAggregator fleet_;

  std::vector<Slot> slots_;
  std::vector<Handshake> handshakes_;
  std::vector<pollfd> pollfds_;  ///< poll_events() scratch: watched fds
  std::vector<std::function<void()>> handlers_;  ///< ... and their handlers
  std::shared_ptr<WakePipe> wake_;  ///< set when a cancel token is given
  std::uint64_t cancel_callback_ = 0;
  std::deque<Pending> pending_;
  std::size_t respawns_used_ = 0;
  std::uint64_t next_session_id_ = 1;
  std::uint32_t next_stream_id_ = 1;
  bool halted_ = false;
  bool assembled_ = false;  ///< fleet_assembled() latched true
  bool cancelled_ = false;
  bool cleaned_up_ = false;
  std::exception_ptr fatal_;
  // Encoded subset cache, shared across every slot's transfers (the bytes
  // for subset a are identical no matter which worker needs them).
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> enc_subset_;
  std::vector<std::uint32_t> enc_subset_crc_;
  ClusterStats stats_;
  std::uint64_t retired_frames_sent_ = 0;
  std::uint64_t retired_frames_dropped_ = 0;
  std::uint64_t retired_frames_corrupt_ = 0;
  std::uint64_t retired_conn_faults_ = 0;

  obs::Gauge* m_workers_alive_ = nullptr;
  /// kClusterCounters resolved against the registry (empty without one).
  std::vector<std::pair<obs::Counter*, std::uint64_t ClusterStats::*>>
      published_;
};

}  // namespace

batchgcd::BatchGcdResult batch_gcd_cluster(std::span<const BigInt> moduli,
                                           const ClusterConfig& config,
                                           ClusterStats* stats) {
  const bool spawns_workers =
      !(config.workers == 0 && config.remote_workers > 0);
  if (spawns_workers) {
    if (config.worker_binary.empty()) {
      throw ClusterError("cluster: worker_binary not configured");
    }
    if (::access(config.worker_binary.c_str(), X_OK) != 0) {
      throw ClusterError("cluster: worker binary not executable: " +
                         config.worker_binary);
    }
  }
  ProcessCoordinator coordinator(moduli, config);
  return coordinator.run(stats);
}

#else  // !WEAKKEYS_HAVE_NET

batchgcd::BatchGcdResult batch_gcd_cluster(std::span<const bn::BigInt>,
                                           const ClusterConfig&,
                                           ClusterStats*) {
  throw ClusterError("cluster: not supported on this platform");
}

#endif

}  // namespace weakkeys::cluster
