// Multi-process cluster: protocol codecs and framing, fault-free output
// equivalence across worker counts, chaos (SIGKILL/SIGSTOP + lossy frames +
// real crashes/corruption/stragglers) with byte-identical output, resume
// across engines via the shared journal, graceful degradation, and the
// cluster.* metrics surface.
//
// Every test that spawns workers uses the real gcd_worker binary, resolved
// at compile time from the build tree (WEAKKEYS_GCD_WORKER_BIN).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/distributed.hpp"
#include "cluster/process_coordinator.hpp"
#include "cluster/protocol.hpp"
#include "obs/proc_stats.hpp"
#include "obs/telemetry.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/binary_io.hpp"
#include "util/fault_injector.hpp"
#include "util/net.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::cluster {
namespace {

using bn::BigInt;

std::string worker_binary() { return WEAKKEYS_GCD_WORKER_BIN; }

/// Small corpus with planted shared-prime structure (and a duplicate), so
/// subsets carry real divisors for verification/quarantine to bite on.
std::vector<BigInt> make_moduli(std::uint64_t seed, std::size_t healthy) {
  std::vector<BigInt> moduli;
  rng::PrngRandomSource rng(seed);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.miller_rabin_rounds = 6;
  for (std::size_t i = 0; i < healthy; ++i) {
    moduli.push_back(rsa::generate_key(rng, opts).pub.n);
  }
  std::vector<BigInt> primes;
  for (int i = 0; i < 8; ++i) {
    primes.push_back(rsa::generate_prime(rng, 64, opts));
  }
  moduli.push_back(primes[0] * primes[1]);
  moduli.push_back(primes[0] * primes[2]);  // pair sharing primes[0]
  moduli.push_back(primes[3] * primes[4]);  // star of three sharing primes[3]
  moduli.push_back(primes[3] * primes[5]);
  moduli.push_back(primes[3] * primes[6]);
  moduli.push_back(primes[1] * primes[7]);
  moduli.push_back(primes[1] * primes[7]);  // duplicate
  return moduli;
}

/// Cluster config tuned for test latency: tight heartbeats and deadlines,
/// fast retry schedule.
ClusterConfig fast_config(std::size_t k, std::size_t workers) {
  ClusterConfig config;
  config.subsets = k;
  config.workers = workers;
  config.worker_binary = worker_binary();
  config.retry.base = std::chrono::milliseconds(1);
  config.retry.cap = std::chrono::milliseconds(8);
  config.task_timeout = std::chrono::milliseconds(2000);
  config.heartbeat_interval = std::chrono::milliseconds(25);
  config.heartbeat_misses = 8;
  config.spawn_timeout = std::chrono::milliseconds(10000);
  config.restart_budget = 16;
  return config;
}

std::string temp_checkpoint(const std::string& tag) {
  return ::testing::TempDir() + "cluster_" + tag + ".gcdckpt";
}

// ------------------------------------------------------- protocol codecs ----

TEST(ClusterProtocol, MessageRoundTrips) {
  HelloMsg hello{7, 1234, kProtocolVersion};
  const auto hello2 = HelloMsg::decode(hello.encode());
  ASSERT_TRUE(hello2);
  EXPECT_EQ(hello2->worker_id, 7u);
  EXPECT_EQ(hello2->pid, 1234u);
  EXPECT_EQ(hello2->version, kProtocolVersion);

  SubsetDataMsg subset;
  subset.subset = 3;
  subset.moduli = {BigInt(77), BigInt(221), BigInt(1)};
  const auto subset2 = SubsetDataMsg::decode(subset.encode());
  ASSERT_TRUE(subset2);
  EXPECT_EQ(subset2->subset, 3u);
  EXPECT_EQ(subset2->moduli, subset.moduli);

  TaskAssignMsg assign{11, 16, 1};
  const auto assign2 = TaskAssignMsg::decode(assign.encode());
  ASSERT_TRUE(assign2);
  EXPECT_EQ(assign2->task, 11u);
  EXPECT_EQ(assign2->subsets, 16u);
  EXPECT_EQ(assign2->attempt, 1u);

  TaskResultMsg result;
  result.task = 5;
  result.worker_id = 1;
  result.result_seq = 0x1122334455667788ull;
  result.claims.push_back({4, BigInt(17)});
  result.claims.push_back({9, BigInt(1) << 80});
  const auto result2 = TaskResultMsg::decode(result.encode());
  ASSERT_TRUE(result2);
  EXPECT_EQ(result2->result_seq, 0x1122334455667788ull);
  ASSERT_EQ(result2->claims.size(), 2u);
  EXPECT_EQ(result2->claims[0].leaf, 4u);
  EXPECT_EQ(result2->claims[0].divisor, BigInt(17));
  EXPECT_EQ(result2->claims[1].divisor, BigInt(1) << 80);

  PingMsg ping{42, 99999, 7};
  const auto ping2 = PingMsg::decode(ping.encode());
  ASSERT_TRUE(ping2);
  EXPECT_EQ(ping2->seq, 42u);
  EXPECT_EQ(ping2->t_send_ns, 99999);
  EXPECT_EQ(ping2->ack_result_seq, 7u);

  PongMsg pong{42, 99999, 3, 17, 2};
  const auto pong2 = PongMsg::decode(pong.encode());
  ASSERT_TRUE(pong2);
  EXPECT_EQ(pong2->frames_sent, 17u);
  EXPECT_EQ(pong2->frames_dropped, 2u);
}

TEST(ClusterProtocol, SessionAndStreamMessageRoundTrips) {
  HelloAckMsg ack{0xdeadbeef, 31, 200};
  const auto ack2 = HelloAckMsg::decode(ack.encode());
  ASSERT_TRUE(ack2);
  EXPECT_EQ(ack2->fingerprint, 0xdeadbeefu);
  EXPECT_EQ(ack2->session_id, 31u);
  EXPECT_EQ(ack2->grace_ms, 200u);

  ReconnectHelloMsg rh{3, 4242, 31, 16, kProtocolVersion};
  const auto rh2 = ReconnectHelloMsg::decode(rh.encode());
  ASSERT_TRUE(rh2);
  EXPECT_EQ(rh2->worker_id, 3u);
  EXPECT_EQ(rh2->pid, 4242u);
  EXPECT_EQ(rh2->session_id, 31u);
  EXPECT_EQ(rh2->last_committed_seq, 16u);
  EXPECT_EQ(rh2->version, kProtocolVersion);

  ReconnectAckMsg ra{1, 16};
  const auto ra2 = ReconnectAckMsg::decode(ra.encode());
  ASSERT_TRUE(ra2);
  EXPECT_EQ(ra2->accepted, 1u);
  EXPECT_EQ(ra2->ack_result_seq, 16u);

  StreamBeginMsg begin{9, 2, 1u << 20, 0xabadcafe};
  const auto begin2 = StreamBeginMsg::decode(begin.encode());
  ASSERT_TRUE(begin2);
  EXPECT_EQ(begin2->stream_id, 9u);
  EXPECT_EQ(begin2->subset, 2u);
  EXPECT_EQ(begin2->total_bytes, 1u << 20);
  EXPECT_EQ(begin2->payload_crc, 0xabadcafeu);
  // A v5 StreamBegin (stream id, payload kind, subset, size, crc) is
  // rejected as trailing bytes, not read with its fields shifted.
  util::BufferWriter v5;
  v5.u32(9);
  v5.u32(0);
  v5.u32(2);
  v5.u64(1u << 20);
  v5.u32(0xabadcafe);
  EXPECT_FALSE(StreamBeginMsg::decode(v5.data()));

  StreamChunkMsg chunk;
  chunk.stream_id = 9;
  chunk.offset = 65536;
  chunk.data = {0x00, 0x7f, 0xff, 0x10};
  const auto chunk2 = StreamChunkMsg::decode(chunk.encode());
  ASSERT_TRUE(chunk2);
  EXPECT_EQ(chunk2->stream_id, 9u);
  EXPECT_EQ(chunk2->offset, 65536u);
  EXPECT_EQ(chunk2->data, chunk.data);

  StreamAckMsg sack{9, 65540};
  const auto sack2 = StreamAckMsg::decode(sack.encode());
  ASSERT_TRUE(sack2);
  EXPECT_EQ(sack2->stream_id, 9u);
  EXPECT_EQ(sack2->received, 65540u);

  // The session/stream codecs reject truncation cleanly, like the rest.
  const auto truncated = [](std::vector<std::uint8_t> body) {
    body.pop_back();
    return body;
  };
  EXPECT_FALSE(HelloAckMsg::decode(truncated(ack.encode())));
  EXPECT_FALSE(ReconnectHelloMsg::decode(truncated(rh.encode())));
  EXPECT_FALSE(ReconnectAckMsg::decode(truncated(ra.encode())));
  EXPECT_FALSE(StreamBeginMsg::decode(truncated(begin.encode())));
  EXPECT_FALSE(StreamChunkMsg::decode(truncated(chunk.encode())));
  EXPECT_FALSE(StreamAckMsg::decode(truncated(sack.encode())));
}

TEST(ClusterProtocol, TraceContextTailsRoundTripAndAreRequired) {
  // TaskAssign/Ping/Pong end in trace/telemetry fields. They round-trip,
  // and a body cut before them (what the retired v2 dialect sent) is
  // rejected rather than read with the fields at zero.
  const auto without_tail = [](std::vector<std::uint8_t> body,
                               std::size_t tail_bytes) {
    body.resize(body.size() - tail_bytes);
    return body;
  };
  TaskAssignMsg assign{11, 16, 1};
  assign.trace_id = 0xfeedfacecafef00dull;
  assign.parent_span = 77;
  assign.assign_ts_ns = 123456789012345;
  const auto assign3 = TaskAssignMsg::decode(assign.encode());
  ASSERT_TRUE(assign3);
  EXPECT_EQ(assign3->task, 11u);
  EXPECT_EQ(assign3->trace_id, 0xfeedfacecafef00dull);
  EXPECT_EQ(assign3->parent_span, 77u);
  EXPECT_EQ(assign3->assign_ts_ns, 123456789012345);
  EXPECT_FALSE(TaskAssignMsg::decode(without_tail(assign.encode(), 24)));

  PingMsg ping{42, 99999, 7};
  ping.ack_telemetry_seq = 5;
  const auto ping3 = PingMsg::decode(ping.encode());
  ASSERT_TRUE(ping3);
  EXPECT_EQ(ping3->ack_telemetry_seq, 5u);
  EXPECT_FALSE(PingMsg::decode(without_tail(ping.encode(), 8)));

  PongMsg pong{42, 99999, 3, 17, 2};
  pong.worker_now_ns = 31337;
  const auto pong3 = PongMsg::decode(pong.encode());
  ASSERT_TRUE(pong3);
  EXPECT_EQ(pong3->worker_now_ns, 31337);
  EXPECT_FALSE(PongMsg::decode(without_tail(pong.encode(), 8)));
}

TEST(ClusterProtocol, TelemetrySnapshotRoundTripsAndRejectsMalformed) {
  TelemetrySnapshotMsg msg;
  msg.worker_id = 3;
  msg.seq = 9;
  msg.first_span_index = 40;
  msg.trace_epoch_ns = 1726000000;
  msg.rss_kb = 2048;
  msg.peak_rss_kb = 4096;
  msg.cpu_user_us = 1234;
  msg.cpu_sys_us = 56;
  msg.counters = {{"tasks_executed", 7}, {"compute_us", 88000}};
  msg.gauges = {{"queue_depth", 2}};
  TelemetrySpan span;
  span.name = "task.compute";
  span.ts_us = 10;
  span.dur_us = 20;
  span.depth = 0;
  span.args = {{"task", 11}, {"attempt", 1}};
  msg.spans = {span};

  auto body = msg.encode();
  const auto decoded = TelemetrySnapshotMsg::decode(body);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->worker_id, 3u);
  EXPECT_EQ(decoded->seq, 9u);
  EXPECT_EQ(decoded->first_span_index, 40u);
  EXPECT_EQ(decoded->trace_epoch_ns, 1726000000);
  EXPECT_EQ(decoded->rss_kb, 2048);
  EXPECT_EQ(decoded->peak_rss_kb, 4096);
  EXPECT_EQ(decoded->cpu_user_us, 1234);
  EXPECT_EQ(decoded->cpu_sys_us, 56);
  EXPECT_EQ(decoded->counters, msg.counters);
  EXPECT_EQ(decoded->gauges, msg.gauges);
  ASSERT_EQ(decoded->spans.size(), 1u);
  EXPECT_EQ(decoded->spans[0].name, "task.compute");
  EXPECT_EQ(decoded->spans[0].ts_us, 10u);
  EXPECT_EQ(decoded->spans[0].dur_us, 20u);
  EXPECT_EQ(decoded->spans[0].args, span.args);

  // Truncate at every prefix: decode must fail cleanly, never throw.
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(body.begin(), body.begin() + cut);
    EXPECT_FALSE(TelemetrySnapshotMsg::decode(prefix)) << "cut=" << cut;
  }
  body.push_back(0xff);  // trailing garbage is rejected too
  EXPECT_FALSE(TelemetrySnapshotMsg::decode(body));
}

TEST(ClusterProtocol, MalformedBodiesDecodeToNullopt) {
  TaskResultMsg result;
  result.task = 5;
  result.claims.push_back({4, BigInt(17)});
  auto body = result.encode();
  // Truncate at every prefix: decode must fail cleanly, never throw.
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(body.begin(),
                                           body.begin() + cut);
    EXPECT_FALSE(TaskResultMsg::decode(prefix)) << "cut=" << cut;
  }
  // Trailing garbage is rejected too.
  body.push_back(0xff);
  EXPECT_FALSE(TaskResultMsg::decode(body));
  EXPECT_FALSE(HelloMsg::decode({}));
  // A v4 HelloAck (fingerprint, heartbeat, session, grace) is rejected as
  // trailing bytes, not read with its fields shifted.
  util::BufferWriter v4;
  v4.u64(0xdeadbeef);
  v4.u32(25);
  v4.u64(31);
  v4.u32(200);
  EXPECT_FALSE(HelloAckMsg::decode(v4.data()));
}

// ------------------------------------------------------- frame transport ----

class FramePair : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a_.reset(fds[0]);
    b_.reset(fds[1]);
  }
  util::net::UniqueFd a_, b_;
};

TEST_F(FramePair, SendRecvRoundTrip) {
  FrameConn tx(a_.get(), 0);
  FrameConn rx(b_.get(), 1);
  const PingMsg ping{9, 1234};
  ASSERT_TRUE(tx.send(MsgType::kPing, ping.encode()));
  Frame frame;
  ASSERT_EQ(rx.recv(&frame, std::chrono::milliseconds(1000)),
            RecvStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kPing);
  const auto decoded = PingMsg::decode(frame.body);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->seq, 9u);
  EXPECT_EQ(tx.stats().sent, 1u);
}

TEST(ClusterProtocol, SmallFrameRoundTripsDoNotWaitForDelayedAck) {
  // A frame is a header write plus a payload write. Over TCP with Nagle on,
  // the payload waits for the ACK of the header, which the peer delays
  // (~40 ms on Linux): 50 ping-pongs then take seconds instead of
  // milliseconds.
  util::net::UniqueFd listener(util::net::listen_tcp("127.0.0.1", 0, 4));
  ASSERT_TRUE(listener.valid());
  util::net::UniqueFd client(util::net::connect_tcp(
      "127.0.0.1",
      static_cast<std::uint16_t>(util::net::local_port(listener.get())),
      std::chrono::milliseconds(2000)));
  ASSERT_TRUE(client.valid());
  util::net::UniqueFd server(util::net::accept_cloexec(listener.get()));
  ASSERT_TRUE(server.valid());
  FrameConn coordinator(server.get(), 0);
  FrameConn worker(client.get(), 1);

  const auto t0 = std::chrono::steady_clock::now();
  Frame frame;
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    ASSERT_TRUE(coordinator.send(MsgType::kPing, PingMsg{seq, 1}.encode()));
    ASSERT_EQ(worker.recv(&frame, std::chrono::seconds(2)), RecvStatus::kOk);
    ASSERT_EQ(frame.type, MsgType::kPing);
    ASSERT_TRUE(worker.send(MsgType::kPong, PongMsg{seq, 1}.encode()));
    ASSERT_EQ(coordinator.recv(&frame, std::chrono::seconds(2)),
              RecvStatus::kOk);
    ASSERT_EQ(frame.type, MsgType::kPong);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

TEST_F(FramePair, RecvTimesOutThenClosedOnEof) {
  FrameConn rx(b_.get(), 1);
  Frame frame;
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(10)),
            RecvStatus::kTimeout);
  a_.reset();  // peer closes
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(1000)),
            RecvStatus::kClosed);
}

TEST_F(FramePair, GarbledFrameIsRejectedByCrcAndCounted) {
  util::FaultConfig faults;
  faults.seed = 5;
  faults.frame_garble_probability = 1.0;
  const util::FaultInjector injector(faults);
  FrameConn tx(a_.get(), 0, &injector);
  FrameConn rx(b_.get(), 1);

  // Injectable frame: garbled on the wire, rejected by the receiver.
  ASSERT_TRUE(tx.send(MsgType::kTaskAssign, TaskAssignMsg{1, 0, 1, 0}.encode(),
                      /*injectable=*/true));
  Frame frame;
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(1000)),
            RecvStatus::kCorrupt);
  EXPECT_EQ(tx.stats().garbled, 1u);
  EXPECT_EQ(rx.stats().corrupt, 1u);

  // Control frames bypass injection even at probability 1.
  ASSERT_TRUE(tx.send(MsgType::kPing, PingMsg{1, 2}.encode()));
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(1000)),
            RecvStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kPing);
}

TEST_F(FramePair, DroppedFrameNeverArrives) {
  util::FaultConfig faults;
  faults.seed = 6;
  faults.frame_drop_probability = 1.0;
  const util::FaultInjector injector(faults);
  FrameConn tx(a_.get(), 0, &injector);
  FrameConn rx(b_.get(), 1);

  ASSERT_TRUE(tx.send(MsgType::kTaskAssign, TaskAssignMsg{1, 0, 1, 0}.encode(),
                      /*injectable=*/true));
  EXPECT_EQ(tx.stats().dropped, 1u);
  EXPECT_EQ(tx.stats().sent, 0u);
  Frame frame;
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(20)),
            RecvStatus::kTimeout);
}

TEST_F(FramePair, PeerDeathBetweenFramesFailsSendWithoutSigpipe) {
  // Regression for the SIGPIPE guard: a peer that dies between frames must
  // turn subsequent sends into a clean `false`, not a process-killing
  // signal. The child holds the far end, reads one frame, and exits
  // abruptly without shutdown.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    FrameConn rx(b_.get(), 1);
    Frame frame;
    rx.recv(&frame, std::chrono::milliseconds(5000));
    ::_exit(0);
  }
  b_.reset();  // the child now owns the only far-end descriptor

  FrameConn tx(a_.get(), 0);
  ASSERT_TRUE(tx.send(MsgType::kPing, PingMsg{1, 0, 0}.encode()));
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  // The peer is gone. The first send may still land in the socket buffer;
  // within a few frames the kernel reports the broken pipe and send()
  // returns false — and this process is still here to notice.
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i) {
    failed = !tx.send(MsgType::kPing, PingMsg{2, 0, 0}.encode());
  }
  EXPECT_TRUE(failed);
}

// --------------------------------------------------------- frame decoder ----

/// One frame as it travels on the wire: u32 length | u32 crc | type | body.
std::vector<std::uint8_t> wire_frame(MsgType type,
                                     const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> payload{static_cast<std::uint8_t>(type)};
  payload.insert(payload.end(), body.begin(), body.end());
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = util::crc32(payload);
  std::vector<std::uint8_t> out(8 + payload.size());
  std::memcpy(out.data(), &length, 4);
  std::memcpy(out.data() + 4, &crc, 4);
  std::copy(payload.begin(), payload.end(), out.begin() + 8);
  return out;
}

class ClusterFrameDecoder : public FramePair {
 protected:
  /// Writes bytes [from, to) of `wire` to the far end of the pair.
  void put(const std::vector<std::uint8_t>& wire, std::size_t from,
           std::size_t to) {
    ASSERT_TRUE(util::net::write_full(a_.get(), wire.data() + from, to - from));
  }
};

TEST_F(ClusterFrameDecoder, HeaderSplitAcrossReads) {
  FrameConn rx(b_.get(), 1);
  const auto wire = wire_frame(MsgType::kPing, PingMsg{7, 8, 9}.encode());
  Frame frame;
  put(wire, 0, 5);  // most of the header, not all of it
  EXPECT_EQ(rx.try_recv(&frame), RecvStatus::kTimeout);
  put(wire, 5, 8);  // the header completes; no payload yet
  EXPECT_EQ(rx.try_recv(&frame), RecvStatus::kTimeout);
  put(wire, 8, wire.size());
  ASSERT_EQ(rx.try_recv(&frame), RecvStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kPing);
  const auto ping = PingMsg::decode(frame.body);
  ASSERT_TRUE(ping);
  EXPECT_EQ(ping->seq, 7u);
  EXPECT_EQ(ping->ack_result_seq, 9u);
  EXPECT_EQ(rx.try_recv(&frame), RecvStatus::kTimeout);
}

TEST_F(ClusterFrameDecoder, PayloadDribbledOneByteAtATime) {
  FrameConn rx(b_.get(), 1);
  TaskResultMsg result;
  result.task = 3;
  result.result_seq = 12;
  result.claims.push_back({2, BigInt(1) << 90});
  const auto wire = wire_frame(MsgType::kTaskResult, result.encode());
  Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    put(wire, i, i + 1);
    ASSERT_EQ(rx.try_recv(&frame), RecvStatus::kTimeout) << "byte " << i;
  }
  put(wire, wire.size() - 1, wire.size());
  ASSERT_EQ(rx.try_recv(&frame), RecvStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kTaskResult);
  const auto decoded = TaskResultMsg::decode(frame.body);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->result_seq, 12u);
  ASSERT_EQ(decoded->claims.size(), 1u);
  EXPECT_EQ(decoded->claims[0].divisor, BigInt(1) << 90);
}

TEST_F(ClusterFrameDecoder, StalledHalfHeaderNeverBlocks) {
  // A peer that writes half a header and stops (a worker SIGSTOPped
  // mid-frame): try_recv says "no frame" at once, recv gives up at its
  // deadline, and the partial bytes still complete a frame later.
  FrameConn rx(b_.get(), 1);
  const auto wire = wire_frame(MsgType::kShutdown, {});
  put(wire, 0, 4);
  Frame frame;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(rx.try_recv(&frame), RecvStatus::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(50));
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(30)),
            RecvStatus::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  put(wire, 4, wire.size());
  ASSERT_EQ(rx.recv(&frame, std::chrono::milliseconds(1000)),
            RecvStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kShutdown);
  // EOF in the middle of a frame ends the connection.
  put(wire, 0, 6);
  a_.reset();
  EXPECT_EQ(rx.recv(&frame, std::chrono::milliseconds(1000)),
            RecvStatus::kClosed);
}

TEST_F(ClusterFrameDecoder, BadCrcFollowedByGoodFrame) {
  FrameConn rx(b_.get(), 1);
  auto bad = wire_frame(MsgType::kPing, PingMsg{1, 2, 3}.encode());
  bad.back() ^= 0x5a;  // payload byte flipped after the CRC was computed
  auto wire = bad;
  const auto good = wire_frame(MsgType::kPong, PongMsg{4, 5}.encode());
  wire.insert(wire.end(), good.begin(), good.end());
  put(wire, 0, wire.size());  // both frames in one write
  Frame frame;
  EXPECT_EQ(rx.try_recv(&frame), RecvStatus::kCorrupt);
  ASSERT_EQ(rx.try_recv(&frame), RecvStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kPong);
  EXPECT_EQ(rx.stats().corrupt, 1u);
  EXPECT_EQ(rx.try_recv(&frame), RecvStatus::kTimeout);
}

TEST_F(ClusterFrameDecoder, OversizedLengthClosesTheConnection) {
  FrameConn rx(b_.get(), 1);
  std::vector<std::uint8_t> header(8, 0);
  const std::uint32_t length = kMaxFrameBytes + 1;
  std::memcpy(header.data(), &length, 4);
  put(header, 0, header.size());
  Frame frame;
  EXPECT_EQ(rx.try_recv(&frame), RecvStatus::kClosed);
}

// --------------------------------------------------------- fault-free e2e ----

TEST(Cluster, FaultFreeMatchesBatchGcdAcrossWorkerCounts) {
  const auto moduli = make_moduli(201, 20);
  const auto reference = batchgcd::batch_gcd(moduli);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ClusterStats stats;
    const auto result =
        batch_gcd_cluster(moduli, fast_config(3, workers), &stats);
    EXPECT_EQ(result.divisors, reference.divisors) << "workers=" << workers;
    EXPECT_EQ(stats.tasks, 3u);  // one row per subset
    EXPECT_EQ(stats.tasks_executed, 3u);
    EXPECT_EQ(stats.tasks_resumed, 0u);
    EXPECT_EQ(stats.results_quarantined, 0u);
    EXPECT_GE(stats.workers_spawned, workers);
    EXPECT_GT(stats.frames_sent, 0u);
  }
}

TEST(Cluster, EmptyInputAndMissingBinary) {
  ClusterStats stats;
  const auto empty = batch_gcd_cluster({}, fast_config(3, 2), &stats);
  EXPECT_TRUE(empty.divisors.empty());

  auto config = fast_config(2, 1);
  config.worker_binary = "/nonexistent/gcd_worker";
  const std::vector<BigInt> moduli = {BigInt(77), BigInt(221)};
  EXPECT_THROW(batch_gcd_cluster(moduli, config), ClusterError);
}

// ------------------------------------------------------------- chaos e2e ----

TEST(Cluster, ChaosSigkillSigstopAndLossyFramesMatchBatchGcd) {
  // The acceptance gate: 4 workers under real SIGKILL/SIGSTOP plus frame
  // corruption/drops plus real mid-task crashes, corrupt results, and
  // stragglers — and the vulnerable set must be byte-identical to the
  // fault-free single-process reference.
  const auto moduli = make_moduli(202, 20);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 77;
  faults.sigkill_probability = 0.08;
  faults.sigstop_probability = 0.05;
  faults.frame_drop_probability = 0.05;
  faults.frame_garble_probability = 0.05;
  faults.frame_delay_probability = 0.10;
  faults.frame_delay_ms = 2;
  faults.crash_probability = 0.05;
  faults.corrupt_probability = 0.08;
  const util::FaultInjector injector(faults);

  // k = 16: enough rows (fault draws) for every fault kind to bite.
  auto config = fast_config(16, 4);
  config.task_timeout = std::chrono::milliseconds(600);
  config.injector = &injector;
  config.restart_budget = 64;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_EQ(stats.tasks_executed + stats.tasks_resumed, 16u);
  // The schedule is deterministic, so the chaos actually happened:
  EXPECT_GT(stats.sigkills_injected + stats.sigstops_injected, 0u);
  EXPECT_GT(stats.workers_lost, 0u);
  EXPECT_GT(stats.respawns, 0u);
  EXPECT_LE(stats.respawns, config.restart_budget);
}

TEST(Cluster, CorruptResultsAreQuarantinedAndWorkerDemoted) {
  const auto moduli = make_moduli(203, 16);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 31;
  faults.corrupt_probability = 0.6;  // most first attempts ship garbage
  const util::FaultInjector injector(faults);

  // k = 9: enough rows (fault draws) for the schedule to bite.
  auto config = fast_config(9, 2);
  config.injector = &injector;
  config.quarantine_strikes = 2;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.results_quarantined, 0u);
  EXPECT_GT(stats.workers_demoted, 0u);
  EXPECT_GT(stats.retries, 0u);
}

TEST(Cluster, SigstopIsCaughtByHeartbeatNotTimeoutAlone) {
  const auto moduli = make_moduli(204, 14);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 13;
  faults.sigstop_probability = 0.3;
  const util::FaultInjector injector(faults);

  // k = 9: enough rows (fault draws) for the schedule to bite.
  auto config = fast_config(9, 2);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(5000);  // heartbeat first
  config.heartbeat_interval = std::chrono::milliseconds(20);
  config.heartbeat_misses = 5;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.sigstops_injected, 0u);
  EXPECT_GT(stats.heartbeat_deaths, 0u);
  EXPECT_GT(stats.max_heartbeat_rtt_us, 0u);
  // A stopped worker is alive to waitpid: its link is heartbeat-dead, the
  // slot parks, and only the expired grace makes it a death and a respawn.
  EXPECT_GT(stats.sessions_expired, 0u);
  EXPECT_GT(stats.respawns, 0u);
}

// -------------------------------------------------- degradation & failure ----

TEST(Cluster, DegradesToFewerWorkersWhenBudgetExhausted) {
  const auto moduli = make_moduli(205, 14);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 17;
  faults.sigkill_probability = 0.25;
  const util::FaultInjector injector(faults);

  // k = 9: enough rows (fault draws) for the schedule to bite.
  auto config = fast_config(9, 4);
  config.injector = &injector;
  config.restart_budget = 0;  // the first death retires its slot
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.workers_lost, 0u);
  EXPECT_EQ(stats.respawns, 0u);
  EXPECT_GT(stats.workers_retired, 0u);  // degraded, still finished
}

TEST(Cluster, FailsCleanlyWhenAllWorkersExhausted) {
  const auto moduli = make_moduli(206, 10);

  util::FaultConfig faults;
  faults.seed = 19;
  faults.sigkill_probability = 1.0;  // every assignment kills its worker
  const util::FaultInjector injector(faults);

  auto config = fast_config(2, 2);
  config.injector = &injector;
  config.restart_budget = 2;
  EXPECT_THROW(batch_gcd_cluster(moduli, config), ClusterError);
}

// ------------------------------------------------------------ checkpoints ----

TEST(Cluster, HaltedRunResumesFromJournal) {
  const auto moduli = make_moduli(207, 18);
  const auto reference = batchgcd::batch_gcd(moduli);
  const std::string path = temp_checkpoint("resume");
  std::remove(path.c_str());

  auto config = fast_config(8, 2);
  config.checkpoint_path = path;
  config.halt_after_tasks = 5;
  EXPECT_THROW(batch_gcd_cluster(moduli, config), CoordinatorInterrupted);

  config.halt_after_tasks = 0;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GE(stats.tasks_resumed, 5u);
  EXPECT_EQ(stats.tasks_resumed + stats.tasks_executed, 8u);
  // The journal is superseded by success and removed.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f) std::fclose(f);
}

TEST(Cluster, JournalIsInterchangeableWithInProcessCoordinator) {
  // A run halted under the cluster engine resumes under the in-process
  // path, and vice versa: one journal format, two engines.
  const auto moduli = make_moduli(208, 18);
  const auto reference = batchgcd::batch_gcd(moduli);
  util::ThreadPool pool(2);

  {  // cluster -> in-process
    const std::string path = temp_checkpoint("x_engine_a");
    std::remove(path.c_str());
    auto config = fast_config(10, 2);
    config.checkpoint_path = path;
    config.halt_after_tasks = 4;
    EXPECT_THROW(batch_gcd_cluster(moduli, config), CoordinatorInterrupted);

    batchgcd::DistributedOptions inproc;
    inproc.journal_path = path;
    batchgcd::DistributedStats stats;
    const auto result =
        batchgcd::batch_gcd_distributed(moduli, 10, &pool, &stats, inproc);
    EXPECT_EQ(result.divisors, reference.divisors);
    EXPECT_GE(stats.tasks_resumed, 4u);
    EXPECT_LT(stats.tasks_resumed, 10u);
  }
  {  // in-process -> cluster
    const std::string path = temp_checkpoint("x_engine_b");
    const std::string spill_dir = path + ".spill.d";
    std::remove(path.c_str());
    // Cancelled from its own commit counter once 4 rows are journaled;
    // 5 ms stalls on every spill operation keep the cancel mid-run.
    util::FaultConfig faults;
    faults.storage_slow_probability = 1.0;
    faults.storage_slow_ms = 5;
    const util::FaultInjector injector(faults);
    batchgcd::TreeStorage storage;
    storage.spill_dir = spill_dir;
    storage.spill_threshold_bytes = 0;
    storage.injector = &injector;
    obs::MetricsRegistry registry;
    auto& executed = registry.counter("coordinator.tasks_executed");
    util::CancellationToken token;
    batchgcd::DistributedOptions inproc;
    inproc.cancel = &token;
    inproc.registry = &registry;
    inproc.storage = &storage;
    inproc.journal_path = path;
    std::thread canceller([&] {
      while (executed.value() < 4) std::this_thread::yield();
      token.cancel("simulated kill");
    });
    EXPECT_THROW(
        batchgcd::batch_gcd_distributed(moduli, 10, &pool, nullptr, inproc),
        util::Cancelled);
    canceller.join();
    std::filesystem::remove_all(spill_dir);

    auto config = fast_config(10, 2);
    config.checkpoint_path = path;
    ClusterStats stats;
    const auto result = batch_gcd_cluster(moduli, config, &stats);
    EXPECT_EQ(result.divisors, reference.divisors);
    EXPECT_EQ(stats.tasks_resumed, executed.value());
    EXPECT_GE(stats.tasks_resumed, 4u);
    EXPECT_EQ(stats.tasks_resumed + stats.tasks_executed, 10u);
  }
}

TEST(Cluster, ChaosRunWithCheckpointLeavesNoTmpOrphans) {
  const auto moduli = make_moduli(209, 14);
  const std::string path = temp_checkpoint("no_orphans");
  std::remove(path.c_str());

  util::FaultConfig faults;
  faults.seed = 23;
  faults.sigkill_probability = 0.15;
  faults.frame_garble_probability = 0.05;
  const util::FaultInjector injector(faults);

  // k = 9: enough rows (fault draws) for the schedule to bite.
  auto config = fast_config(9, 3);
  config.task_timeout = std::chrono::milliseconds(600);
  config.injector = &injector;
  config.checkpoint_path = path;
  config.remove_checkpoint_on_success = false;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, batchgcd::batch_gcd(moduli).divisors);

  // The journal exists (retained on request); its tmp sibling must not.
  std::FILE* journal = std::fopen(path.c_str(), "rb");
  EXPECT_NE(journal, nullptr);
  if (journal) std::fclose(journal);
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp) std::fclose(tmp);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- metrics ----

TEST(Cluster, MetricsSurfaceClusterCounters) {
  const auto moduli = make_moduli(210, 14);
  obs::Telemetry telemetry;

  // Severed links, so the session and stream-resume counters move too.
  util::FaultConfig faults;
  faults.seed = 29;
  faults.conn_disconnect_probability = 0.04;
  const util::FaultInjector injector(faults);

  // k = 9: enough rows (fault draws) for the schedule to bite.
  auto config = fast_config(9, 2);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(1000);
  config.telemetry = &telemetry;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, batchgcd::batch_gcd(moduli).divisors);
  EXPECT_GT(stats.reconnects, 0u);

  const auto snapshot = telemetry.metrics().snapshot();
  // The coordinator tallies in ClusterStats alone; every published counter
  // is its field's final value.
  for (const ClusterCounter& c : kClusterCounters) {
    EXPECT_EQ(snapshot.counter(c.name), stats.*c.field) << c.name;
  }
  // Severed links are not deaths, and neither is the final shutdown.
  EXPECT_EQ(snapshot.counter("cluster.worker.0.deaths") +
                snapshot.counter("cluster.worker.1.deaths"),
            stats.workers_lost);
  EXPECT_EQ(snapshot.counter("cluster.tasks"), 9u);
  EXPECT_EQ(snapshot.counter("cluster.subsets"), 9u);
  EXPECT_EQ(snapshot.counter("cluster.workers"), 2u);
  EXPECT_EQ(snapshot.counter("cluster.tasks_executed"), 9u);
  EXPECT_EQ(snapshot.counter("cluster.attempts"), stats.attempts);
  EXPECT_GT(snapshot.counter("cluster.frames_sent"), 0u);
  const auto gauge = snapshot.gauges.find("cluster.workers_alive");
  ASSERT_NE(gauge, snapshot.gauges.end());
  EXPECT_EQ(gauge->second, 0);  // all workers shut down at the end
  // Every link is pinged as it attaches, so each worker's first Pong gives
  // a round trip and a clock estimate even on a run this short.
  EXPECT_GT(stats.max_heartbeat_rtt_us, 0u);
  for (const char* worker : {"0", "1"}) {
    const std::string name =
        std::string("fleet.worker.") + worker + ".clock_rtt_ns";
    const auto rtt = snapshot.gauges.find(name);
    ASSERT_NE(rtt, snapshot.gauges.end()) << name;
    EXPECT_GT(rtt->second, 0) << name;
  }
}

// --------------------------------------------------------- fleet telemetry ----

/// Reads a whole file into a string; empty when the file cannot be opened.
std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ClusterTelemetry, FleetCountersSumToCoordinatorCommitsUnderLinkFaults) {
  // The fleet accounting invariant: the fleet.tasks_executed rollup (summed
  // worker-side counters, shipped over a faulted link with outbox replay
  // across reconnects) must equal the coordinator's committed-task count.
  // Disconnect faults heal by session reconnect, so no task is reassigned
  // or re-executed — which the test asserts as its own precondition; replay
  // after reconnect must then be idempotent, not double-counted.
  const auto moduli = make_moduli(230, 18);
  const auto reference = batchgcd::batch_gcd(moduli);
  obs::Telemetry telemetry;

  util::FaultConfig faults;
  faults.seed = 41;
  faults.conn_disconnect_probability = 0.04;
  const util::FaultInjector injector(faults);

  // k = 9: enough rows (fault draws) for the schedule to bite.
  auto config = fast_config(9, 2);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(5000);
  config.telemetry = &telemetry;
  config.telemetry_interval = std::chrono::milliseconds(10);
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  // Accounting precondition: every commit was executed exactly once.
  ASSERT_EQ(stats.tasks_reassigned, 0u);
  ASSERT_EQ(stats.task_timeouts, 0u);
  EXPECT_EQ(stats.tasks_executed, 9u);
  EXPECT_GT(stats.telemetry_snapshots, 0u);

  const auto snap = telemetry.metrics().snapshot();
  EXPECT_EQ(snap.counter("fleet.tasks_executed"), stats.tasks_executed);
  EXPECT_EQ(snap.counter("fleet.tasks_executed"),
            snap.counter("fleet.worker.0.tasks_executed") +
                snap.counter("fleet.worker.1.tasks_executed"));
  EXPECT_EQ(snap.counter("fleet.telemetry_snapshots"),
            stats.telemetry_snapshots);
  const auto reporting = snap.gauges.find("fleet.workers_reporting");
  ASSERT_NE(reporting, snap.gauges.end());
  EXPECT_EQ(reporting->second, 2);
}

TEST(ClusterTelemetry, MergedFleetTraceCoversEveryCommittedTask) {
  // The tentpole artifact: a run with fleet_trace_path set produces one
  // merged Chrome trace where every committed task contributes a
  // coordinator assign span plus the worker-side recv/compute/verify/send
  // spans. The fleet's metrics, each worker's clock estimate included, land
  // in the telemetry registry and nowhere else.
  const auto moduli = make_moduli(232, 14);
  const std::string trace_path = ::testing::TempDir() + "fleet_trace.json";
  std::remove(trace_path.c_str());

  obs::Telemetry telemetry;
  auto config = fast_config(3, 2);
  config.fleet_trace_path = trace_path;
  config.telemetry = &telemetry;
  config.telemetry_interval = std::chrono::milliseconds(10);
  ClusterStats stats;
  batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(stats.tasks_executed, 3u);
  EXPECT_GT(stats.telemetry_spans, 0u);

  const std::string trace = slurp(trace_path);
  ASSERT_FALSE(trace.empty()) << trace_path;
  // Chrome trace_event envelope with a lane per process.
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(trace.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"worker 1\""), std::string::npos);
  // One assign span per attempt, one worker span quartet per execution.
  EXPECT_EQ(count_occurrences(trace, "\"task.assign\""), stats.attempts);
  EXPECT_EQ(count_occurrences(trace, "\"task.recv\""), 3u);
  EXPECT_EQ(count_occurrences(trace, "\"task.compute\""), 3u);
  EXPECT_EQ(count_occurrences(trace, "\"task.verify\""), 3u);
  EXPECT_EQ(count_occurrences(trace, "\"task.send\""), 3u);
  // Worker spans carry the propagated trace context.
  EXPECT_NE(trace.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(trace.find("\"parent_span\""), std::string::npos);

  EXPECT_FALSE(std::filesystem::exists(trace_path + ".metrics.json"));
  const auto snap = telemetry.metrics().snapshot();
  for (const char* worker : {"0", "1"}) {
    const std::string prefix = std::string("fleet.worker.") + worker;
    EXPECT_EQ(snap.gauges.count(prefix + ".clock_offset_ns"), 1u) << prefix;
    const auto rtt = snap.gauges.find(prefix + ".clock_rtt_ns");
    ASSERT_NE(rtt, snap.gauges.end()) << prefix;
    EXPECT_GE(rtt->second, 0);
  }

  std::remove(trace_path.c_str());
}

// ----------------------------------------------------------- cancellation ----

TEST(Cluster, CancellationStopsTheRunAndKeepsTheJournal) {
  const auto moduli = make_moduli(211, 14);
  const std::string path = temp_checkpoint("cancel");
  std::remove(path.c_str());

  util::CancellationToken token;
  auto config = fast_config(3, 2);
  config.checkpoint_path = path;
  config.cancel = &token;
  token.cancel("test cancel");
  EXPECT_THROW(batch_gcd_cluster(moduli, config), util::Cancelled);

  // Journal (possibly empty of records) survives for resume.
  ClusterStats stats;
  auto resume = fast_config(3, 2);
  resume.checkpoint_path = path;
  const auto result = batch_gcd_cluster(moduli, resume, &stats);
  EXPECT_EQ(result.divisors, batchgcd::batch_gcd(moduli).divisors);
}

TEST(Cluster, CancelWakesTheIdleEventLoop) {
  // Every worker is parked in a long straggle and heartbeats are 5 s
  // apart, so the coordinator sits idle in poll(); a cancel must wake it
  // through the cancellation pipe instead of waiting for the next timer.
  const auto moduli = make_moduli(212, 14);
  util::FaultConfig faults;
  faults.seed = 3;
  faults.straggle_probability = 1.0;
  const util::FaultInjector injector(faults);
  obs::Telemetry telemetry;
  util::CancellationToken token;
  auto config = fast_config(3, 2);
  config.injector = &injector;
  config.task_timeout = std::chrono::seconds(60);  // workers straggle 90 s
  config.heartbeat_interval = std::chrono::seconds(5);
  config.telemetry = &telemetry;
  config.cancel = &token;
  const auto& attempts = telemetry.metrics().counter("cluster.attempts");
  std::chrono::steady_clock::time_point cancelled_at;
  std::thread canceller([&] {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(30);
    while (attempts.value() < 2 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // idle
    cancelled_at = std::chrono::steady_clock::now();
    token.cancel("test cancel");
  });
  EXPECT_THROW(batch_gcd_cluster(moduli, config), util::Cancelled);
  const auto ended = std::chrono::steady_clock::now();
  canceller.join();
  EXPECT_GE(attempts.value(), 2u);
  // Drain plus the 500 ms reap bound for the wedged workers, well inside
  // the 5 s a timer-paced loop would take to notice.
  EXPECT_LT(ended - cancelled_at, std::chrono::milliseconds(2500));
}

// ------------------------------------------------- sessions & streaming ----

// Every link is a session: fast_config's grace is its heartbeat silence
// budget, 25 ms x 8 = 200 ms, and no test sets anything else to heal.

TEST(ClusterSession, ReconnectHealsAbruptDisconnects) {
  // The tentpole invariant: deterministic abrupt disconnects on both sides
  // of every link, and the run heals by session reconnect — same vulnerable
  // set, no respawn storm.
  const auto moduli = make_moduli(220, 20);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 41;
  faults.conn_disconnect_probability = 0.04;
  const util::FaultInjector injector(faults);

  // k = 9: enough rows (fault draws) for the schedule to bite.
  auto config = fast_config(9, 2);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(1000);
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.conn_faults_injected + stats.reconnects, 0u);
  EXPECT_GT(stats.reconnects, 0u);
  EXPECT_EQ(stats.tasks_executed + stats.tasks_resumed, 9u);
}

TEST(ClusterSession, PartitionAndHalfOpenLinksHealWithinGrace) {
  // Timed partitions mute a link without closing it: the heartbeat deadline
  // declares the link lost, the shutdown() wakes the muted peer, and the
  // worker dials back into its session.
  const auto moduli = make_moduli(221, 18);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 43;
  faults.conn_partition_probability = 0.03;
  faults.conn_half_open_probability = 0.03;
  faults.conn_partition_ms = 400;
  const util::FaultInjector injector(faults);

  // k = 9: enough rows (fault draws) for the schedule to bite.
  auto config = fast_config(9, 2);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(1500);
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.conn_faults_injected, 0u);
  EXPECT_EQ(stats.tasks_executed + stats.tasks_resumed, 9u);
}

TEST(ClusterSession, SigkilledWorkerIsRespawnedWithoutWaitingOutGrace) {
  // A SIGKILLed local worker cannot dial back, and the coordinator sees its
  // exit: the slot respawns at once instead of holding the session for a
  // grace window (10 s here) that no run this size comes near.
  const auto moduli = make_moduli(222, 16);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 47;
  faults.sigkill_probability = 0.2;
  const util::FaultInjector injector(faults);

  // k = 9: enough rows (fault draws) for the schedule to bite.
  auto config = fast_config(9, 2);
  config.heartbeat_misses = 400;  // 25 ms x 400 = 10 s of grace
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(600);
  ClusterStats stats;
  const auto started = std::chrono::steady_clock::now();
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.sigkills_injected, 0u);
  EXPECT_GT(stats.respawns, 0u);
  EXPECT_EQ(stats.sessions_expired, 0u);
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(ClusterStream, SmallChunksStreamPayloadsWithBackpressure) {
  // Tiny chunks force every payload through the windowed go-back-N path;
  // the output must not care.
  const auto moduli = make_moduli(223, 40);
  const auto reference = batchgcd::batch_gcd(moduli);

  auto config = fast_config(2, 2);
  config.stream_chunk_bytes = 64;
  config.stream_window_chunks = 2;
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  // Far more chunk frames than payloads: the payloads were actually split.
  EXPECT_GT(stats.stream_chunks_sent, 2u * 2u * 2u);
  EXPECT_EQ(stats.reconnects, 0u);
}

TEST(ClusterStream, OnlySubsetsCrossTheWire) {
  // Workers derive every product from the subsets they hold, so one
  // worker needs exactly the k subset payloads — one chunk each when a
  // chunk holds a whole payload — and no product payload at all.
  const auto moduli = make_moduli(225, 20);
  auto config = fast_config(3, 1);
  config.stream_chunk_bytes = 1 << 20;  // beyond any subset's encoding
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, batchgcd::batch_gcd(moduli).divisors);
  EXPECT_EQ(stats.tasks_executed, 3u);
  EXPECT_EQ(stats.stream_chunks_sent, 3u);
  EXPECT_EQ(stats.stream_resumes, 0u);
}

TEST(ClusterStream, MidStreamDisconnectResumesTransfer) {
  // Disconnects landing inside a chunked transfer: after the reconnect the
  // sender rewinds to the acked prefix (counted as a stream resume) instead
  // of re-shipping or corrupting the payload.
  const auto moduli = make_moduli(224, 40);
  const auto reference = batchgcd::batch_gcd(moduli);

  util::FaultConfig faults;
  faults.seed = 61;
  faults.conn_disconnect_probability = 0.05;
  const util::FaultInjector injector(faults);

  auto config = fast_config(2, 2);
  config.injector = &injector;
  config.stream_chunk_bytes = 64;
  config.stream_window_chunks = 2;
  config.task_timeout = std::chrono::milliseconds(1500);
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_GT(stats.reconnects, 0u);
  EXPECT_GT(stats.stream_resumes, 0u);
}

// ---------------------------------------------------- remote dial-in e2e ----

/// Dials the coordinator's listen port from the test process.
util::net::UniqueFd dial(std::uint16_t port) {
  return util::net::UniqueFd(util::net::connect_tcp(
      "127.0.0.1", port, std::chrono::milliseconds(2000)));
}

/// True when the peer closes `fd` within `timeout` without having sent a
/// single byte.
bool closed_without_reply(int fd, std::chrono::milliseconds timeout) {
  char byte = 0;
  return util::net::wait_readable(fd, timeout) && ::recv(fd, &byte, 1, 0) <= 0;
}

TEST(ClusterRemote, SilentAndHalfFrameConnectionsDoNotStallTheRun) {
  // Connections that never finish a Hello — one silent, one stalled after
  // half a frame header — must not wedge the coordinator: the run finishes
  // with the reference divisors and both connections get closed.
  const auto moduli = make_moduli(226, 16);
  const auto reference = batchgcd::batch_gcd(moduli);

  auto config = fast_config(3, 2);
  util::net::UniqueFd silent;
  util::net::UniqueFd half_frame;
  config.on_listen = [&](std::uint16_t port) {
    silent = dial(port);
    half_frame = dial(port);
    const std::uint8_t partial_header[3] = {0x10, 0x00, 0x00};
    util::net::write_full(half_frame.get(), partial_header,
                          sizeof partial_header);
  };
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_EQ(stats.tasks_executed, 3u);
  ASSERT_TRUE(silent.valid());
  ASSERT_TRUE(half_frame.valid());
  EXPECT_TRUE(closed_without_reply(silent.get(), std::chrono::seconds(2)));
  EXPECT_TRUE(
      closed_without_reply(half_frame.get(), std::chrono::seconds(2)));
}

TEST(ClusterRemote, MaxLengthHeadersDoNotCommitMemory) {
  // Dial-ins that each announce a kMaxFrameBytes (256 MiB) frame and then
  // stall: the decoder buffers what arrives, not what a header claims, so
  // the coordinator's peak RSS barely moves, the run finishes and every
  // connection is closed.
  const auto moduli = make_moduli(232, 16);
  const auto reference = batchgcd::batch_gcd(moduli);

  auto config = fast_config(3, 2);
  std::vector<util::net::UniqueFd> stalled;
  config.on_listen = [&](std::uint16_t port) {
    std::uint8_t header[8] = {};
    const std::uint32_t length = kMaxFrameBytes;
    std::memcpy(header, &length, 4);
    for (int i = 0; i < 4; ++i) {
      stalled.push_back(dial(port));
      util::net::write_full(stalled.back().get(), header, sizeof header);
    }
  };
  const auto before = obs::sample_proc_self();
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  const auto after = obs::sample_proc_self();
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_EQ(stats.tasks_executed, 3u);
  ASSERT_EQ(stalled.size(), 4u);
  for (const auto& fd : stalled) {
    EXPECT_TRUE(closed_without_reply(fd.get(), std::chrono::seconds(2)));
  }
  if (before.peak_rss_available && after.peak_rss_available) {
    EXPECT_LT(after.peak_rss_kb - before.peak_rss_kb, 64 * 1024);
  }
}

TEST(ClusterRemote, HelloWithOtherProtocolVersionIsRefused) {
  // Hello is input from outside the program: dial-ins claiming the remote
  // slot with any version but kProtocolVersion are closed without a byte
  // of reply, and the slot stays free for the real worker dialing after.
  const auto moduli = make_moduli(231, 14);
  const auto reference = batchgcd::batch_gcd(moduli);

  auto config = fast_config(3, 0);
  config.remote_workers = 1;
  config.worker_binary.clear();
  config.restart_budget = 0;  // an attached impostor would end the run
  std::vector<util::net::UniqueFd> impostors;
  pid_t worker = -1;
  config.on_listen = [&](std::uint16_t port) {
    for (const std::uint32_t version :
         {kProtocolVersion - 1, kProtocolVersion + 1}) {
      impostors.push_back(dial(port));
      FrameConn conn(impostors.back().get(), 0);
      const HelloMsg hello{0, static_cast<std::uint64_t>(::getpid()),
                           version};
      conn.send(MsgType::kHello, hello.encode());
    }
    const std::string bin = worker_binary();
    const std::string hostport = "127.0.0.1:" + std::to_string(port);
    worker = ::fork();
    ASSERT_GE(worker, 0);
    if (worker == 0) {
      ::execl(bin.c_str(), bin.c_str(), "--connect", hostport.c_str(),
              "--worker-id", "0", static_cast<char*>(nullptr));
      ::_exit(127);
    }
  };
  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_EQ(stats.tasks_executed, 3u);
  ASSERT_GT(worker, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(worker, &status, 0), worker);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(impostors.size(), 2u);
  for (const auto& fd : impostors) {
    ASSERT_TRUE(fd.valid());
    EXPECT_TRUE(closed_without_reply(fd.get(), std::chrono::seconds(2)));
  }
}

/// How many connections to the listener on `port` hold bytes nobody has
/// read yet (a dialed worker's Hello), from /proc/net/tcp: ESTABLISHED
/// rows whose local port is `port` and whose rx_queue is non-zero. A
/// connection still in the accept queue is listed too.
std::size_t unread_dialins(std::uint16_t port) {
  std::ifstream table("/proc/net/tcp");
  std::string line;
  std::getline(table, line);  // column titles
  std::size_t count = 0;
  while (std::getline(table, line)) {
    std::istringstream row(line);
    std::string slot, local, remote, state, queues;
    row >> slot >> local >> remote >> state >> queues;
    const auto port_at = local.find(':');
    const auto rx_at = queues.find(':');
    if (state != "01" || port_at == std::string::npos ||
        rx_at == std::string::npos) {
      continue;
    }
    if (std::stoul(local.substr(port_at + 1), nullptr, 16) == port &&
        std::stoul(queues.substr(rx_at + 1), nullptr, 16) > 0) {
      ++count;
    }
  }
  return count;
}

TEST(ClusterRemote, DialInWorkersMatchBatchGcd) {
  // workers = 0, remote_workers = 2: the coordinator spawns nothing; this
  // test plays the operator, dialing two gcd_worker processes into the
  // advertised port. Shutdown must reach them (exit 0) and the output must
  // match the single-process reference.
  const auto moduli = make_moduli(225, 20);
  const auto reference = batchgcd::batch_gcd(moduli);

  auto config = fast_config(3, 0);
  config.workers = 0;
  config.remote_workers = 2;
  config.worker_binary.clear();  // nothing to spawn, nothing to validate

  std::vector<pid_t> pids;
  config.on_listen = [&pids](std::uint16_t port) {
    const std::string bin = worker_binary();
    const std::string hostport = "127.0.0.1:" + std::to_string(port);
    for (int i = 0; i < 2; ++i) {
      const std::string id = std::to_string(i);
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        ::execl(bin.c_str(), bin.c_str(), "--connect", hostport.c_str(),
                "--worker-id", id.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);
      }
      pids.push_back(pid);
    }
    // The event loop starts when this returns. Holding it until both Hellos
    // wait in their sockets makes the coordinator attach both workers in
    // its first turns, before any task is assigned; otherwise one worker
    // could finish the whole job before the other dials a closed listener.
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(30);
    while (unread_dialins(port) < 2) {
      if (std::chrono::steady_clock::now() > give_up) {
        ADD_FAILURE() << "both workers did not dial in within 30 s";
        return;
      }
      std::this_thread::yield();
    }
  };

  ClusterStats stats;
  const auto result = batch_gcd_cluster(moduli, config, &stats);
  EXPECT_EQ(result.divisors, reference.divisors);
  EXPECT_EQ(stats.tasks_executed + stats.tasks_resumed, 3u);

  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status)) << "worker " << pid << " did not exit";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "worker " << pid;
  }
}

}  // namespace
}  // namespace weakkeys::cluster
