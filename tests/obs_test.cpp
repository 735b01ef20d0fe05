// Unit tests for the obs/ telemetry subsystem: metrics instruments, the
// span tracer (including multi-threaded use under the thread pool), the
// Chrome trace exporter, and process self-metrics.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/proc_stats.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/json_lite.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys {
namespace {

// ------------------------------------------------------------- metrics ----

TEST(Counter, IncSetAndValue) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.set(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(Counter, OverflowWrapsModulo64Bits) {
  obs::Counter c;
  c.set(std::numeric_limits<std::uint64_t>::max());
  c.inc(2);  // unsigned wrap is defined behavior, not UB
  EXPECT_EQ(c.value(), 1u);
}

TEST(Gauge, SetAddAndNegativeValues) {
  obs::Gauge g;
  g.set(10);
  g.add(-25);
  EXPECT_EQ(g.value(), -15);
}

TEST(MetricsRegistry, InstrumentReferencesAreStable) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("stable.counter");
  a.inc(3);
  // Creating more instruments must not invalidate earlier references.
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&registry.counter("stable.counter"), &a);
  EXPECT_EQ(registry.counter("stable.counter").value(), 3u);
}

TEST(MetricsRegistry, SnapshotReportsAllInstruments) {
  obs::MetricsRegistry registry;
  registry.counter("c.one").inc(11);
  registry.gauge("g.depth").set(-4);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("c.one"), 11u);
  EXPECT_EQ(snap.counter("c.never_touched"), 0u);
  EXPECT_EQ(snap.gauges.at("g.depth"), -4);
}

TEST(MetricsRegistry, ToJsonParsesAndRoundTripsValues) {
  obs::MetricsRegistry registry;
  registry.counter("ingest.drop.even-modulus").inc(5);
  registry.gauge("queue").set(-2);
  const auto doc = jsonlite::parse(registry.to_json());
  EXPECT_EQ(doc.at("counters").at("ingest.drop.even-modulus").integer(), 5);
  EXPECT_EQ(doc.at("gauges").at("queue").integer(), -2);
  EXPECT_EQ(doc.object().size(), 2u);  // counters and gauges only
}

// --------------------------------------------------------------- tracer ----

TEST(Tracer, SpansNestAndSortParentFirst) {
  obs::Tracer tracer;
  {
    obs::Span outer = tracer.span("outer");
    {
      obs::Span middle = tracer.span("middle");
      obs::Span inner = tracer.span("inner");
      inner.arg("k", 42);
    }
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // Sorted (tid, start, -dur): parents precede their children.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 2u);
  // Parent intervals contain their children.
  EXPECT_LE(events[0].ts_us, events[2].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us,
            events[2].ts_us + events[2].dur_us);
  ASSERT_EQ(events[2].args.size(), 1u);
  EXPECT_EQ(events[2].args[0].first, "k");
  EXPECT_EQ(events[2].args[0].second, 42);
}

TEST(Tracer, ExplicitEndIsIdempotent) {
  obs::Tracer tracer;
  obs::Span span = tracer.span("once");
  span.end();
  span.end();
  EXPECT_EQ(tracer.events().size(), 1u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  obs::Tracer tracer(/*enabled=*/false);
  {
    obs::Span span = tracer.span("ghost");
    span.arg("x", 1);
  }
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(obs::chrome_trace_json(tracer.events()).find("ghost"),
            std::string::npos);
}

TEST(Tracer, ParallelForSpansStayCoherentAcrossThreads) {
  obs::Telemetry telemetry;
  util::ThreadPool pool(4, &telemetry);
  constexpr std::size_t kTasks = 64;
  {
    obs::Span outer = telemetry.tracer().span("parallel.outer");
    pool.parallel_for(kTasks, [&](std::size_t i) {
      obs::Span task = telemetry.tracer().span("parallel.task");
      task.arg("i", static_cast<std::int64_t>(i));
    });
  }
  const auto events = telemetry.tracer().events();
  std::size_t tasks = 0;
  std::set<std::uint32_t> tids;
  std::set<std::int64_t> indices;
  std::map<std::uint32_t, std::uint64_t> last_ts;
  for (const auto& e : events) {
    tids.insert(e.tid);
    // events() orders each thread's timeline; starts must be monotonic.
    const auto it = last_ts.find(e.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts_us, it->second);
    }
    last_ts[e.tid] = e.ts_us;
    if (e.name == "parallel.task") {
      ++tasks;
      ASSERT_EQ(e.args.size(), 1u);
      indices.insert(e.args[0].second);
    }
  }
  EXPECT_EQ(tasks, kTasks);
  EXPECT_EQ(indices.size(), kTasks);  // every index seen exactly once
  EXPECT_EQ(events.size(), kTasks + 1);
  EXPECT_GE(tids.size(), 1u);

  // The pool's instruments saw every task too.
  const auto snap = telemetry.metrics().snapshot();
  EXPECT_EQ(snap.counter("threadpool.tasks_completed"),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(snap.gauges.at("threadpool.queue_depth"), 0);
}

TEST(Tracer, ChromeTraceJsonIsValidAndMonotonicPerThread) {
  obs::Telemetry telemetry;
  util::ThreadPool pool(3, &telemetry);
  {
    obs::Span outer = telemetry.tracer().span("chrome.outer");
    pool.parallel_for(32, [&](std::size_t i) {
      obs::Span task = telemetry.tracer().span("chrome.task");
      task.arg("i", static_cast<std::int64_t>(i));
    });
  }
  const auto doc = jsonlite::parse(
      obs::chrome_trace_json(telemetry.tracer().events()));
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
  const auto& trace_events = doc.at("traceEvents").array();
  ASSERT_EQ(trace_events.size(), 33u);
  std::map<std::int64_t, double> last_ts;
  for (const auto& e : trace_events) {
    EXPECT_EQ(e.at("ph").str(), "X");
    EXPECT_EQ(e.at("cat").str(), "weakkeys");
    EXPECT_EQ(e.at("pid").integer(), 1);
    EXPECT_FALSE(e.at("name").str().empty());
    EXPECT_GE(e.at("dur").number(), 0.0);
    const std::int64_t tid = e.at("tid").integer();
    const double ts = e.at("ts").number();
    // File order is per-thread timeline order: ts monotonic within a tid.
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts[tid] = ts;
  }
}

// ----------------------------------------------------------- telemetry ----

TEST(Telemetry, WriteTraceFilesEmitsValidJsonPair) {
  const std::string path =
      "obs_trace_test_" + std::to_string(::getpid()) + ".json";
  obs::Telemetry telemetry;
  telemetry.metrics().counter("demo.counter").inc(3);
  {
    obs::Span span = telemetry.tracer().span("demo.span");
  }
  ASSERT_TRUE(telemetry.write_trace_files(path));
  for (const std::string& file : {path, path + ".metrics.json"}) {
    std::ifstream in(file);
    ASSERT_TRUE(in.good()) << file;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NO_THROW(jsonlite::parse(text)) << file;
  }
  const auto trace = jsonlite::parse([&] {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }());
  EXPECT_EQ(trace.at("traceEvents").array().size(), 1u);
  std::remove(path.c_str());
  std::remove((path + ".metrics.json").c_str());
}

// ---------------------------------------------------------- json_escape ----

TEST(JsonEscape, ControlCharsQuotesAndBackslashesStayParseable) {
  // Hostile name: every escape class at once — quote, backslash, the named
  // control chars, and raw low control bytes that need \uXXXX.
  const std::string hostile = "a\"b\\c\nd\re\tf\x01g\x1f h";
  const std::string escaped = obs::json_escape(hostile);
  // No raw control byte survives into the JSON text.
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
  EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
  // Embedded in a document, it parses back to the original bytes.
  const auto doc = jsonlite::parse("{\"k\":\"" + escaped + "\"}");
  EXPECT_EQ(doc.at("k").str(), hostile);
}

TEST(JsonEscape, HostileSpanNamesAndArgsYieldParseableChromeTrace) {
  // A span name and arg key chosen to break naive JSON emitters must still
  // produce a chrome_trace_json that a strict parser accepts.
  obs::Tracer tracer;
  {
    obs::Span span = tracer.span("evil\"span\\\n\x02name");
    span.arg("arg\"key\twith\x03junk", 7);
  }
  const auto doc =
      jsonlite::parse(obs::chrome_trace_json(tracer.events()));
  const auto& events = doc.at("traceEvents").array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("name").str(), "evil\"span\\\n\x02name");
  EXPECT_EQ(events[0].at("args").at("arg\"key\twith\x03junk").integer(), 7);
}

// --------------------------------------------------- clock offset & fleet ----

TEST(ClockOffsetEstimator, RecoversKnownSkewUnderSymmetricDelay) {
  // Remote clock = local clock + 5 ms. The remote sample lands exactly at
  // the RTT midpoint, so the midpoint method recovers the skew exactly.
  constexpr std::int64_t kSkewNs = 5'000'000;
  obs::ClockOffsetEstimator est;
  EXPECT_FALSE(est.valid());
  EXPECT_EQ(est.rebase(42), 42);  // identity until an observation arrives

  const std::int64_t send = 1'000'000;
  const std::int64_t recv = 1'002'000;  // RTT 2 us... ns scale: 2000 ns
  const std::int64_t midpoint = (send + recv) / 2;
  est.observe(send, recv, midpoint + kSkewNs);
  ASSERT_TRUE(est.valid());
  EXPECT_EQ(est.offset_ns(), kSkewNs);
  EXPECT_EQ(est.best_rtt_ns(), recv - send);
  EXPECT_EQ(est.rebase(midpoint + kSkewNs), midpoint);
}

TEST(ClockOffsetEstimator, AsymmetricDelayErrorIsBoundedByHalfRtt) {
  // Forward path 100 ns, return path 900 ns: the remote sample is taken
  // well before the midpoint, so the estimate is off — but by no more than
  // RTT/2, the method's guaranteed bound.
  constexpr std::int64_t kSkewNs = 1'000'000;
  obs::ClockOffsetEstimator est;
  const std::int64_t send = 0;
  const std::int64_t remote_sample_local = 100;  // after the 100 ns hop
  const std::int64_t recv = 1000;                // + 900 ns return hop
  est.observe(send, recv, remote_sample_local + kSkewNs);
  ASSERT_TRUE(est.valid());
  const std::int64_t error = est.offset_ns() - kSkewNs;
  EXPECT_LE(error < 0 ? -error : error, est.best_rtt_ns() / 2);
}

TEST(ClockOffsetEstimator, KeepsTheMinimumRttObservation) {
  obs::ClockOffsetEstimator est;
  est.observe(0, 1000, 500 + 111);     // RTT 1000, offset 111
  est.observe(0, 10000, 5000 + 999);   // worse RTT: ignored
  EXPECT_EQ(est.offset_ns(), 111);
  EXPECT_EQ(est.best_rtt_ns(), 1000);
  est.observe(0, 400, 200 + 77);       // tighter RTT: adopted
  EXPECT_EQ(est.offset_ns(), 77);
  EXPECT_EQ(est.best_rtt_ns(), 400);
}

namespace {

/// A worker snapshot whose spans are stamped on a skewed worker clock:
/// the worker's steady clock reads coordinator_time + skew.
obs::FleetSnapshot make_snapshot(std::uint32_t worker, std::uint64_t seq,
                                 std::uint64_t first_span_index,
                                 std::int64_t worker_epoch_ns) {
  obs::FleetSnapshot snap;
  snap.worker_id = worker;
  snap.seq = seq;
  snap.first_span_index = first_span_index;
  snap.trace_epoch_ns = worker_epoch_ns;
  return snap;
}

}  // namespace

TEST(FleetAggregator, RebasesWorkerSpansIntoTheCoordinatorTimeline) {
  obs::FleetAggregator fleet(nullptr, /*trace_enabled=*/true);
  ASSERT_NE(fleet.trace_id(), 0u);
  const std::int64_t epoch = fleet.epoch_ns();
  constexpr std::int64_t kSkewNs = 7'000'000;  // worker clock runs ahead

  // One exact clock observation: worker_now sampled at the RTT midpoint.
  fleet.observe_clock(0, epoch, epoch + 2000, epoch + 1000 + kSkewNs);

  // Coordinator assign span: [1 ms, 10 ms] on the coordinator clock.
  const std::uint64_t span =
      fleet.begin_assign(/*task=*/3, /*worker=*/0, /*attempt=*/0,
                         epoch + 1'000'000);
  ASSERT_NE(span, 0u);
  fleet.end_assign(span, epoch + 10'000'000, /*committed=*/true);

  // Worker compute span at coordinator time [2 ms, 5 ms], but stamped on
  // the worker clock: its epoch is the skewed image of the coordinator's.
  auto snap = make_snapshot(0, 1, 0, epoch + kSkewNs);
  obs::TraceEvent compute;
  compute.name = "task.compute";
  compute.ts_us = 2000;
  compute.dur_us = 3000;
  snap.spans = {compute};
  EXPECT_EQ(fleet.ingest(snap), 1u);

  const auto events = fleet.events();
  ASSERT_EQ(events.size(), 2u);
  // Coordinator lane first, then the worker lane; both on one timeline.
  EXPECT_EQ(events[0].pid, obs::FleetAggregator::kCoordinatorPid);
  EXPECT_EQ(events[0].name, "task.assign");
  EXPECT_EQ(events[0].ts_us, 1000u);
  EXPECT_EQ(events[0].dur_us, 9000u);
  EXPECT_EQ(events[1].pid, obs::FleetAggregator::kWorkerPidBase + 0);
  EXPECT_EQ(events[1].name, "task.compute");
  // The 7 ms skew is gone: the span rebased to its true coordinator time
  // and nests causally inside the assign window.
  EXPECT_EQ(events[1].ts_us, 2000u);
  EXPECT_GE(events[1].ts_us, events[0].ts_us);
  EXPECT_LE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us);
}

TEST(FleetAggregator, ReplayAndRespawnKeepCountersAndSpansExact) {
  obs::MetricsRegistry registry;
  obs::FleetAggregator fleet(&registry, /*trace_enabled=*/true);
  fleet.on_worker_fresh(4);

  auto snap = make_snapshot(4, 1, 0, 0);
  snap.counters = {{"tasks_executed", 3}};
  snap.rss_kb = 1024;
  obs::TraceEvent span;
  span.name = "task.compute";
  span.ts_us = 5;
  span.dur_us = 1;
  snap.spans = {span, span};
  EXPECT_EQ(fleet.ingest(snap), 2u);
  // An outbox replay of the same snapshot: spans below the dedup
  // high-water are skipped, and the absolute counter re-lands harmlessly.
  EXPECT_EQ(fleet.ingest(snap), 0u);

  auto snap2 = make_snapshot(4, 2, 2, 0);
  snap2.counters = {{"tasks_executed", 5}};  // absolute, not a delta
  snap2.spans = {span};
  EXPECT_EQ(fleet.ingest(snap2), 1u);

  auto metrics = registry.snapshot();
  EXPECT_EQ(metrics.counter("fleet.worker.4.tasks_executed"), 5u);
  EXPECT_EQ(metrics.counter("fleet.tasks_executed"), 5u);
  EXPECT_EQ(metrics.gauges.at("fleet.worker.4.rss_kb"), 1024);

  // Respawn: the incarnation's totals fold into the base; the fresh
  // incarnation restarts its absolute counters and span indices from zero.
  fleet.on_worker_fresh(4);
  auto snap3 = make_snapshot(4, 1, 0, 0);
  snap3.counters = {{"tasks_executed", 2}};
  snap3.spans = {span};
  EXPECT_EQ(fleet.ingest(snap3), 1u);

  metrics = registry.snapshot();
  EXPECT_EQ(metrics.counter("fleet.worker.4.tasks_executed"), 7u);
  EXPECT_EQ(metrics.counter("fleet.tasks_executed"), 7u);
  EXPECT_EQ(metrics.gauges.at("fleet.workers_reporting"), 1);
  // Every ingest call counts, the replay included.
  EXPECT_EQ(metrics.counter("fleet.telemetry_snapshots"), 4u);
  EXPECT_EQ(metrics.gauges.at("fleet.rss_kb"), 1024);
}

TEST(FleetAggregator, HostileNamesStillEmitParseableJson) {
  obs::MetricsRegistry registry;
  obs::FleetAggregator fleet(&registry, /*trace_enabled=*/true);
  const std::uint64_t span =
      fleet.begin_assign(1, 0, 0, fleet.epoch_ns());
  fleet.end_assign(span, fleet.epoch_ns() + 1000, true);

  auto snap = make_snapshot(0, 1, 0, fleet.epoch_ns());
  obs::TraceEvent evil;
  evil.name = "span\"\\\n\x1bname";
  evil.args = {{"arg\"key\n", 9}};
  snap.spans = {evil};
  snap.counters = {{"cnt\"with\tjunk", 2}};
  fleet.ingest(snap);

  const auto trace = jsonlite::parse(fleet.chrome_trace_json());
  bool found = false;
  for (const auto& e : trace.at("traceEvents").array()) {
    if (e.at("ph").str() != "X") continue;
    if (e.at("name").str() == "span\"\\\n\x1bname") {
      found = true;
      EXPECT_EQ(e.at("args").at("arg\"key\n").integer(), 9);
    }
  }
  EXPECT_TRUE(found);

  // The fleet's metrics live in the registry; its JSON survives the names.
  const auto metrics = jsonlite::parse(registry.to_json());
  EXPECT_EQ(
      metrics.at("counters").at("fleet.worker.0.cnt\"with\tjunk").integer(),
      2);
  EXPECT_EQ(metrics.at("gauges").at("fleet.workers_reporting").integer(), 1);
}

TEST(FleetAggregator, PublishesEachWorkersClockOffsetAndRtt) {
  obs::MetricsRegistry registry;
  obs::FleetAggregator fleet(&registry, /*trace_enabled=*/false);
  // Worker 2's clock runs 5 ms ahead; the 400 ns round trip bounds the
  // estimate's error at 200 ns.
  fleet.observe_clock(2, 1000, 1400, 1200 + 5'000'000);
  fleet.ingest(make_snapshot(2, 1, 0, 0));
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.gauges.at("fleet.worker.2.clock_offset_ns"), 5'000'000);
  EXPECT_EQ(snap.gauges.at("fleet.worker.2.clock_rtt_ns"), 400);
}


// ------------------------------------------------ process self-metrics ----

TEST(ProcStats, SamplesRssAndCpuWhereAvailable) {
  const auto stats = obs::sample_proc_self();
#if defined(__linux__)
  ASSERT_TRUE(stats.rss_available);
  EXPECT_GT(stats.rss_kb, 0u);
  EXPECT_GE(stats.peak_rss_kb, stats.rss_kb);
#endif
#if defined(__unix__) || defined(__APPLE__)
  ASSERT_TRUE(stats.cpu_available);
#endif
  if (!stats.rss_available) {
    EXPECT_EQ(stats.rss_kb, 0u);  // graceful no-op elsewhere
  }
}

TEST(ProcStats, RecordsIntoTheRegistry) {
  obs::MetricsRegistry registry;
  obs::record_proc_self(registry);
  const auto snap = registry.snapshot();
#if defined(__linux__)
  ASSERT_TRUE(snap.gauges.count("process.rss_kb"));
  EXPECT_GT(snap.gauges.at("process.rss_kb"), 0);
  ASSERT_TRUE(snap.gauges.count("process.peak_rss_kb"));
#endif
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(snap.counters.count("process.cpu_user_us"));
  EXPECT_TRUE(snap.counters.count("process.cpu_sys_us"));
#endif
}

}  // namespace
}  // namespace weakkeys
