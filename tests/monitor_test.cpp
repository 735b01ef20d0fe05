// Unit tests for the live-run monitor stack: histogram quantile estimation,
// rate/ETA derivation (including counter-overflow wrap), the JSONL snapshot
// schema, the Monitor background thread, process self-metrics, and the
// exit-flush registry.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/monitor.hpp"
#include "obs/proc_stats.hpp"
#include "obs/telemetry.hpp"
#include "util/json_lite.hpp"

namespace weakkeys {
namespace {

using obs::MetricsSnapshot;

std::string temp_path(const std::string& stem) {
  return stem + "_" + std::to_string(::getpid()) + ".tmp";
}

// -- histogram quantiles -----------------------------------------------------

MetricsSnapshot::HistogramValue recorded(
    std::vector<std::uint64_t> bounds,
    const std::vector<std::uint64_t>& samples) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("h", std::move(bounds));
  for (const std::uint64_t v : samples) h.record(v);
  return registry.snapshot().histograms.at("h");
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  const auto h = recorded({10, 20}, {});
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(HistogramQuantile, UniformDistributionLandsOnExactQuantiles) {
  // 1..100 into four equal buckets: linear interpolation reproduces the
  // population quantiles exactly.
  std::vector<std::uint64_t> samples;
  for (std::uint64_t v = 1; v <= 100; ++v) samples.push_back(v);
  const auto h = recorded({25, 50, 75, 100}, samples);
  EXPECT_DOUBLE_EQ(h.p50(), 50.0);
  EXPECT_DOUBLE_EQ(h.p90(), 90.0);
  EXPECT_DOUBLE_EQ(h.p99(), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 25.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(HistogramQuantile, InterpolatesWithinASingleBucket) {
  // Ten samples of 7 all land in the 0..10 bucket; the estimator can only
  // interpolate within the bucket: the median estimate is its midpoint.
  const auto h = recorded({10, 20}, std::vector<std::uint64_t>(10, 7));
  EXPECT_DOUBLE_EQ(h.p50(), 5.0);
}

TEST(HistogramQuantile, NeverExceedsObservedMax) {
  // A single sample of 3 in a 0..1000 bucket: interpolation would say 1000
  // for q=1, but no recorded sample exceeded 3.
  const auto h = recorded({1000}, {3});
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
  EXPECT_LE(h.p50(), 3.0);
}

TEST(HistogramQuantile, OverflowBucketInterpolatesUpToMax) {
  // 5 below the only bound; 100 and 200 in the overflow bucket whose honest
  // upper edge is the observed max (200).
  const auto h = recorded({10}, {5, 100, 200});
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 200.0);
  // rank(0.5) = 1.5: half-way through the overflow bucket's first sample,
  // lerped across [10, 200].
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0 + 0.25 * 190.0);
}

// -- rate / ETA derivation ---------------------------------------------------

TEST(RateDerivation, RatesFromMonotonicDeltas) {
  EXPECT_DOUBLE_EQ(obs::rate_per_sec(1000, 1'000'000), 1000.0);
  EXPECT_DOUBLE_EQ(obs::rate_per_sec(5, 500'000), 10.0);
  EXPECT_DOUBLE_EQ(obs::rate_per_sec(0, 1'000'000), 0.0);
  // An empty interval yields no rate rather than a division by zero.
  EXPECT_DOUBLE_EQ(obs::rate_per_sec(42, 0), 0.0);
}

TEST(RateDerivation, CounterWrapYieldsSmallPositiveDelta) {
  // A counter 5 short of 2^64 that advances by 10 wraps to 4; unsigned
  // subtraction still recovers the true delta, so the derived rate is the
  // honest small positive number — never negative, never ~2^64.
  const std::uint64_t prev = std::numeric_limits<std::uint64_t>::max() - 4;
  obs::MetricsRegistry registry;
  auto& c = registry.counter("wrap");
  c.set(prev);
  c.inc(10);
  const std::uint64_t cur = registry.snapshot().counter("wrap");
  EXPECT_EQ(cur, 5u);  // wrapped past 2^64
  EXPECT_EQ(obs::counter_delta(prev, cur), 10u);
  EXPECT_DOUBLE_EQ(obs::rate_per_sec(obs::counter_delta(prev, cur), 1'000'000),
                   10.0);
}

TEST(RateDerivation, EtaSemantics) {
  EXPECT_DOUBLE_EQ(obs::eta_seconds(50, 100, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(obs::eta_seconds(100, 100, 10.0), 0.0);  // done
  EXPECT_DOUBLE_EQ(obs::eta_seconds(101, 100, 10.0), 0.0);  // overshot
  EXPECT_LT(obs::eta_seconds(50, 100, 0.0), 0.0);  // stalled: unknowable
}

// -- JSONL snapshot schema ---------------------------------------------------

TEST(MonitorSnapshotJson, FirstTickHasCountersButNoDeltas) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").inc(5);
  registry.gauge("g.depth").set(-2);
  registry.histogram("h_us", {10, 100}).record(7);
  const auto snap = registry.snapshot();

  const auto doc = jsonlite::parse(obs::monitor_snapshot_json(
      snap, nullptr, 0, 1234, 0, 1700000000000, false));
  EXPECT_EQ(doc.at("seq").integer(), 0);
  EXPECT_FALSE(doc.at("final").boolean());
  EXPECT_EQ(doc.at("wall_unix_ms").integer(), 1700000000000);
  EXPECT_EQ(doc.at("elapsed_us").integer(), 1234);
  EXPECT_EQ(doc.at("counters").at("a.count").integer(), 5);
  EXPECT_EQ(doc.at("gauges").at("g.depth").integer(), -2);
  EXPECT_TRUE(doc.at("deltas").object().empty());
  EXPECT_TRUE(doc.at("rates_per_s").object().empty());
  const auto& h = doc.at("histograms").at("h_us");
  EXPECT_EQ(h.at("count").integer(), 1);
  EXPECT_EQ(h.at("max").integer(), 7);
  EXPECT_GT(h.at("p50").number(), 0.0);
}

TEST(MonitorSnapshotJson, DeltasAndRatesOnlyForMovedCounters) {
  obs::MetricsRegistry registry;
  registry.counter("moving").inc(5);
  registry.counter("idle").inc(3);
  const auto prev = registry.snapshot();
  registry.counter("moving").inc(20);
  const auto cur = registry.snapshot();

  const auto doc = jsonlite::parse(obs::monitor_snapshot_json(
      cur, &prev, 3, 2'000'000, 1'000'000, 1700000000500, true));
  EXPECT_TRUE(doc.at("final").boolean());
  EXPECT_EQ(doc.at("deltas").at("moving").integer(), 20);
  EXPECT_FALSE(doc.at("deltas").has("idle"));
  EXPECT_DOUBLE_EQ(doc.at("rates_per_s").at("moving").number(), 20.0);
  // The cumulative block still carries every counter.
  EXPECT_EQ(doc.at("counters").at("idle").integer(), 3);
}

// -- the monitor thread ------------------------------------------------------

TEST(Monitor, WritesJsonlSeriesClosingOnRegistryTotals) {
  const std::string path = temp_path("monitor_series");
  obs::Telemetry telemetry;
  obs::MonitorConfig config;
  config.jsonl_path = path;
  config.interval = std::chrono::milliseconds(5);
  obs::Monitor monitor(telemetry, config);
  ASSERT_TRUE(monitor.start());

  auto& work = telemetry.metrics().counter("work.items");
  for (int i = 0; i < 10; ++i) {
    work.inc(7);
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
  }
  monitor.stop();
  EXPECT_FALSE(monitor.running());
  const std::uint64_t written = monitor.snapshots_written();
  EXPECT_GE(written, 3u);
  monitor.stop();  // idempotent
  EXPECT_EQ(monitor.snapshots_written(), written);

  // Every line parses; seq and elapsed_us advance; exactly one final line,
  // the last, and its cumulative counters equal the registry's end state.
  std::ifstream in(path);
  std::string line;
  std::uint64_t lines = 0;
  std::int64_t last_seq = -1;
  std::int64_t last_elapsed = -1;
  bool saw_final = false;
  const auto end_state = telemetry.metrics().snapshot();
  while (std::getline(in, line)) {
    ++lines;
    const auto doc = jsonlite::parse(line);
    EXPECT_GT(doc.at("seq").integer(), last_seq);
    last_seq = doc.at("seq").integer();
    EXPECT_GE(doc.at("elapsed_us").integer(), last_elapsed);
    last_elapsed = doc.at("elapsed_us").integer();
    EXPECT_FALSE(saw_final) << "snapshot after the final one";
    if (doc.at("final").boolean()) {
      saw_final = true;
      for (const auto& [name, value] : end_state.counters) {
        EXPECT_EQ(doc.at("counters").at(name).integer(),
                  static_cast<std::int64_t>(value))
            << name;
      }
      EXPECT_EQ(doc.at("counters").object().size(),
                end_state.counters.size());
    }
  }
  EXPECT_EQ(lines, written);
  EXPECT_TRUE(saw_final);
  std::remove(path.c_str());
}

TEST(Monitor, HeartbeatLinesReachTheSink) {
  obs::Telemetry telemetry;
  telemetry.metrics().counter("ingest.records_seen").inc(100);
  telemetry.metrics().counter("coordinator.tasks").set(16);
  telemetry.metrics().counter("coordinator.tasks_executed").inc(4);
  obs::MonitorConfig config;  // no JSONL file: heartbeats only
  config.interval = std::chrono::milliseconds(5);
  obs::Monitor monitor(telemetry, config);
  ASSERT_TRUE(monitor.start());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  monitor.stop();

  bool saw_heartbeat = false;
  for (const auto& event : telemetry.sink().recent()) {
    if (event.message.rfind("monitor: up", 0) == 0) {
      saw_heartbeat = true;
      EXPECT_NE(event.message.find("ingest 100 rec"), std::string::npos)
          << event.message;
      EXPECT_NE(event.message.find("gcd 4/16 tasks"), std::string::npos)
          << event.message;
    }
  }
  EXPECT_TRUE(saw_heartbeat);
}

TEST(Monitor, UnwritableJsonlPathWarnsButStillTicks) {
  obs::Telemetry telemetry;
  obs::MonitorConfig config;
  config.jsonl_path = "/nonexistent-dir-weakkeys/monitor.jsonl";
  config.interval = std::chrono::milliseconds(5);
  obs::Monitor monitor(telemetry, config);
  EXPECT_FALSE(monitor.start());  // the file could not be opened...
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  monitor.stop();
  EXPECT_GE(monitor.snapshots_written(), 1u);  // ...but ticking continued
  EXPECT_GT(telemetry.sink().events_emitted(obs::Level::kWarn), 0u);
}

// -- process self-metrics ----------------------------------------------------

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
