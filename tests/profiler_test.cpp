// Tests for the resource-attribution plane (DESIGN.md §5k): the per-thread
// frame stacks, the sampling wall-clock profiler and its collapsed-stack
// output, and the level store's product-tree byte census.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batchgcd/product_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/prof_stack.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys {
namespace {

using bn::BigInt;

// ---------------------------------------------------------- prof stacks ----

TEST(ProfStack, OffByDefaultFramesAreInert) {
  ASSERT_FALSE(obs::prof::enabled());
  {
    obs::prof::Frame frame("should.not.appear");
    obs::prof::Frame nested("also.not");
    for (const auto& stack : obs::prof::sample_all_stacks()) {
      for (const char* label : stack) {
        EXPECT_STRNE(label, "should.not.appear");
        EXPECT_STRNE(label, "also.not");
      }
    }
  }
}

TEST(ProfStack, PushPopVisibleToSampler) {
  obs::prof::set_enabled(true);
  {
    obs::prof::Frame outer("test.outer");
    obs::prof::Frame inner("test.inner");
    bool found = false;
    for (const auto& stack : obs::prof::sample_all_stacks()) {
      if (stack.size() >= 2 && std::string(stack[stack.size() - 2]) ==
                                   "test.outer" &&
          std::string(stack.back()) == "test.inner") {
        found = true;
      }
    }
    EXPECT_TRUE(found);
    EXPECT_GE(obs::prof::registered_threads(), 1u);
  }
  obs::prof::set_enabled(false);
  // Popped cleanly: this thread contributes no stack anymore.
  for (const auto& stack : obs::prof::sample_all_stacks()) {
    for (const char* label : stack) {
      EXPECT_STRNE(label, "test.outer");
    }
  }
}

TEST(ProfStack, InternIsIdempotent) {
  const char* a = obs::prof::intern("some.span.name");
  const char* b = obs::prof::intern("some.span.name");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "some.span.name");
}

// ------------------------------------------------------------- profiler ----

/// Parses collapsed-stack text ("frame;frame count\n") and returns the
/// total sample count, failing the test on any malformed line.
std::uint64_t parse_collapsed(const std::string& text) {
  std::uint64_t total = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "no count in: " << line;
    if (space == std::string::npos) continue;
    EXPECT_GT(space, 0u) << "empty stack in: " << line;
    const std::string stack = line.substr(0, space);
    EXPECT_FALSE(stack.empty());
    EXPECT_NE(stack.front(), ';') << "empty leading frame in: " << line;
    EXPECT_NE(stack.back(), ';') << "empty trailing frame in: " << line;
    total += std::strtoull(line.c_str() + space + 1, nullptr, 10);
  }
  return total;
}

TEST(Profiler, SamplesSpanChurnIntoParseableCollapsedStacks) {
  obs::Telemetry telemetry(/*tracing_enabled=*/true);
  std::string written_path;
  std::string written_body;
  obs::ProfilerConfig config;
  config.hz = 997;  // fast cadence so the test finishes quickly
  config.out_path = "profiler_test.folded";
  config.registry = &telemetry.metrics();
  config.writer = [&](const std::string& path, const std::string& body) {
    written_path = path;
    written_body = body;
    return true;
  };
  obs::Profiler profiler(std::move(config));
  profiler.start();
  EXPECT_TRUE(profiler.running());

  // Churn: worker threads create and destroy nested spans while the
  // sampler snapshots their stacks; TSan builds exercise the lock-free
  // stack protocol here.
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&telemetry, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        obs::Span outer = telemetry.tracer().span("churn.outer");
        obs::Span inner = telemetry.tracer().span("churn.inner");
      }
    });
  }
  {
    // A long-lived frame the sampler is guaranteed to catch.
    obs::prof::Frame frame("churn.main");
    while (profiler.ticks() < 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  profiler.stop();
  EXPECT_FALSE(profiler.running());
  EXPECT_FALSE(obs::prof::enabled());  // stop() switches collection off

  EXPECT_GE(profiler.ticks(), 20u);
  EXPECT_GT(profiler.samples(), 0u);
  // The writer received the same aggregate collapsed() reports, and the
  // per-line counts sum exactly to the sample counter.
  EXPECT_EQ(written_path, "profiler_test.folded");
  EXPECT_EQ(written_body, profiler.collapsed());
  EXPECT_EQ(parse_collapsed(written_body), profiler.samples());
  EXPECT_NE(written_body.find("churn.main"), std::string::npos);

  // Registry rollups: tick/sample counters plus self-time counters that
  // also sum to the sample count.
  const obs::MetricsSnapshot snap = telemetry.metrics().snapshot();
  EXPECT_EQ(snap.counter("profiler.ticks"), profiler.ticks());
  EXPECT_EQ(snap.counter("profiler.samples"), profiler.samples());
  std::uint64_t self_total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("profiler.self.", 0) == 0) self_total += value;
  }
  EXPECT_EQ(self_total, profiler.samples());

  // Ranked self times agree with the raw counters.
  const auto top = profiler.self_times(3);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(snap.counter("profiler.self." + top[0].first), top[0].second);
}

TEST(Profiler, PoolJoinSamplesAsWait) {
  obs::ProfilerConfig config;
  config.hz = 997;
  obs::Profiler profiler(std::move(config));
  profiler.start();
  util::ThreadPool pool(2);
  std::latch release(1);
  // The caller holds a frame and joins tasks that stay blocked until the
  // sampler has caught it in the join.
  std::thread caller([&] {
    obs::prof::Frame frame("join.caller");
    pool.parallel_for(2, [&](std::size_t) { release.wait(); });
  });
  const std::string waiting = "join.caller;wait ";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (profiler.collapsed().find(waiting) == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  release.count_down();
  caller.join();
  profiler.stop();
  EXPECT_NE(profiler.collapsed().find(waiting), std::string::npos)
      << profiler.collapsed();
}

TEST(Profiler, ZeroHzNeverStarts) {
  obs::ProfilerConfig config;
  config.hz = 0;
  obs::Profiler profiler(std::move(config));
  profiler.start();
  EXPECT_FALSE(profiler.running());
  EXPECT_FALSE(obs::prof::enabled());
  profiler.stop();
}

// ---------------------------------------------------- product-tree census ----

std::vector<BigInt> census_corpus(std::size_t count) {
  std::vector<BigInt> moduli;
  moduli.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    moduli.emplace_back(1000003u + 2 * i);  // odd, pairwise distinct
  }
  return moduli;
}

TEST(ProductTreeCensus, LevelBytesSumToResidentPeak) {
  const auto moduli = census_corpus(64);
  batchgcd::ProductTree tree(moduli);
  const auto& levels = tree.level_stats();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front().nodes, moduli.size());
  EXPECT_EQ(levels.back().nodes, 1u);
  std::uint64_t level_sum = 0;
  for (const auto& level : levels) {
    EXPECT_GT(level.bytes, 0u);
    level_sum += level.bytes;
  }
  // The identity the acceptance check rides on: per-level bytes are exact
  // payload counts, so their sum IS the retained footprint, and an in-RAM
  // store holds all of it.
  EXPECT_EQ(level_sum, tree.retained_bytes());
  EXPECT_EQ(level_sum, tree.store().peak_resident_bytes());
  EXPECT_EQ(tree.store().resident_bytes(),
            tree.store().peak_resident_bytes());

  // The same build through the spill backend keeps the same census but a
  // two-level resident window: its peak is a fraction of the tree.
  const std::string dir = ::testing::TempDir() + "census_spill_" +
                          std::to_string(::getpid());
  {
    batchgcd::TreeStorage storage;
    storage.spill_dir = dir;
    storage.spill_threshold_bytes = 0;
    batchgcd::ProductTree spilled(moduli, storage);
    ASSERT_TRUE(spilled.spilled());
    EXPECT_EQ(spilled.retained_bytes(), level_sum);
    const std::uint64_t peak = spilled.store().peak_resident_bytes();
    EXPECT_GT(peak, 0u);
    EXPECT_LT(peak, level_sum / 2);
  }
  std::filesystem::remove_all(dir);

  obs::Telemetry telemetry;
  tree.publish_level_stats(telemetry.metrics());
  const obs::MetricsSnapshot snap = telemetry.metrics().snapshot();
  std::int64_t gauge_sum = 0;
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("batchgcd.product_tree.level", 0) == 0 &&
        name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".bytes") == 0) {
      gauge_sum += value;
    }
  }
  ASSERT_NE(snap.gauges.find("batchgcd.product_tree.bytes_peak"),
            snap.gauges.end());
  EXPECT_EQ(gauge_sum, snap.gauges.at("batchgcd.product_tree.bytes_peak"));
}

}  // namespace
}  // namespace weakkeys
