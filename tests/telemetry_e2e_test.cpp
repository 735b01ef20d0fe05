// End-to-end telemetry test: a noisy, fault-injected Study::run() must
// produce metrics that agree *exactly* with the pipeline's own accounting
// structs (IngestStats, DistributedStats), a span for every pipeline stage,
// and valid trace/metrics JSON files via StudyConfig::trace_path — all with
// a null text log.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cluster/process_coordinator.hpp"
#include "core/ingest.hpp"
#include "core/study.hpp"
#include "util/json_lite.hpp"

namespace weakkeys {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class TelemetryE2E : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove_all(spill_dir()); }

  static std::string spill_dir() {
    return "telemetry_e2e_spill_" + std::to_string(::getpid()) + ".d";
  }

  static core::StudyConfig noisy_config() {
    core::StudyConfig config;
    config.sim.seed = 424;
    config.sim.scale = 0.01;
    config.sim.miller_rabin_rounds = 4;
    config.batch_gcd_subsets = 4;  // 4 rows
    config.threads = 4;
    config.cache_path.clear();  // always simulate + factor from scratch
    // Every subset tree spills through a faulty disk: torn writes, failed
    // fsyncs and silent bit flips on published levels.
    config.spill_dir = spill_dir();
    config.spill_threshold_mb = 0;
    config.faults.seed = 7;
    config.faults.storage_short_write_probability = 0.20;
    config.faults.storage_fsync_fail_probability = 0.10;
    config.faults.storage_bit_flip_probability = 0.20;
    config.noise.seed = 99;
    config.noise.truncated_rate = 0.01;
    config.noise.bitflip_rate = 0.01;
    config.noise.zero_modulus_rate = 0.005;
    config.noise.even_modulus_rate = 0.005;
    config.noise.tiny_modulus_rate = 0.005;
    config.noise.bad_exponent_rate = 0.005;
    config.noise.inverted_validity_rate = 0.005;
    config.noise.duplicate_serial_rate = 0.005;
    // config.log stays null on purpose: the files must be written anyway.
    config.trace_path =
        "telemetry_e2e_" + std::to_string(::getpid()) + ".json";
    return config;
  }
};

TEST_F(TelemetryE2E, NoisyFaultInjectedRunTelemetryMatchesPipelineStats) {
  const core::StudyConfig config = noisy_config();
  core::Study study(config);
  study.run();
  const auto snap = study.telemetry().metrics().snapshot();

  // --- ingest counters agree exactly with IngestStats -------------------
  const core::IngestStats& ingest = study.ingest_stats();
  EXPECT_GT(ingest.records_quarantined, 0u);  // the noise actually landed
  EXPECT_EQ(snap.counter("ingest.records_seen"), ingest.records_seen);
  EXPECT_EQ(snap.counter("ingest.records_kept"), ingest.records_kept);
  EXPECT_EQ(snap.counter("ingest.records_quarantined"),
            ingest.records_quarantined);
  EXPECT_EQ(snap.counter("ingest.raw_records"), ingest.raw_records);
  EXPECT_EQ(snap.counter("ingest.raw_recovered"), ingest.raw_recovered);
  EXPECT_EQ(snap.counter("ingest.degenerate_moduli"),
            ingest.degenerate_moduli);
  std::uint64_t drop_total = 0;
  for (std::size_t i = 0; i < core::kQuarantineReasonCount; ++i) {
    const auto reason = static_cast<core::QuarantineReason>(i);
    const std::uint64_t counted =
        snap.counter(std::string("ingest.drop.") + core::to_string(reason));
    EXPECT_EQ(counted, ingest.by_reason[i]) << core::to_string(reason);
    drop_total += counted;
  }
  EXPECT_EQ(drop_total, ingest.records_quarantined);
  EXPECT_EQ(snap.counter("noise.records_injected"),
            study.noise_summary().total());
  EXPECT_GT(study.noise_summary().total(), 0u);

  // --- task counters agree exactly with DistributedStats ---------------
  const batchgcd::DistributedStats& gcd = study.distributed_stats();
  EXPECT_EQ(gcd.tasks, 4u);  // one row per subset
  EXPECT_EQ(snap.counter("coordinator.tasks"), gcd.tasks);
  EXPECT_EQ(snap.counter("coordinator.subsets"), gcd.subsets);
  EXPECT_EQ(snap.counter("coordinator.tasks_resumed"), gcd.tasks_resumed);
  EXPECT_EQ(snap.counter("coordinator.tasks_executed"),
            gcd.tasks - gcd.tasks_resumed);
  // The pool ran at least one task per tree build and remainder task.
  EXPECT_GE(snap.counter("threadpool.tasks_completed"),
            gcd.subsets + gcd.tasks);

  // --- the storage faults bit, and every corrupt read was repaired ------
  EXPECT_GT(snap.counter("spill.levels_spilled"), 0u);
  EXPECT_GT(snap.counter("spill.write_retries"), 0u);
  EXPECT_EQ(snap.counter("spill.verify_failures"),
            snap.counter("spill.heals") + snap.counter("spill.rebuilds"));

  // --- factor counters agree with FactorStats ---------------------------
  EXPECT_EQ(snap.counter("factor.distinct_moduli"),
            study.factor_stats().distinct_moduli);
  EXPECT_EQ(snap.counter("factor.factored_moduli"), study.factored().size());

  // --- every pipeline stage has a span; one per task attempt ------------
  std::map<std::string, std::size_t> span_counts;
  for (const auto& e : study.telemetry().tracer().events()) {
    ++span_counts[e.name];
  }
  for (const char* stage :
       {"study.run", "study.build_dataset", "study.simulate",
        "study.apply_noise", "study.ingest", "study.exclude_intermediates",
        "study.index_certificates", "study.factor_moduli", "study.distinct_moduli", "gcd.distributed",
        "study.classify_divisors",
        "study.second_pass",
        "study.triage_degenerate", "study.fingerprint",
        "fingerprint.cliques", "fingerprint.subject_labels",
        "fingerprint.prime_pools", "fingerprint.extrapolate",
        "fingerprint.mitm", "sim.scan"}) {
    EXPECT_GE(span_counts[stage], 1u) << "missing span: " << stage;
  }

  // --- trace files written via trace_path, both valid JSON --------------
  const std::string trace_text = slurp(config.trace_path);
  const std::string metrics_text = slurp(config.trace_path + ".metrics.json");
  ASSERT_FALSE(trace_text.empty());
  ASSERT_FALSE(metrics_text.empty());
  const auto trace = jsonlite::parse(trace_text);
  const auto metrics = jsonlite::parse(metrics_text);
  const auto& trace_events = trace.at("traceEvents").array();
  EXPECT_GE(trace_events.size(), span_counts.size());
  std::map<std::int64_t, double> last_ts;
  for (const auto& e : trace_events) {
    EXPECT_EQ(e.at("ph").str(), "X");
    const std::int64_t tid = e.at("tid").integer();
    const double ts = e.at("ts").number();
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts[tid] = ts;
  }
  EXPECT_EQ(metrics.at("counters").at("coordinator.tasks_executed").integer(),
            static_cast<std::int64_t>(gcd.tasks - gcd.tasks_resumed));

  // --- a null text log still leaves the trace and metrics files ---------
  EXPECT_FALSE(config.log);
  EXPECT_TRUE(std::filesystem::exists(config.trace_path));
  EXPECT_TRUE(std::filesystem::exists(config.trace_path + ".metrics.json"));

  std::remove(config.trace_path.c_str());
  std::remove((config.trace_path + ".metrics.json").c_str());
}

// A fault-injected run must leave a `<trace>.metrics.json` that carries the
// registry's exact end-of-run totals, with the gcd task counters closing on
// k^2 and the process's own RSS recorded as telemetry flushed.
TEST_F(TelemetryE2E, MonitoredRunTimeSeriesClosesOnFinalTotals) {
  const core::StudyConfig config = noisy_config();
  core::Study study(config);
  study.run();

  const std::string metrics_path = config.trace_path + ".metrics.json";
  const auto metrics = jsonlite::parse(slurp(metrics_path));

  // The file matches the end-of-run registry exactly: same counter names,
  // same values, nothing extra.
  const auto end_state = study.telemetry().metrics().snapshot();
  const auto& counters = metrics.at("counters").object();
  EXPECT_EQ(counters.size(), end_state.counters.size());
  for (const auto& [name, value] : end_state.counters) {
    ASSERT_TRUE(metrics.at("counters").has(name)) << name;
    EXPECT_EQ(metrics.at("counters").at(name).integer(),
              static_cast<std::int64_t>(value))
        << name;
  }

  // The gcd task total matches k^2, and every task was either executed or
  // resumed.
  const batchgcd::DistributedStats& gcd = study.distributed_stats();
  EXPECT_EQ(end_state.counter("coordinator.tasks"), gcd.tasks);
  EXPECT_EQ(end_state.counter("coordinator.subsets"), gcd.subsets);
  EXPECT_EQ(end_state.counter("coordinator.tasks_executed") +
                end_state.counter("coordinator.tasks_resumed"),
            gcd.tasks);

  // The flush sampled process self-metrics into the file.
#if defined(__linux__)
  EXPECT_GT(metrics.at("gauges").at("process.rss_kb").integer(), 0);
#endif

  std::remove(config.trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// Regression test for silent telemetry loss: a run that dies mid-pipeline
// (its factoring stage routed to a worker binary that does not exist) must
// still flush the trace and the metrics snapshot, carrying everything
// counted before the failure.
TEST_F(TelemetryE2E, AbnormalRunEndStillFlushesTelemetryArtifacts) {
  core::StudyConfig config = noisy_config();
  config.worker_processes = 1;
  config.worker_binary = "/nonexistent/gcd_worker";
  config.trace_path =
      "telemetry_e2e_abnormal_" + std::to_string(::getpid()) + ".json";

  {
    core::Study study(config);
    EXPECT_THROW(study.run(), cluster::ClusterError);
    // The failed run still closed its artifacts on the way out.
  }

  const std::string trace_text = slurp(config.trace_path);
  const std::string metrics_text = slurp(config.trace_path + ".metrics.json");
  ASSERT_FALSE(trace_text.empty());
  ASSERT_FALSE(metrics_text.empty());
  const auto metrics = jsonlite::parse(metrics_text);
  EXPECT_GT(metrics.at("counters").at("ingest.records_seen").integer(), 0);
  EXPECT_TRUE(jsonlite::parse(trace_text).has("traceEvents"));

  std::remove(config.trace_path.c_str());
  std::remove((config.trace_path + ".metrics.json").c_str());
}

// A trace file that cannot be written is reported on the run's log. The run
// is cancelled before its first stage, so only the flush does any work.
TEST_F(TelemetryE2E, FailedTraceWriteIsLogged) {
  core::StudyConfig config = noisy_config();
  config.trace_path = "telemetry_e2e_missing_dir_" +
                      std::to_string(::getpid()) + "/trace.json";
  std::vector<std::string> lines;
  config.log = [&lines](const std::string& line) { lines.push_back(line); };
  core::Study study(config);
  study.cancel("before the first stage");
  EXPECT_THROW(study.run(), util::Cancelled);
  EXPECT_NE(std::find(lines.begin(), lines.end(),
                      "telemetry: failed to write " + config.trace_path),
            lines.end());
  EXPECT_FALSE(std::filesystem::exists(config.trace_path));
}

}  // namespace
}  // namespace weakkeys
