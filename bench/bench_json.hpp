// Machine-readable output for the perf_* google-benchmark suites.
//
// run_benchmarks_with_json() replaces BENCHMARK_MAIN(): it keeps the usual
// console table but also captures every run through a collecting reporter
// and writes `BENCH_<suite>.json` next to the binary (or under the
// directory named by WEAKKEYS_BENCH_OUT). The file carries per-run adjusted
// real/cpu time, iteration counts, and user counters, plus — when the suite
// hands over a Telemetry — the metrics snapshot accumulated across all
// benchmark iterations. CI uploads these files as artifacts and diffs them
// across runs; keep the schema append-only.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/study.hpp"
#include "obs/metrics.hpp"
#include "obs/proc_stats.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "util/atomic_file.hpp"

namespace weakkeys::bench {

/// Display reporter that also keeps a copy of every finished run.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    return benchmark::ConsoleReporter::ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    runs_.insert(runs_.end(), reports.begin(), reports.end());
  }
  [[nodiscard]] const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

/// BENCH_<suite>.json, honoring the WEAKKEYS_BENCH_OUT directory override.
inline std::string bench_json_path(const std::string& suite) {
  std::string path = "BENCH_" + suite + ".json";
  if (const char* dir = std::getenv("WEAKKEYS_BENCH_OUT")) {
    std::string prefix(dir);
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    path = prefix + path;
  }
  return path;
}

inline void write_bench_json(const std::string& suite,
                             const std::vector<CollectingReporter::Run>& runs,
                             const obs::Telemetry* telemetry) {
  const std::string path = bench_json_path(suite);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  char buf[64];
  out << "{\n  \"suite\": \"" << obs::json_escape(suite) << "\",\n"
      << "  \"runs\": [";
  bool first = true;
  for (const auto& run : runs) {
    if (run.error_occurred) continue;
    out << (first ? "" : ",") << "\n    {\"name\": \""
        << obs::json_escape(run.benchmark_name()) << "\"";
    out << ", \"iterations\": " << run.iterations;
    std::snprintf(buf, sizeof(buf), "%.6g", run.GetAdjustedRealTime());
    out << ", \"real_time\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.6g", run.GetAdjustedCPUTime());
    out << ", \"cpu_time\": " << buf;
    out << ", \"time_unit\": \"" << benchmark::GetTimeUnitString(run.time_unit)
        << "\"";
    if (!run.counters.empty()) {
      out << ", \"counters\": {";
      bool first_counter = true;
      for (const auto& [name, counter] : run.counters) {
        std::snprintf(buf, sizeof(buf), "%.6g", counter.value);
        out << (first_counter ? "" : ", ") << "\"" << obs::json_escape(name)
            << "\": " << buf;
        first_counter = false;
      }
      out << "}";
    }
    out << "}";
    first = false;
  }
  out << "\n  ]";
  // Whole-process peak RSS (VmHWM), so benchdiff can gate memory
  // regressions alongside timing ones. Optional in the schema: absent on
  // platforms without /proc.
  const obs::ProcSelfStats proc = obs::sample_proc_self();
  if (proc.peak_rss_available) {
    out << ",\n  \"peak_rss_bytes\": " << proc.peak_rss_kb * 1024;
  }
  if (telemetry != nullptr) {
    out << ",\n  \"metrics\": " << telemetry->metrics().to_json();
  }
  out << "\n}\n";
  std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
}

/// Drop-in replacement for BENCHMARK_MAIN()'s body. `telemetry`, when
/// non-null, must be the instance the suite's benchmarks record into; its
/// metrics snapshot is embedded in the JSON.
inline int run_benchmarks_with_json(const std::string& suite, int argc,
                                    char** argv,
                                    obs::Telemetry* telemetry = nullptr) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Opt-in profiling for ad-hoc runs: with WEAKKEYS_PROFILE_HZ set, the
  // whole suite runs under the sampling profiler (collapsed stacks land
  // next to the JSON as PROFILE_<suite>.folded unless WEAKKEYS_PROFILE_OUT
  // says otherwise).
  const core::StudyConfig env = core::StudyConfig::from_env();
  std::unique_ptr<obs::Profiler> profiler;
  if (env.profile_hz > 0) {
    obs::ProfilerConfig prof_config;
    prof_config.hz = env.profile_hz;
    if (telemetry != nullptr) prof_config.registry = &telemetry->metrics();
    prof_config.out_path = env.profile_out;
    if (prof_config.out_path.empty()) {
      std::string path = "PROFILE_" + suite + ".folded";
      if (const char* dir = std::getenv("WEAKKEYS_BENCH_OUT")) {
        std::string prefix(dir);
        if (!prefix.empty() && prefix.back() != '/') prefix += '/';
        path = prefix + path;
      }
      prof_config.out_path = path;
    }
    prof_config.writer = [](const std::string& path,
                            const std::string& body) {
      try {
        util::atomic_write_file(path, body);
        return true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench: %s\n", e.what());
        return false;
      }
    };
    profiler = std::make_unique<obs::Profiler>(std::move(prof_config));
    profiler->start();
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (profiler) {
    profiler->stop();
    std::fprintf(stderr, "bench: profiler captured %llu samples\n",
                 static_cast<unsigned long long>(profiler->samples()));
  }
  write_bench_json(suite, reporter.runs(), telemetry);
  benchmark::Shutdown();
  return 0;
}

}  // namespace weakkeys::bench
