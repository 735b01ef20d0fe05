// Unit tests for the performance-regression observatory: BENCH_<suite>.json
// parsing, the threshold/noise-floor verdict model, and the markdown/JSON
// reports the tools/benchdiff CLI emits.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/benchdiff.hpp"
#include "util/json_lite.hpp"

namespace weakkeys {
namespace {

using obs::BenchDiffOptions;
using obs::BenchRun;
using obs::BenchSuite;
using obs::BenchVerdict;

BenchSuite suite_of(std::initializer_list<BenchRun> runs) {
  BenchSuite s;
  s.suite = "perf_test";
  s.runs = runs;
  return s;
}

TEST(BenchTime, UnitConversions) {
  EXPECT_DOUBLE_EQ(obs::bench_time_to_ns(5.0, "ns"), 5.0);
  EXPECT_DOUBLE_EQ(obs::bench_time_to_ns(5.0, "us"), 5000.0);
  EXPECT_DOUBLE_EQ(obs::bench_time_to_ns(5.0, "ms"), 5e6);
  EXPECT_DOUBLE_EQ(obs::bench_time_to_ns(5.0, "s"), 5e9);
  EXPECT_THROW(obs::bench_time_to_ns(5.0, "fortnights"), std::runtime_error);
}

TEST(BenchParse, ParsesBenchJsonAndAveragesRepetitions) {
  const std::string text = R"({
    "suite": "perf_batchgcd",
    "runs": [
      {"name": "BM_A", "iterations": 10, "real_time": 100.0,
       "cpu_time": 90.0, "time_unit": "us"},
      {"name": "BM_B", "iterations": 5, "real_time": 2.0,
       "cpu_time": 2.0, "time_unit": "ms"},
      {"name": "BM_A", "iterations": 10, "real_time": 300.0,
       "cpu_time": 110.0, "time_unit": "us"}
    ]
  })";
  const BenchSuite suite = obs::parse_bench_json(text);
  EXPECT_EQ(suite.suite, "perf_batchgcd");
  ASSERT_EQ(suite.runs.size(), 2u);  // BM_A repetitions merged
  EXPECT_EQ(suite.runs[0].name, "BM_A");
  EXPECT_DOUBLE_EQ(suite.runs[0].real_time_ns, 200'000.0);  // mean of reps
  EXPECT_DOUBLE_EQ(suite.runs[0].cpu_time_ns, 100'000.0);
  EXPECT_EQ(suite.runs[0].iterations, 20u);
  EXPECT_EQ(suite.runs[1].name, "BM_B");
  EXPECT_DOUBLE_EQ(suite.runs[1].real_time_ns, 2e6);
}

TEST(BenchParse, RejectsMalformedDocuments) {
  EXPECT_THROW(obs::parse_bench_json("not json"), std::runtime_error);
  EXPECT_THROW(obs::parse_bench_json("{}"), std::runtime_error);
  EXPECT_THROW(obs::parse_bench_json(R"({"suite":"x"})"), std::runtime_error);
}

TEST(BenchDiff, SelfCompareReportsZeroRegressions) {
  const BenchSuite suite = suite_of({{"BM_A", 1e6, 1e6, 100},
                                     {"BM_B", 5e4, 5e4, 1000}});
  const auto report = obs::diff_benchmarks(suite, suite, {});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_EQ(report.improvements, 0u);
  EXPECT_EQ(report.added, 0u);
  EXPECT_EQ(report.missing, 0u);
  ASSERT_EQ(report.rows.size(), 2u);
  for (const auto& row : report.rows) {
    EXPECT_EQ(row.verdict, BenchVerdict::kOk) << row.name;
    EXPECT_DOUBLE_EQ(row.rel_delta, 0.0);
  }
}

TEST(BenchDiff, FlagsRegressionBeyondThresholdAndFloor) {
  const BenchSuite baseline = suite_of({{"BM_A", 1e6, 1e6, 100}});
  const BenchSuite candidate = suite_of({{"BM_A", 1.25e6, 1.25e6, 100}});
  BenchDiffOptions options;
  options.threshold = 0.10;
  options.noise_floor_ns = 5000.0;
  const auto report = obs::diff_benchmarks(baseline, candidate, options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions, 1u);
  EXPECT_EQ(report.rows[0].verdict, BenchVerdict::kRegressed);
  EXPECT_NEAR(report.rows[0].rel_delta, 0.25, 1e-9);
}

TEST(BenchDiff, NoiseFloorMutesTinyAbsoluteDeltas) {
  // 3x relative slowdown, but only 200ns absolute — below the floor this
  // is scheduling jitter, not a regression.
  const BenchSuite baseline = suite_of({{"BM_Tiny", 100.0, 100.0, 1000000}});
  const BenchSuite candidate = suite_of({{"BM_Tiny", 300.0, 300.0, 1000000}});
  const auto report = obs::diff_benchmarks(baseline, candidate, {});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rows[0].verdict, BenchVerdict::kOk);

  // The same relative change above the floor IS a regression.
  const BenchSuite big_base = suite_of({{"BM_Big", 1e6, 1e6, 100}});
  const BenchSuite big_cand = suite_of({{"BM_Big", 3e6, 3e6, 100}});
  EXPECT_FALSE(obs::diff_benchmarks(big_base, big_cand, {}).ok());
}

TEST(BenchDiff, ImprovementsAreSymmetricAndNeverFail) {
  const BenchSuite baseline = suite_of({{"BM_A", 2e6, 2e6, 100}});
  const BenchSuite candidate = suite_of({{"BM_A", 1e6, 1e6, 200}});
  const auto report = obs::diff_benchmarks(baseline, candidate, {});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.improvements, 1u);
  EXPECT_EQ(report.rows[0].verdict, BenchVerdict::kImproved);
}

TEST(BenchDiff, NewAndMissingBenchmarksAreReportedNotFailed) {
  const BenchSuite baseline = suite_of({{"BM_Old", 1e6, 1e6, 100},
                                        {"BM_Kept", 1e6, 1e6, 100}});
  const BenchSuite candidate = suite_of({{"BM_Kept", 1e6, 1e6, 100},
                                         {"BM_New", 1e6, 1e6, 100}});
  const auto report = obs::diff_benchmarks(baseline, candidate, {});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.added, 1u);
  EXPECT_EQ(report.missing, 1u);
  ASSERT_EQ(report.rows.size(), 3u);
  // Baseline order first, then new benchmarks.
  EXPECT_EQ(report.rows[0].name, "BM_Old");
  EXPECT_EQ(report.rows[0].verdict, BenchVerdict::kMissing);
  EXPECT_EQ(report.rows[1].name, "BM_Kept");
  EXPECT_EQ(report.rows[2].name, "BM_New");
  EXPECT_EQ(report.rows[2].verdict, BenchVerdict::kNew);
}

TEST(BenchDiff, MarkdownAndJsonReportsCarryTheVerdicts) {
  const BenchSuite baseline = suite_of({{"BM_A", 1e6, 1e6, 100}});
  const BenchSuite candidate = suite_of({{"BM_A", 2e6, 2e6, 100}});
  const auto report = obs::diff_benchmarks(baseline, candidate, {});

  const std::string markdown = report.markdown();
  EXPECT_NE(markdown.find("| BM_A |"), std::string::npos);
  EXPECT_NE(markdown.find("regressed"), std::string::npos);
  EXPECT_NE(markdown.find("+100.0%"), std::string::npos);
  EXPECT_NE(markdown.find("1 regressed"), std::string::npos);

  const auto doc = jsonlite::parse(report.to_json());
  EXPECT_EQ(doc.at("suite").str(), "perf_test");
  EXPECT_EQ(doc.at("regressions").integer(), 1);
  const auto& rows = doc.at("rows").array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("name").str(), "BM_A");
  EXPECT_EQ(rows[0].at("verdict").str(), "regressed");
  EXPECT_NEAR(rows[0].at("rel_delta").number(), 1.0, 1e-9);
}

}  // namespace
}  // namespace weakkeys
