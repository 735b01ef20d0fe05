// Crash-safe end-to-end resume: fork a child Study, SIGKILL it at chosen
// pipeline points (after the corpus cache publishes, mid-batch-GCD, during
// fingerprinting), then rerun in-process with the same cache path and
// assert the final result set is element-for-element identical to an
// uninterrupted reference run — with only the unfinished work re-executed
// and no orphaned `*.tmp` publication files anywhere in the cache family.
//
// SIGKILL (not SIGTERM) is the point: no handler runs, no flush happens,
// the process dies wherever it happens to be. Whatever survives on disk is
// exactly what the atomic-publish discipline guarantees.
#include <gtest/gtest.h>

#if defined(_WIN32)
TEST(KillResumeTest, RequiresPosix) { GTEST_SKIP() << "fork/SIGKILL harness"; }
#else

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/study.hpp"
#include "util/atomic_file.hpp"
#include "util/cancellation.hpp"

namespace weakkeys {
namespace {

constexpr std::uint64_t kSeed = 515151;

core::StudyConfig harness_config(const std::string& cache_path) {
  core::StudyConfig config;
  config.sim.seed = kSeed;
  config.sim.scale = 0.02;
  config.sim.miller_rabin_rounds = 4;
  // Six rows on two threads: a kill after two commits lands mid-factor.
  config.batch_gcd_subsets = 6;
  config.threads = 2;
  config.cache_path = cache_path;  // the default path journals to .gcdckpt
  return config;
}

const std::vector<std::string>& cache_suffixes() {
  static const std::vector<std::string> suffixes = {"", ".factors",
                                                    ".gcdckpt"};
  return suffixes;
}

void remove_cache_family(const std::string& cache_path) {
  for (const auto& suffix : cache_suffixes()) {
    std::remove((cache_path + suffix).c_str());
    std::remove(util::atomic_tmp_path(cache_path + suffix).c_str());
  }
}

void expect_no_tmp_orphans(const std::string& cache_path) {
  for (const auto& suffix : cache_suffixes()) {
    const std::string tmp = util::atomic_tmp_path(cache_path + suffix);
    std::ifstream probe(tmp);
    EXPECT_FALSE(probe.good()) << "orphan publication file: " << tmp;
  }
}

/// Canonical content fingerprint of a finished study: every factor record
/// (n, p, q, class) plus the vulnerable set, order-independent.
std::vector<std::string> result_fingerprint(const core::Study& study) {
  std::vector<std::string> lines;
  for (const auto& record : study.factored()) {
    lines.push_back(record.n.to_hex() + "|" + record.p.to_hex() + "|" +
                    record.q.to_hex() + "|" +
                    std::to_string(static_cast<int>(record.divisor_class)));
  }
  for (const auto& hex : study.vulnerable().hex()) {
    lines.push_back("vuln|" + hex);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// The uninterrupted reference run, computed once for the whole suite.
class KillResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    reference_ = new core::Study(harness_config(""));
    reference_->run();
    reference_fingerprint_ = result_fingerprint(*reference_);
    ASSERT_FALSE(reference_fingerprint_.empty());
  }

  static void TearDownTestSuite() {
    delete reference_;
    reference_ = nullptr;
  }

  /// Forks a child that runs the study under `setup` until the kill trigger
  /// fires. Returns true when the child died by SIGKILL (the harness
  /// contract); a child that survives to completion _exit()s with a
  /// distinct code and fails the expectation.
  static bool run_child_until_killed(
      const std::function<void(core::Study&)>& arm_kill,
      const core::StudyConfig& config) {
    ::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: arm the kill trigger and run. Never returns normally.
      {
        core::Study study(config);
        arm_kill(study);
        try {
          study.run();
        } catch (...) {
          ::_exit(43);  // died some way other than SIGKILL: harness bug
        }
      }
      ::_exit(42);  // ran to completion: the trigger never fired
    }
    EXPECT_GT(pid, 0) << "fork failed";
    if (pid <= 0) return false;
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status))
        << "child was not killed (exit code "
        << (WIFEXITED(status) ? WEXITSTATUS(status) : -1) << ")";
    if (!WIFSIGNALED(status)) return false;
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    return WTERMSIG(status) == SIGKILL;
  }

  /// Resumes from whatever the killed child left behind and checks the
  /// combined result is byte-identical to the uninterrupted reference.
  static void resume_and_verify(const std::string& cache_path,
                                core::Study& resumed) {
    EXPECT_NO_THROW(resumed.run());
    EXPECT_EQ(result_fingerprint(resumed), reference_fingerprint_);
    expect_no_tmp_orphans(cache_path);
  }

  static core::Study* reference_;
  static std::vector<std::string> reference_fingerprint_;
};

core::Study* KillResumeTest::reference_ = nullptr;
std::vector<std::string> KillResumeTest::reference_fingerprint_;

TEST_F(KillResumeTest, KillAfterCorpusPublishResumesFromCorpusCache) {
  const std::string cache = "kill_resume_corpus.cache";
  remove_cache_family(cache);
  auto config = harness_config(cache);

  // Die the instant the corpus cache publication is announced: the scan
  // corpus survives, nothing downstream exists yet.
  config.log = [](const std::string& message) {
    if (message.rfind("corpus cached to", 0) == 0) ::raise(SIGKILL);
  };
  ASSERT_TRUE(run_child_until_killed([](core::Study&) {}, config));
  {
    std::ifstream corpus(cache, std::ios::binary);
    ASSERT_TRUE(corpus.good()) << "corpus cache did not survive the kill";
  }

  core::Study resumed(harness_config(cache));
  resume_and_verify(cache, resumed);
  // The simulation was skipped; factoring ran fresh (no journal existed).
  EXPECT_EQ(resumed.telemetry().metrics().counter("cache.corpus.hit").value(),
            1u);
  EXPECT_EQ(resumed.distributed_stats().tasks_resumed, 0u);
  remove_cache_family(cache);
}

TEST_F(KillResumeTest, KillMidFactorResumesOnlyUnfinishedTasks) {
  const std::string cache = "kill_resume_midgcd.cache";
  remove_cache_family(cache);
  const auto config = harness_config(cache);

  // A spin watcher inside the child SIGKILLs the process as soon as two
  // rows have committed to the journal — squarely inside
  // the batch-GCD stage, possibly mid-append of the next record.
  ASSERT_TRUE(run_child_until_killed(
      [](core::Study& study) {
        auto& executed =
            study.telemetry().metrics().counter("coordinator.tasks_executed");
        std::thread([&executed] {
          while (executed.value() < 2) std::this_thread::yield();
          ::raise(SIGKILL);
        }).detach();
      },
      config));

  core::Study resumed(harness_config(cache));
  resume_and_verify(cache, resumed);
  const auto& stats = resumed.distributed_stats();
  const auto executed = resumed.telemetry()
                            .metrics()
                            .counter("coordinator.tasks_executed")
                            .value();
  EXPECT_GT(stats.tasks_resumed, 0u) << "journal did not survive the kill";
  EXPECT_LT(stats.tasks_resumed, stats.tasks) << "kill landed after the run";
  EXPECT_EQ(stats.tasks_resumed + executed, stats.tasks);
  EXPECT_EQ(resumed.telemetry().metrics().counter("cache.corpus.hit").value(),
            1u);
  remove_cache_family(cache);
}

TEST_F(KillResumeTest, KillDuringFingerprintResumesFromFactorCache) {
  const std::string cache = "kill_resume_fprint.cache";
  remove_cache_family(cache);
  auto config = harness_config(cache);

  // "found N ... cliques" is the first fingerprint-stage announcement; by
  // then the factor cache is on disk.
  config.log = [](const std::string& message) {
    if (message.rfind("found ", 0) == 0) ::raise(SIGKILL);
  };
  ASSERT_TRUE(run_child_until_killed([](core::Study&) {}, config));

  core::Study resumed(harness_config(cache));
  resume_and_verify(cache, resumed);
  auto& metrics = resumed.telemetry().metrics();
  EXPECT_EQ(metrics.counter("cache.corpus.hit").value(), 1u);
  EXPECT_EQ(metrics.counter("cache.factors.hit").value(), 1u);
  remove_cache_family(cache);
}

TEST_F(KillResumeTest, CancelLatencyIsBoundedByTwoMonitorIntervals) {
  // The acceptance bar from the lifecycle design: poll sites sit at batch
  // granularity, so an explicit cancel must unwind the pipeline in well
  // under 500ms.
  using clock = std::chrono::steady_clock;
  auto config = harness_config("");
  std::atomic<std::int64_t> cancelled_at_ns{0};
  core::Study study(config);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancelled_at_ns.store(clock::now().time_since_epoch().count());
    study.cancel("latency probe");
  });
  EXPECT_THROW(study.run(), util::Cancelled);
  const auto unwound_at = clock::now().time_since_epoch().count();
  canceller.join();
  const double latency_ms =
      static_cast<double>(unwound_at - cancelled_at_ns.load()) / 1e6;
  EXPECT_LT(latency_ms, 2.0 * 250.0)
      << "cancel took " << latency_ms << "ms to unwind";
}

}  // namespace
}  // namespace weakkeys

#endif  // !_WIN32
