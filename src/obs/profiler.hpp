// Sampling wall-clock profiler (DESIGN.md §5k).
//
// A background thread wakes `hz` times per second and snapshots every
// registered thread's current frame stack (obs/prof_stack.hpp — Span names
// plus the bn kernel leaf frames). Samples aggregate into collapsed-stack
// form ("frame1;frame2 count", one line per unique stack — the format
// flamegraph.pl and speedscope ingest), written at stop() through a
// pluggable writer so higher layers can install util::atomic_write_file
// without obs growing an upward dependency.
//
// Sampling wall-clock rather than CPU time is deliberate: the coordinator
// blocks on sockets and the thread pool parks between tasks, and "where do
// threads spend wall time" is the question the out-of-core design needs
// answered. Rollups land in the MetricsRegistry (`profiler.ticks`,
// `profiler.samples`, `profiler.self.<frame>`) so the trace's metrics
// snapshot carries the top self-time frames.
//
// Off by default; when no Profiler is running, instrumentation costs one
// relaxed load per Span/Frame construction (see prof_stack.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace weakkeys::obs {

class MetricsRegistry;

struct ProfilerConfig {
  /// Sampling cadence. Values <= 0 make start() a no-op. 97 (prime) by
  /// convention, so the sampler cannot phase-lock with millisecond-period
  /// loops elsewhere in the process.
  double hz = 97.0;
  /// Collapsed-stack destination; empty disables file output.
  std::string out_path;
  /// Writes `content` to `path`, returning success. Higher layers install
  /// util::atomic_write_file here (obs sits below util and cannot call it
  /// directly); the default is a plain truncating write.
  std::function<bool(const std::string& path, const std::string& content)>
      writer;
  /// Receives tick/sample/self-time rollups when non-null.
  MetricsRegistry* registry = nullptr;
};

class Profiler {
 public:
  explicit Profiler(ProfilerConfig config);
  ~Profiler();  ///< stops and flushes if still running
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Enables frame collection globally and launches the sampler thread.
  /// Idempotent while running.
  void start();

  /// Stops sampling, disables frame collection, publishes final rollups,
  /// and writes the collapsed-stack file (if configured). Idempotent.
  void stop();

  [[nodiscard]] bool running() const;

  /// Sampler wake-ups so far.
  [[nodiscard]] std::uint64_t ticks() const;
  /// Thread-stack samples recorded so far (<= ticks * live threads; ticks
  /// where every stack is empty contribute nothing).
  [[nodiscard]] std::uint64_t samples() const;

  /// Current aggregate in collapsed-stack form, lines sorted by stack name
  /// for deterministic output.
  [[nodiscard]] std::string collapsed() const;

  /// Frames ranked by self time (sample count where the frame was the
  /// innermost), descending, at most `top_n` entries.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> self_times(
      std::size_t top_n) const;

 private:
  void sampler_loop();
  void publish_rollups_locked();

  struct Impl;
  Impl* impl_;
};

}  // namespace weakkeys::obs
