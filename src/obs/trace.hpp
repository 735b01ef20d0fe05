// Hierarchical stage tracing for the study pipeline.
//
// A Tracer hands out RAII Spans; each span records a named, timed interval
// on the calling thread, and spans opened while another span is live on the
// same thread nest under it. chrome_trace_json() exports a timeline in
// Chrome trace_event format ("X" complete events, one tid per participating
// thread, one pid lane per process) — load the file in about://tracing or
// https://ui.perfetto.dev to see the per-thread stage timeline. The same
// writer serves a Tracer's events and the cluster's merged fleet timeline
// (obs/fleet.hpp).
//
// Span begin/end costs two steady_clock reads plus one short mutex-guarded
// vector push on end; a disabled tracer's spans cost one branch. Timestamps
// are microseconds relative to Tracer construction, so events from one
// tracer share a single epoch and are monotonic per thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace weakkeys::obs {

/// One completed span. `args` carries small integer annotations (task ids,
/// worker ids, attempt numbers) into the Chrome trace "args" object.
struct TraceEvent {
  std::string name;
  std::uint32_t pid = 1;     ///< process lane (a Tracer's own process is 1)
  std::uint32_t tid = 0;     ///< tracer-local thread id (dense, from 0)
  std::uint64_t ts_us = 0;   ///< start, relative to tracer construction
  std::uint64_t dur_us = 0;
  std::uint32_t depth = 0;   ///< nesting depth on its thread (0 = top level)
  std::vector<std::pair<std::string, std::int64_t>> args;
};

class Tracer;

/// RAII span handle. Move-only; records the event when destroyed (or when
/// end() is called explicitly). Spans from a disabled tracer are inert.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  ~Span() { end(); }

  /// Attaches an integer annotation (shows up under "args" in the trace).
  void arg(std::string key, std::int64_t value);

  /// Ends the span now; idempotent.
  void end();

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::string name);

  Tracer* tracer_ = nullptr;
  std::string name_;
  std::uint64_t start_us_ = 0;
  std::uint32_t tid_ = 0;
  std::uint32_t depth_ = 0;
  bool prof_pushed_ = false;  ///< frame pushed on the profiler stack
  std::vector<std::pair<std::string, std::int64_t>> args_;
};

class Tracer {
 public:
  explicit Tracer(bool enabled = true);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread. Returned spans must end in LIFO
  /// order per thread (natural with RAII scoping).
  [[nodiscard]] Span span(std::string name);

  /// Completed events in timeline_order().
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Microseconds since tracer construction (the trace epoch).
  [[nodiscard]] std::uint64_t now_us() const;

 private:
  friend class Span;
  void record(TraceEvent event);
  /// Per-thread (tid, depth) bookkeeping for the calling thread.
  struct ThreadState;
  ThreadState& thread_state();

  bool enabled_ = true;
  std::uint64_t generation_ = 0;  ///< disambiguates reused Tracer addresses
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::uint32_t next_tid_ = 0;
};

/// Timeline order: by (pid, tid, start), the longer span first at equal
/// starts, then the shallower — each lane reads in order with parents
/// before their children (spans record innermost-first).
[[nodiscard]] bool timeline_order(const TraceEvent& a, const TraceEvent& b);

/// Chrome trace_event JSON ({"traceEvents":[...]}) of `events`, written in
/// the given order; an empty trace is valid. Each (pid, label) in
/// `process_names` becomes a process_name metadata record, so the viewer
/// labels that lane instead of showing a bare number.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<TraceEvent>& events,
    const std::vector<std::pair<std::uint32_t, std::string>>&
        process_names = {});

}  // namespace weakkeys::obs
