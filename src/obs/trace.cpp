#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/prof_stack.hpp"

namespace weakkeys::obs {

namespace {

/// Tracer identity for thread-local bookkeeping. Keyed by a process-unique
/// generation (not the Tracer address) so a Tracer allocated where a dead
/// one used to live cannot inherit stale thread state.
std::atomic<std::uint64_t> g_tracer_generation{1};

}  // namespace

struct Tracer::ThreadState {
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
};

Tracer::ThreadState& Tracer::thread_state() {
  thread_local std::unordered_map<std::uint64_t, ThreadState> states;
  auto [it, fresh] = states.try_emplace(generation_);
  if (fresh) {
    std::lock_guard lock(mu_);
    it->second.tid = next_tid_++;
  }
  return it->second;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      generation_(g_tracer_generation.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Span Tracer::span(std::string name) {
  if (!enabled_) return Span();
  return Span(this, std::move(name));
}

Span::Span(Tracer* tracer, std::string name)
    : tracer_(tracer), name_(std::move(name)) {
  Tracer::ThreadState& st = tracer_->thread_state();
  tid_ = st.tid;
  depth_ = st.depth++;
  start_us_ = tracer_->now_us();
  // Mirror the span onto the profiler's per-thread frame stack while a
  // sampler is live. Interning makes the pointer stable for samples taken
  // after this span (and even this tracer) is gone.
  if (prof::enabled()) {
    prof::push_frame(prof::intern(name_));
    prof_pushed_ = true;
  }
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    start_us_ = other.start_us_;
    tid_ = other.tid_;
    depth_ = other.depth_;
    prof_pushed_ = other.prof_pushed_;
    args_ = std::move(other.args_);
    other.tracer_ = nullptr;
    other.prof_pushed_ = false;
  }
  return *this;
}

void Span::arg(std::string key, std::int64_t value) {
  if (!tracer_) return;
  args_.emplace_back(std::move(key), value);
}

void Span::end() {
  if (!tracer_) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  // Pop exactly what the constructor pushed, even if profiling was turned
  // off mid-span — the per-thread stack must stay balanced.
  if (prof_pushed_) {
    prof::pop_frame();
    prof_pushed_ = false;
  }
  const std::uint64_t end_us = tracer->now_us();
  --tracer->thread_state().depth;
  TraceEvent event;
  event.name = std::move(name_);
  event.tid = tid_;
  event.ts_us = start_us_;
  event.dur_us = end_us >= start_us_ ? end_us - start_us_ : 0;
  event.depth = depth_;
  event.args = std::move(args_);
  tracer->record(std::move(event));
}

void Tracer::record(TraceEvent event) {
  std::lock_guard lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard lock(mu_);
    out = events_;
  }
  std::stable_sort(out.begin(), out.end(), timeline_order);
  return out;
}

bool timeline_order(const TraceEvent& a, const TraceEvent& b) {
  if (a.pid != b.pid) return a.pid < b.pid;
  if (a.tid != b.tid) return a.tid < b.tid;
  if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
  if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
  return a.depth < b.depth;
}

std::string chrome_trace_json(
    const std::vector<TraceEvent>& events,
    const std::vector<std::pair<std::uint32_t, std::string>>& process_names) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto separate = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const auto& [pid, label] : process_names) {
    separate();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
           json_escape(label) + "\"}}";
  }
  for (const TraceEvent& e : events) {
    separate();
    out += "{\"name\":\"" + json_escape(e.name) +
           "\",\"cat\":\"weakkeys\",\"ph\":\"X\",\"pid\":" +
           std::to_string(e.pid) + ",\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + std::to_string(e.ts_us) +
           ",\"dur\":" + std::to_string(e.dur_us);
    if (!e.args.empty()) {
      out += ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ",";
        out += "\"" + json_escape(e.args[i].first) +
               "\":" + std::to_string(e.args[i].second);
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace weakkeys::obs
