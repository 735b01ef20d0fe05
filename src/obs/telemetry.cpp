#include "obs/telemetry.hpp"

#include <cstdlib>
#include <fstream>
#include <map>

namespace weakkeys::obs {

namespace {

struct ExitFlushRegistry {
  std::mutex mu;
  std::map<std::uint64_t, std::function<void()>> flushes;
  std::uint64_t next_token = 1;
  bool atexit_installed = false;
};

// Leaked on purpose: the atexit hook may fire after static destructors
// would have torn a plain static down.
ExitFlushRegistry& exit_registry() {
  static ExitFlushRegistry* registry = new ExitFlushRegistry();
  return *registry;
}

}  // namespace

std::uint64_t register_exit_flush(std::function<void()> flush) {
  auto& registry = exit_registry();
  std::lock_guard lock(registry.mu);
  if (!registry.atexit_installed) {
    registry.atexit_installed = true;
    std::atexit([] { run_exit_flushes(); });
  }
  const std::uint64_t token = registry.next_token++;
  registry.flushes[token] = std::move(flush);
  return token;
}

void unregister_exit_flush(std::uint64_t token) {
  auto& registry = exit_registry();
  std::lock_guard lock(registry.mu);
  registry.flushes.erase(token);
}

void run_exit_flushes() {
  auto& registry = exit_registry();
  // Copy under the lock, run outside it: a flush may (un)register.
  std::vector<std::function<void()>> to_run;
  {
    std::lock_guard lock(registry.mu);
    to_run.reserve(registry.flushes.size());
    for (const auto& [token, flush] : registry.flushes) to_run.push_back(flush);
  }
  for (const auto& flush : to_run) {
    if (flush) flush();
  }
}

const char* to_string(Level level) {
  switch (level) {
    case Level::kDebug:
      return "debug";
    case Level::kInfo:
      return "info";
    case Level::kWarn:
      return "warn";
    case Level::kError:
      return "error";
  }
  return "unknown";
}

TelemetrySink::TelemetrySink(std::size_t ring_capacity)
    : capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      epoch_(std::chrono::steady_clock::now()) {}

void TelemetrySink::emit(Level level, std::string message) {
  std::function<void(const std::string&)> text;
  LogEvent event;
  {
    std::lock_guard lock(mu_);
    event.level = level;
    event.seq = seq_++;
    event.ts_us = elapsed_us(epoch_, std::chrono::steady_clock::now());
    event.message = std::move(message);
    ++by_level_[static_cast<std::size_t>(level)];
    ring_.push_back(event);
    if (ring_.size() > capacity_) ring_.pop_front();
    text = text_;
  }
  // Forward outside the lock: the text sink is arbitrary user code and may
  // itself log or block.
  if (text) text(event.message);
}

void TelemetrySink::set_text_sink(
    std::function<void(const std::string&)> sink) {
  std::lock_guard lock(mu_);
  text_ = std::move(sink);
}

std::vector<LogEvent> TelemetrySink::recent() const {
  std::lock_guard lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t TelemetrySink::events_emitted(Level level) const {
  std::lock_guard lock(mu_);
  return by_level_[static_cast<std::size_t>(level)];
}

std::uint64_t TelemetrySink::total_events() const {
  std::lock_guard lock(mu_);
  return seq_;
}

Telemetry::Telemetry(bool tracing_enabled, std::size_t ring_capacity)
    : tracer_(tracing_enabled), sink_(ring_capacity) {}

bool Telemetry::write_trace_files(const std::string& trace_path) {
  const auto write = [this](const std::string& path,
                            const std::string& body) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
    out.flush();
    if (!out) {
      sink_.emit(Level::kWarn, "telemetry: failed to write " + path);
      return false;
    }
    return true;
  };
  const bool trace_ok = write(trace_path, chrome_trace_json(tracer_.events()));
  const bool metrics_ok =
      write(trace_path + ".metrics.json", metrics_.to_json());
  return trace_ok && metrics_ok;
}

}  // namespace weakkeys::obs
