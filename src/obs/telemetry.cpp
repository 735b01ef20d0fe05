#include "obs/telemetry.hpp"

#include <fstream>

namespace weakkeys::obs {

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
