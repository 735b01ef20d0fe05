#include "obs/watchdog.hpp"

#include <cstdio>

namespace weakkeys::obs {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

Watchdog::Watchdog(Telemetry& telemetry, WatchdogConfig config)
    : telemetry_(telemetry), config_(std::move(config)) {}

bool Watchdog::watched(const std::string& counter_name) const {
  // Never progress signals: the watchdog's own counters (a declared stall
  // would "move" them and re-arm the alarm forever) and process
  // self-metrics (CPU time creeps while the run is wedged).
  if (starts_with(counter_name, "watchdog.") ||
      starts_with(counter_name, "process.")) {
    return false;
  }
  if (config_.watch_prefixes.empty()) return true;
  for (const auto& prefix : config_.watch_prefixes) {
    if (starts_with(counter_name, prefix)) return true;
  }
  return false;
}

bool Watchdog::observe(const MetricsSnapshot& snapshot) {
  if (config_.stall_ticks == 0) return false;
  bool moved = !have_prev_;  // the first tick can never diagnose a stall
  if (have_prev_) {
    for (const auto& [name, value] : snapshot.counters) {
      if (!watched(name)) continue;
      if (value != prev_.counter(name)) {
        moved = true;
        break;
      }
    }
  }
  prev_ = snapshot;
  have_prev_ = true;

  if (moved) {
    quiet_ticks_ = 0;
    stalled_ = false;  // movement closes the episode and re-arms the alarm
    telemetry_.metrics().gauge("watchdog.quiet_ticks").set(0);
    return false;
  }

  ++quiet_ticks_;
  telemetry_.metrics()
      .gauge("watchdog.quiet_ticks")
      .set(static_cast<std::int64_t>(quiet_ticks_));
  if (stalled_ || quiet_ticks_ < config_.stall_ticks) return false;

  stalled_ = true;
  ++stalls_;
  telemetry_.metrics().counter("watchdog.stalls").inc();
  const std::string diag = diagnostic(snapshot);
  telemetry_.sink().warn(diag);
  if (config_.on_stall) config_.on_stall(diag);
  return true;
}

std::string Watchdog::diagnostic(const MetricsSnapshot& snapshot) const {
  std::string out = "watchdog: stall declared after " +
                    std::to_string(quiet_ticks_) +
                    " quiet ticks (no watched counter moved)";

  const auto queue = snapshot.gauges.find("threadpool.queue_depth");
  if (queue != snapshot.gauges.end()) {
    out += " | queue " + std::to_string(queue->second);
  }

  const std::uint64_t total = snapshot.counter("coordinator.tasks");
  if (total > 0) {
    const std::uint64_t done = snapshot.counter("coordinator.tasks_executed") +
                               snapshot.counter("coordinator.tasks_resumed");
    out += " | gcd " + std::to_string(done) + "/" + std::to_string(total);
  }

  // The trailing events are usually the smoking gun ("task 17 attempt 42").
  const auto recent = telemetry_.sink().recent();
  const std::size_t show = recent.size() < 3 ? recent.size() : 3;
  for (std::size_t i = recent.size() - show; i < recent.size(); ++i) {
    out += " | last[" + std::to_string(recent[i].seq) +
           "]=" + recent[i].message;
  }
  return out;
}

}  // namespace weakkeys::obs
