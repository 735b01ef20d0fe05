#include "obs/monitor.hpp"

#include <cstdio>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#define WK_MONITOR_HAVE_FSYNC 1
#endif

#include "obs/mem.hpp"
#include "obs/proc_stats.hpp"

namespace weakkeys::obs {

namespace {

// Best-effort durability for the closed time series (obs sits below util in
// the layering, so it cannot use util::fsync_path).
void fsync_file(const std::string& path) {
#if defined(WK_MONITOR_HAVE_FSYNC)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

double rate_per_sec(std::uint64_t delta, std::uint64_t interval_us) {
  if (interval_us == 0) return 0.0;
  return static_cast<double>(delta) * 1e6 /
         static_cast<double>(interval_us);
}

double eta_seconds(std::uint64_t done, std::uint64_t total,
                   double rate_per_sec) {
  if (done >= total) return 0.0;
  if (rate_per_sec <= 0.0) return -1.0;
  return static_cast<double>(total - done) / rate_per_sec;
}

std::string monitor_snapshot_json(const MetricsSnapshot& cur,
                                  const MetricsSnapshot* prev,
                                  std::uint64_t seq, std::uint64_t elapsed_us,
                                  std::uint64_t interval_us,
                                  std::int64_t wall_unix_ms, bool final) {
  std::string out = "{\"seq\":" + std::to_string(seq);
  out += ",\"final\":";
  out += final ? "true" : "false";
  out += ",\"wall_unix_ms\":" + std::to_string(wall_unix_ms);
  out += ",\"elapsed_us\":" + std::to_string(elapsed_us);
  out += ",\"interval_us\":" + std::to_string(interval_us);

  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : cur.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":" + std::to_string(value);
  }

  // Deltas and rates only for counters that moved this interval: the
  // cumulative block above is authoritative, these are the derivative view.
  out += "},\"deltas\":{";
  first = true;
  if (prev != nullptr) {
    for (const auto& [name, value] : cur.counters) {
      const std::uint64_t delta = counter_delta(prev->counter(name), value);
      if (delta == 0) continue;
      if (!first) out += ",";
      first = false;
      out += "\"" + json_escape(name) + "\":" + std::to_string(delta);
    }
  }
  out += "},\"rates_per_s\":{";
  first = true;
  if (prev != nullptr && interval_us > 0) {
    for (const auto& [name, value] : cur.counters) {
      const std::uint64_t delta = counter_delta(prev->counter(name), value);
      if (delta == 0) continue;
      if (!first) out += ",";
      first = false;
      out += "\"" + json_escape(name) +
             "\":" + fmt_double(rate_per_sec(delta, interval_us));
    }
  }

  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : cur.gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":" + std::to_string(value);
  }

  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : cur.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":{\"count\":" +
           std::to_string(h.count) + ",\"sum\":" + std::to_string(h.sum) +
           ",\"max\":" + std::to_string(h.max) +
           ",\"p50\":" + fmt_double(h.p50()) +
           ",\"p90\":" + fmt_double(h.p90()) +
           ",\"p99\":" + fmt_double(h.p99()) + "}";
  }
  out += "}}";
  return out;
}

Monitor::Monitor(Telemetry& telemetry, MonitorConfig config)
    : telemetry_(telemetry), config_(std::move(config)) {}

Monitor::~Monitor() { stop(); }

bool Monitor::start() {
  if (running_.exchange(true)) return false;
  epoch_ = std::chrono::steady_clock::now();
  prev_tick_ = epoch_;
  bool ok = true;
  if (!config_.jsonl_path.empty()) {
    std::lock_guard lock(mu_);
    out_.open(config_.jsonl_path, std::ios::binary | std::ios::trunc);
    if (!out_) {
      telemetry_.sink().warn("monitor: cannot write " + config_.jsonl_path);
      ok = false;
    }
  }
  thread_ = std::thread(&Monitor::loop, this);
  return ok;
}

void Monitor::stop() {
  if (!running_.load()) return;
  // One winner runs the shutdown; later (or concurrent) callers are no-ops.
  if (stopped_.exchange(true)) return;
  {
    std::lock_guard lock(wake_mu_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // The ticking thread is gone: this final snapshot is the last line of the
  // series and carries the registry's authoritative end-of-run totals.
  tick(/*final=*/true);
  {
    std::lock_guard lock(mu_);
    if (out_.is_open()) {
      out_.close();
      fsync_file(config_.jsonl_path);
    }
  }
  running_.store(false);
}

void Monitor::loop() {
  std::unique_lock lock(wake_mu_);
  while (!stop_requested_) {
    if (wake_cv_.wait_for(lock, config_.interval,
                          [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    tick(/*final=*/false);
    lock.lock();
  }
}

void Monitor::tick(bool final) {
  if (config_.sample_process_stats) record_proc_self(telemetry_.metrics());
  // Resource-attribution plane: mirror the heap census into the registry
  // every tick.
  if (mem::enabled()) mem::publish(telemetry_.metrics());
  std::lock_guard lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  const MetricsSnapshot cur = telemetry_.metrics().snapshot();
  const std::uint64_t elapsed = elapsed_us(epoch_, now);
  const std::uint64_t interval = have_prev_ ? elapsed_us(prev_tick_, now) : 0;
  const std::int64_t wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  if (out_.is_open()) {
    out_ << monitor_snapshot_json(cur, have_prev_ ? &prev_ : nullptr, seq_,
                                  elapsed, interval, wall_ms, final)
         << '\n';
    out_.flush();
  }
  snapshots_.fetch_add(1);
  if (config_.heartbeat) {
    telemetry_.sink().info(heartbeat_line(cur, prev_, interval));
  }
  prev_ = std::move(cur);
  have_prev_ = true;
  prev_tick_ = now;
  ++seq_;
}

std::string Monitor::heartbeat_line(const MetricsSnapshot& cur,
                                    const MetricsSnapshot& prev,
                                    std::uint64_t interval_us) const {
  char buf[96];
  const double up_s =
      static_cast<double>(
          elapsed_us(epoch_, std::chrono::steady_clock::now())) /
      1e6;
  std::snprintf(buf, sizeof(buf), "monitor: up %.1fs", up_s);
  std::string line = buf;

  const std::uint64_t seen = cur.counter("ingest.records_seen");
  if (seen > 0) {
    const double rate = rate_per_sec(
        counter_delta(prev.counter("ingest.records_seen"), seen),
        interval_us);
    std::snprintf(buf, sizeof(buf), " | ingest %llu rec",
                  static_cast<unsigned long long>(seen));
    line += buf;
    if (rate > 0) {
      std::snprintf(buf, sizeof(buf), " (+%.0f/s)", rate);
      line += buf;
    }
  }

  // The in-process path and the multi-process cluster publish the same
  // task-accounting shape under different prefixes; whichever one is
  // running owns the gcd heartbeat.
  const char* gcd = cur.counter("coordinator.tasks") > 0 ? "coordinator."
                    : cur.counter("cluster.tasks") > 0   ? "cluster."
                                                         : nullptr;
  const std::uint64_t total = gcd ? cur.counter(std::string(gcd) + "tasks") : 0;
  if (total > 0) {
    const std::string executed = std::string(gcd) + "tasks_executed";
    const std::string resumed = std::string(gcd) + "tasks_resumed";
    const std::uint64_t done =
        cur.counter(executed) + cur.counter(resumed);
    const std::uint64_t prev_done =
        prev.counter(executed) + prev.counter(resumed);
    const double rate =
        rate_per_sec(counter_delta(prev_done, done), interval_us);
    const double eta = eta_seconds(done, total, rate);
    std::snprintf(buf, sizeof(buf), " | gcd %llu/%llu tasks",
                  static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(total));
    line += buf;
    if (done < total) {
      if (eta >= 0) {
        std::snprintf(buf, sizeof(buf), " (ETA %.1fs)", eta);
      } else {
        std::snprintf(buf, sizeof(buf), " (ETA ?)");
      }
      line += buf;
    }
  }

  if (cur.counter("cluster.workers") > 0) {
    // Multi-process cluster: liveness comes from the coordinator's
    // heartbeat-tracked gauge.
    const auto alive = cur.gauges.find("cluster.workers_alive");
    std::snprintf(
        buf, sizeof(buf), " | workers %lld/%llu alive",
        alive != cur.gauges.end() ? static_cast<long long>(alive->second) : 0ll,
        static_cast<unsigned long long>(cur.counter("cluster.workers")));
    line += buf;
    const std::uint64_t reconnects = cur.counter("cluster.reconnects");
    if (reconnects > 0) {
      std::snprintf(buf, sizeof(buf), " (%llu reconnects)",
                    static_cast<unsigned long long>(reconnects));
      line += buf;
    }
    // Link health at a glance: heartbeat round-trip percentiles across all
    // workers this run.
    const auto rtt = cur.histograms.find("cluster.heartbeat_rtt_us");
    if (rtt != cur.histograms.end() && rtt->second.count > 0) {
      std::snprintf(buf, sizeof(buf), " | rtt p50 %.0fus max %lluus",
                    rtt->second.p50(),
                    static_cast<unsigned long long>(rtt->second.max));
      line += buf;
    }
    // Fleet telemetry: what the workers reported about themselves —
    // aggregate compute time and resident memory.
    const auto fleet = cur.gauges.find("fleet.workers_reporting");
    if (fleet != cur.gauges.end() && fleet->second > 0) {
      std::snprintf(buf, sizeof(buf), " | fleet %lld reporting %.1fs compute",
                    static_cast<long long>(fleet->second),
                    static_cast<double>(cur.counter("fleet.compute_us")) /
                        1e6);
      line += buf;
      const auto fleet_rss = cur.gauges.find("fleet.rss_kb");
      if (fleet_rss != cur.gauges.end() && fleet_rss->second > 0) {
        std::snprintf(buf, sizeof(buf), " %.1f MB rss",
                      static_cast<double>(fleet_rss->second) / 1024.0);
        line += buf;
      }
    }
  }

  const auto queue = cur.gauges.find("threadpool.queue_depth");
  if (queue != cur.gauges.end()) {
    std::snprintf(buf, sizeof(buf), " | queue %lld",
                  static_cast<long long>(queue->second));
    line += buf;
  }

  const auto rss = cur.gauges.find("process.rss_kb");
  if (rss != cur.gauges.end()) {
    std::snprintf(buf, sizeof(buf), " | rss %.1f MB",
                  static_cast<double>(rss->second) / 1024.0);
    line += buf;
    // VmHWM alongside VmRSS: a tree that ballooned and shrank is invisible
    // in the current figure but decides whether the run ever fit.
    const auto peak = cur.gauges.find("process.peak_rss_kb");
    if (peak != cur.gauges.end() && peak->second > rss->second) {
      std::snprintf(buf, sizeof(buf), " (peak %.1f MB)",
                    static_cast<double>(peak->second) / 1024.0);
      line += buf;
    }
  }

  // Out-of-core factoring at a glance: cumulative spill traffic, the
  // bounded resident window, and any corruption the store had to repair.
  const std::uint64_t spilled = cur.counter("spill.bytes_written");
  if (spilled > 0) {
    const auto resident = cur.gauges.find("spill.resident_bytes");
    std::snprintf(buf, sizeof(buf), " | spill %.1f MB out, %.1f MB resident",
                  static_cast<double>(spilled) / (1024.0 * 1024.0),
                  resident != cur.gauges.end()
                      ? static_cast<double>(resident->second) /
                            (1024.0 * 1024.0)
                      : 0.0);
    line += buf;
    const std::uint64_t repairs =
        cur.counter("spill.heals") + cur.counter("spill.rebuilds");
    if (repairs > 0) {
      std::snprintf(buf, sizeof(buf), " (%llu repairs)",
                    static_cast<unsigned long long>(repairs));
      line += buf;
    }
  }

  const std::uint64_t samples = cur.counter("profiler.samples");
  if (samples > 0) {
    std::snprintf(buf, sizeof(buf), " | prof %llu samples",
                  static_cast<unsigned long long>(samples));
    line += buf;
  }
  return line;
}

}  // namespace weakkeys::obs
